#include "workload/generator.h"

#include <algorithm>
#include <random>

#include "common/string_util.h"

namespace dbre::workload {
namespace {

// One navigation link of the generated design; becomes a query and a
// ground-truth IND. Attribute lists are parallel (composite-key links pair
// several columns).
struct Link {
  std::string lhs_relation;
  std::vector<std::string> lhs_attributes;
  std::string rhs_relation;
  std::vector<std::string> rhs_attributes;
};

std::string EntityName(size_t i) { return "E" + std::to_string(i); }
std::string EntityPayload(size_t i, size_t k) {
  return "e" + std::to_string(i) + "_p" + std::to_string(k);
}
std::string MergedId(size_t j) { return "m" + std::to_string(j) + "_id"; }
std::string MergedPayload(size_t j, size_t k) {
  return "m" + std::to_string(j) + "_p" + std::to_string(k);
}

// The pair-encoding base for composite keys; coprime-ish with typical row
// counts so both parts vary.
constexpr int64_t kCompositeBase = 97;

// Renders one link as an embedded-SQL program, rotating join idioms.
std::string RenderProgram(const Link& link, size_t idiom) {
  std::string sql;
  const size_t k = link.lhs_attributes.size();
  switch (idiom % 4) {
    case 0: {
      sql = "SELECT a." + link.lhs_attributes[0] + " FROM " +
            link.lhs_relation + " a, " + link.rhs_relation + " b WHERE ";
      for (size_t i = 0; i < k; ++i) {
        if (i > 0) sql += " AND ";
        sql += "a." + link.lhs_attributes[i] + " = b." +
               link.rhs_attributes[i];
      }
      break;
    }
    case 1: {
      sql = "SELECT a." + link.lhs_attributes[0] + " FROM " +
            link.lhs_relation + " a JOIN " + link.rhs_relation + " b ON ";
      for (size_t i = 0; i < k; ++i) {
        if (i > 0) sql += " AND ";
        sql += "a." + link.lhs_attributes[i] + " = b." +
               link.rhs_attributes[i];
      }
      break;
    }
    case 2: {
      std::string lhs_list = Join(link.lhs_attributes, ", ");
      std::string rhs_list = Join(link.rhs_attributes, ", ");
      if (k == 1) {
        sql = "SELECT " + lhs_list + " FROM " + link.lhs_relation +
              " WHERE " + lhs_list + " IN (SELECT " + rhs_list + " FROM " +
              link.rhs_relation + ")";
      } else {
        sql = "SELECT " + link.lhs_attributes[0] + " FROM " +
              link.lhs_relation + " WHERE (" + lhs_list + ") IN (SELECT " +
              rhs_list + " FROM " + link.rhs_relation + ")";
      }
      break;
    }
    default:
      sql = "SELECT " + Join(link.lhs_attributes, ", ") + " FROM " +
            link.lhs_relation + " INTERSECT SELECT " +
            Join(link.rhs_attributes, ", ") + " FROM " + link.rhs_relation;
      break;
  }
  return "void query_" + std::to_string(idiom) + "(void) {\n  EXEC SQL " +
         sql + ";\n}\n";
}

}  // namespace

Result<SyntheticDatabase> GenerateSynthetic(const SyntheticSpec& spec) {
  if (spec.num_entities < 2) {
    return InvalidArgumentError("need at least 2 base entities");
  }
  if (spec.rows_per_entity == 0) {
    return InvalidArgumentError("rows_per_entity must be positive");
  }
  if (spec.num_composite_keys > spec.num_entities) {
    return InvalidArgumentError(
        "num_composite_keys exceeds num_entities");
  }
  std::mt19937_64 rng(spec.seed);
  auto rand_index = [&](size_t bound) {
    return static_cast<size_t>(rng() % bound);
  };
  auto rand_unit = [&]() {
    return std::uniform_real_distribution<double>(0.0, 1.0)(rng);
  };

  SyntheticDatabase out;
  const size_t n = spec.num_entities;
  const int64_t rows = static_cast<int64_t>(spec.rows_per_entity);

  // Plan the structure first (parents, merged placements) so schemas can be
  // declared completely before data generation.
  std::vector<size_t> parent(n, 0);
  for (size_t i = 1; i < n; ++i) parent[i] = rand_index(i);

  struct MergedPlan {
    size_t host;
    size_t referrer;
  };
  std::vector<MergedPlan> merged(spec.num_merged);
  for (size_t j = 0; j < spec.num_merged; ++j) {
    merged[j].host = rand_index(n);
    merged[j].referrer = (merged[j].host + 1 + rand_index(n - 1)) % n;
  }

  // Entity i has a composite (two-part) key iff i < num_composite_keys.
  auto is_composite = [&](size_t i) { return i < spec.num_composite_keys; };
  auto merged_holder_is_host = [&](size_t j, size_t i) {
    return merged[j].host == i;
  };
  auto key_columns = [&](size_t i) -> std::vector<std::string> {
    if (is_composite(i)) {
      return {"e" + std::to_string(i) + "_hi",
              "e" + std::to_string(i) + "_lo"};
    }
    return {"e" + std::to_string(i) + "_id"};
  };
  auto ref_columns = [&](size_t p) -> std::vector<std::string> {
    if (spec.obfuscate_names) {
      if (is_composite(p)) {
        return {"fk" + std::to_string(p) + "a",
                "fk" + std::to_string(p) + "b"};
      }
      return {"fk" + std::to_string(p)};
    }
    if (is_composite(p)) {
      return {"e" + std::to_string(p) + "_ref_hi",
              "e" + std::to_string(p) + "_ref_lo"};
    }
    return {"e" + std::to_string(p) + "_ref"};
  };
  // Merged-id column name within relation i: identical on both sides when
  // names are aligned, unrelated when obfuscated.
  auto merged_id_name = [&](size_t j, size_t i) -> std::string {
    if (!spec.obfuscate_names) return MergedId(j);
    return (merged_holder_is_host(j, i) ? "hcol" : "rcol") +
           std::to_string(j);
  };
  // Encodes a (1-based) parent row id into its key values.
  auto encode_key = [&](size_t p, int64_t id) -> std::vector<int64_t> {
    if (is_composite(p)) return {id / kCompositeBase, id % kCompositeBase};
    return {id};
  };


  // Schemas.
  for (size_t i = 0; i < n; ++i) {
    RelationSchema schema(EntityName(i));
    for (const std::string& column : key_columns(i)) {
      DBRE_RETURN_IF_ERROR(schema.AddAttribute(column, DataType::kInt64));
    }
    for (size_t k = 0; k < spec.payload_per_entity; ++k) {
      DBRE_RETURN_IF_ERROR(
          schema.AddAttribute(EntityPayload(i, k), DataType::kString));
    }
    if (i > 0) {
      for (const std::string& column : ref_columns(parent[i])) {
        DBRE_RETURN_IF_ERROR(schema.AddAttribute(column, DataType::kInt64));
      }
    }
    for (size_t j = 0; j < spec.num_merged; ++j) {
      if (merged[j].host == i) {
        DBRE_RETURN_IF_ERROR(
            schema.AddAttribute(merged_id_name(j, i), DataType::kInt64));
        for (size_t k = 0; k < spec.payload_per_merged; ++k) {
          DBRE_RETURN_IF_ERROR(
              schema.AddAttribute(MergedPayload(j, k), DataType::kString));
        }
      }
      if (merged[j].referrer == i) {
        DBRE_RETURN_IF_ERROR(
            schema.AddAttribute(merged_id_name(j, i), DataType::kInt64));
      }
    }
    DBRE_RETURN_IF_ERROR(
        schema.DeclareUnique(AttributeSet(key_columns(i))));
    DBRE_RETURN_IF_ERROR(out.database.CreateRelation(std::move(schema)));
  }

  // Data. The merged-id domain is smaller than the row count so identifier
  // values repeat (FDs get multi-tuple witness groups).
  const int64_t merged_domain = std::max<int64_t>(2, rows / 5);
  const int64_t host_domain = std::max<int64_t>(1, merged_domain / 2);
  for (size_t i = 0; i < n; ++i) {
    DBRE_ASSIGN_OR_RETURN(Table * table,
                          out.database.GetMutableTable(EntityName(i)));
    const RelationSchema& schema = table->schema();
    const std::vector<std::string> keys = key_columns(i);
    const std::vector<std::string> refs =
        i > 0 ? ref_columns(parent[i]) : std::vector<std::string>{};
    table->Reserve(static_cast<size_t>(rows));
    for (int64_t row = 1; row <= rows; ++row) {
      // Pre-draw this row's FK target so all ref columns agree.
      int64_t ref_target =
          1 + static_cast<int64_t>(rand_index(static_cast<size_t>(rows)));
      if (spec.orphan_rate > 0.0 && rand_unit() < spec.orphan_rate) {
        ref_target += rows;  // dangling
      }
      std::vector<int64_t> key_values = encode_key(i, row);
      std::vector<int64_t> ref_values =
          i > 0 ? encode_key(parent[i], ref_target) : std::vector<int64_t>{};

      ValueVector values;
      values.reserve(schema.arity());
      for (const Attribute& attribute : schema.attributes()) {
        const std::string& name = attribute.name;
        if (auto it = std::find(keys.begin(), keys.end(), name);
            it != keys.end()) {
          values.push_back(
              Value::Int(key_values[static_cast<size_t>(it - keys.begin())]));
          continue;
        }
        if (auto it = std::find(refs.begin(), refs.end(), name);
            it != refs.end()) {
          values.push_back(
              Value::Int(ref_values[static_cast<size_t>(it - refs.begin())]));
          continue;
        }
        bool handled = false;
        for (size_t j = 0; j < spec.num_merged && !handled; ++j) {
          if (name == merged_id_name(j, i)) {
            int64_t domain =
                merged[j].host == i ? host_domain : merged_domain;
            int64_t id = 1 + static_cast<int64_t>(rand_index(
                                 static_cast<size_t>(domain)));
            if (merged[j].referrer == i) {
              // Guarantee full domain coverage with the first
              // merged_domain rows (so host ⊆ referrer); stay random after
              // that so two merged-id columns in the same relation are not
              // accidentally bijective (which would plant spurious FDs).
              if (row <= merged_domain) {
                id = row;
              } else {
                id = 1 + static_cast<int64_t>(
                             rand_index(static_cast<size_t>(merged_domain)));
              }
            }
            if (merged[j].host == i && spec.orphan_rate > 0.0 &&
                rand_unit() < spec.orphan_rate) {
              id += merged_domain;  // value outside the referrer's domain
            }
            values.push_back(Value::Int(id));
            handled = true;
            continue;
          }
          for (size_t k = 0; k < spec.payload_per_merged; ++k) {
            if (name == MergedPayload(j, k)) {
              // Function of the merged id (already generated: the id column
              // precedes its payload columns in the schema).
              size_t id_index =
                  schema.AttributeIndex(merged_id_name(j, i)).value();
              int64_t id = values[id_index].as_int();
              values.push_back(Value::Text(
                  "mp" + std::to_string(k) + "_" + std::to_string(id * 7)));
              handled = true;
              break;
            }
          }
        }
        if (handled) continue;
        // Entity payload: pseudo-random, repeating, NOT a function of the
        // key restricted to any single column pair (depends on row).
        values.push_back(Value::Text(
            "p_" + std::to_string((row * 31 + static_cast<int64_t>(
                                                  values.size()) * 7) %
                                  97)));
      }
      DBRE_RETURN_IF_ERROR(table->Insert(std::move(values)));
    }
  }

  // Links, ground truth, queries.
  std::vector<Link> links;
  for (size_t i = 1; i < n; ++i) {
    Link link{EntityName(i), ref_columns(parent[i]),
              EntityName(parent[i]), key_columns(parent[i])};
    out.true_inds.emplace_back(link.lhs_relation, link.lhs_attributes,
                               link.rhs_relation, link.rhs_attributes);
    links.push_back(std::move(link));
  }
  for (size_t j = 0; j < spec.num_merged; ++j) {
    Link link{EntityName(merged[j].host),
              {merged_id_name(j, merged[j].host)},
              EntityName(merged[j].referrer),
              {merged_id_name(j, merged[j].referrer)}};
    out.true_inds.emplace_back(link.lhs_relation, link.lhs_attributes,
                               link.rhs_relation, link.rhs_attributes);
    AttributeSet rhs;
    for (size_t k = 0; k < spec.payload_per_merged; ++k) {
      rhs.Insert(MergedPayload(j, k));
    }
    if (!rhs.empty()) {
      out.true_fds.emplace_back(
          EntityName(merged[j].host),
          AttributeSet::Single(merged_id_name(j, merged[j].host)), rhs);
    }
    out.true_identifiers.push_back(QualifiedAttributes{
        EntityName(merged[j].host),
        AttributeSet::Single(merged_id_name(j, merged[j].host))});
    out.true_identifiers.push_back(QualifiedAttributes{
        EntityName(merged[j].referrer),
        AttributeSet::Single(merged_id_name(j, merged[j].referrer))});
    links.push_back(std::move(link));
  }
  std::sort(out.true_inds.begin(), out.true_inds.end());
  std::sort(out.true_fds.begin(), out.true_fds.end());
  std::sort(out.true_identifiers.begin(), out.true_identifiers.end());
  out.true_identifiers.erase(
      std::unique(out.true_identifiers.begin(), out.true_identifiers.end()),
      out.true_identifiers.end());

  std::vector<EquiJoin> joins;
  for (size_t idx = 0; idx < links.size(); ++idx) {
    if (rand_unit() >= spec.query_coverage) continue;
    const Link& link = links[idx];
    EquiJoin join;
    join.left_relation = link.lhs_relation;
    join.left_attributes = link.lhs_attributes;
    join.right_relation = link.rhs_relation;
    join.right_attributes = link.rhs_attributes;
    joins.push_back(std::move(join));
    if (spec.emit_program_sources) {
      out.program_sources.emplace_back(
          "prog_" + std::to_string(idx) + ".pc", RenderProgram(link, idx));
    }
  }
  out.queries = CanonicalJoinSet(joins);
  return out;
}

}  // namespace dbre::workload
