#include "core/restruct.h"

#include <algorithm>
#include <numeric>

#include "common/string_util.h"
#include "relational/algebra.h"
#include "relational/query_cache.h"

namespace dbre {
namespace {

// Makes `base` unique within `database` by numeric suffixing.
std::string UniqueName(const Database& database, std::string base) {
  if (base.empty()) base = "relation";
  std::string name = base;
  int suffix = 2;
  while (database.HasRelation(name)) {
    name = base + "_" + std::to_string(suffix++);
  }
  return name;
}

// Rewrites occurrences of `source_relation`[C] (C ⊆ covered) to
// `target_relation`[C] in every IND except index `exempt`.
void RewriteIndSides(std::vector<InclusionDependency>* inds, size_t exempt,
                     const std::string& source_relation,
                     const AttributeSet& covered,
                     const std::string& target_relation) {
  for (size_t i = 0; i < inds->size(); ++i) {
    if (i == exempt) continue;
    InclusionDependency& ind = (*inds)[i];
    if (ind.lhs_relation == source_relation &&
        covered.ContainsAll(ind.LhsAttributeSet())) {
      ind.lhs_relation = target_relation;
    }
    if (ind.rhs_relation == source_relation &&
        covered.ContainsAll(ind.RhsAttributeSet())) {
      ind.rhs_relation = target_relation;
    }
  }
}

// The relation R_p(attributes) with key `key`, attribute types copied from
// `source`, and an empty extension.
Result<Table> NewRelation(const std::string& name, const Table& source,
                          const std::vector<std::string>& attributes,
                          const AttributeSet& key) {
  RelationSchema schema(name);
  for (const std::string& attribute : attributes) {
    DBRE_ASSIGN_OR_RETURN(DataType type,
                          source.schema().AttributeType(attribute));
    DBRE_RETURN_IF_ERROR(schema.AddAttribute(attribute, type));
  }
  DBRE_RETURN_IF_ERROR(schema.DeclareUnique(key));
  return Table(std::move(schema));
}

// The table a new relation's extension is read from: the input's own when
// it has `relation` — its query cache holds what discovery memoized, and
// later runs over the same catalog share it — else the restructured
// copy's. Attributes dropped from the copy leave the remaining columns'
// rows as they were.
Result<const Table*> ExtensionSource(const Database& input,
                                     const Database& restructured,
                                     const std::string& relation) {
  return input.HasRelation(relation) ? input.GetTable(relation)
                                     : restructured.GetTable(relation);
}

// Fills `relation`'s extension from `source`: one row per group of the
// NULL-free partition over `group_columns`, holding the group's first
// witness on group_columns followed by `dependent_columns` (the relation's
// attribute order), rows in Value order — what sorting the decoded rows
// and inserting them one by one would build, made from codes alone.
//
// Rows are ordered by each column's memoized value rank. The group columns
// lead and the groups are distinct on them, so only a rank tie — two NaNs
// — lets a dependent column decide; without one the dependents are never
// ranked. A single group column needs no sort at all: its groups are its
// dictionary codes (CodePartition numbers them so), already in rank
// order. Each output column is the gathered codes renumbered by first
// appearance, with the source's dictionary entries, so it is canonical.
Status BuildExtension(const Table& source,
                      const std::vector<size_t>& group_columns,
                      const std::vector<size_t>& dependent_columns,
                      Table* relation) {
  constexpr uint32_t kNull = EncodedTable::kNullCode;
  DBRE_ASSIGN_OR_RETURN(std::shared_ptr<QueryCache> cache,
                        source.query_cache());
  std::vector<size_t> columns = group_columns;
  columns.insert(columns.end(), dependent_columns.begin(),
                 dependent_columns.end());
  cache->EnsureEncoded(columns);
  const EncodedTable& encoded = cache->encoded();
  const size_t width = columns.size();

  // Each group's code in every column, in group order.
  std::vector<std::vector<uint32_t>> group_codes(width);
  size_t num_groups = 0;
  if (width == 1) {
    // A single column's groups are its dictionary codes.
    num_groups = encoded.dict_size(columns[0]);
    group_codes[0].resize(num_groups);
    std::iota(group_codes[0].begin(), group_codes[0].end(), uint32_t{0});
  } else {
    std::shared_ptr<const CodePartition> partition =
        cache->Partition(group_columns, NullPolicy::kSkipNullRows);
    num_groups = partition->num_groups();
    for (size_t k = 0; k < width; ++k) {
      // Representatives ascend, so a paged column streams forward.
      EncodedTable::CodeReader reader = encoded.codes_reader(columns[k]);
      group_codes[k].resize(num_groups);
      for (size_t g = 0; g < num_groups; ++g) {
        group_codes[k][g] = reader.At(partition->representative[g]);
      }
    }
  }

  // The row order: groups by ascending rank tuple.
  std::vector<std::shared_ptr<const ValueOrder>> orders;
  bool ties = false;
  for (size_t c : group_columns) {
    orders.push_back(cache->ValueOrderOf(c));
    ties |= orders.back()->ties;
  }
  if (ties) {
    for (size_t c : dependent_columns) {
      orders.push_back(cache->ValueOrderOf(c));
    }
  }
  std::vector<uint32_t> order;
  if (orders.size() == 1) {
    order = orders[0]->sorted;
  } else {
    // Rank + 1 per ranked column (0 for NULL, which sorts first), one
    // key row per group.
    const size_t key_width = orders.size();
    std::vector<uint32_t> keys(num_groups * key_width);
    for (size_t k = 0; k < key_width; ++k) {
      const uint32_t* rank = orders[k]->rank.data();
      for (size_t g = 0; g < num_groups; ++g) {
        const uint32_t code = group_codes[k][g];
        keys[g * key_width + k] = code == kNull ? 0 : rank[code] + 1;
      }
    }
    order.resize(num_groups);
    std::iota(order.begin(), order.end(), uint32_t{0});
    std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
      return std::lexicographical_compare(
          keys.begin() + a * key_width, keys.begin() + (a + 1) * key_width,
          keys.begin() + b * key_width, keys.begin() + (b + 1) * key_width);
    });
  }

  // Canonical columns: codes renumbered by first appearance in row order,
  // dictionary entries copied from the source.
  std::vector<EncodedColumn> built(width);
  bool mismatch = false;
  for (size_t k = 0; k < width; ++k) {
    const size_t c = columns[k];
    EncodedColumn& column = built[k];
    column.type = encoded.declared_type(c);
    std::vector<uint32_t> renumber(encoded.dict_size(c), kNull);
    std::vector<uint32_t> used;  // new code → source code
    column.codes.resize(num_groups);
    for (size_t i = 0; i < num_groups; ++i) {
      const uint32_t code = group_codes[k][order[i]];
      if (code == kNull) {
        column.has_null = true;
        column.codes[i] = kNull;
        continue;
      }
      uint32_t& renumbered = renumber[code];
      if (renumbered == kNull) {
        renumbered = static_cast<uint32_t>(used.size());
        used.push_back(code);
      }
      column.codes[i] = renumbered;
    }
    if (encoded.dict_resident(c)) {
      column.dictionary.reserve(used.size());
      for (uint32_t code : used) {
        column.dictionary.push_back(encoded.Decode(c, code));
      }
    } else {
      column.dictionary.resize(used.size());
      DBRE_RETURN_IF_ERROR(encoded.ForEachDictValue(
          c, [&](uint32_t code, const Value& value) {
            if (renumber[code] != kNull) {
              column.dictionary[renumber[code]] = value;
            }
          }));
    }
    // An untyped source column may still supply only typed cells.
    if (!encoded.column_typed(c)) {
      for (const Value& value : column.dictionary) {
        mismatch |= !value.MatchesType(column.type);
      }
    }
  }
  if (mismatch) {
    // Insert's error for the first off-type cell in row order.
    const RelationSchema& schema = relation->schema();
    for (size_t i = 0; i < num_groups; ++i) {
      for (size_t k = 0; k < width; ++k) {
        const EncodedColumn& column = built[k];
        if (column.codes[i] == kNull) continue;
        const Value& value = column.dictionary[column.codes[i]];
        if (!value.MatchesType(column.type)) {
          return InvalidArgumentError(
              "type mismatch for " + schema.name() + "." +
              schema.attributes()[k].name + ": value " + value.ToString());
        }
      }
    }
  }
  return relation->AdoptColumns(std::move(built), num_groups);
}

}  // namespace

Result<RestructResult> Restruct(const Database& database,
                                const std::vector<FunctionalDependency>& fds,
                                const std::vector<QualifiedAttributes>& hidden,
                                const std::vector<InclusionDependency>& inds,
                                ExpertOracle* oracle) {
  if (oracle == nullptr) return InvalidArgumentError("oracle is null");

  RestructResult result;
  result.database = database.Clone();
  result.inds = inds;

  // Pass 1 — hidden objects.
  for (const QualifiedAttributes& h : hidden) {
    DBRE_ASSIGN_OR_RETURN(
        const Table* source,
        ExtensionSource(database, result.database, h.relation));
    std::string requested = oracle->NameHiddenObjectRelation(h);
    std::string base = requested.empty()
                           ? h.relation + "_" + Join(h.attributes.names(), "_")
                           : requested;
    std::string name = UniqueName(result.database, base);

    // Extension: distinct non-NULL projection of r_i on A_i.
    DBRE_ASSIGN_OR_RETURN(std::vector<size_t> indexes,
                          source->ProjectionIndexes(h.attributes));
    DBRE_ASSIGN_OR_RETURN(Table relation,
                          NewRelation(name, *source, h.attributes.names(),
                                      h.attributes));
    DBRE_RETURN_IF_ERROR(BuildExtension(*source, indexes, {}, &relation));
    DBRE_RETURN_IF_ERROR(result.database.AddTable(std::move(relation)));
    result.provenance[name] = "hidden object " + h.ToString();

    // Add R_i[A_i] ≪ R_p[A_i]; rewrite other occurrences of R_i[⊆A_i].
    result.inds.emplace_back(h.relation, h.attributes.names(), name,
                             h.attributes.names());
    RewriteIndSides(&result.inds, result.inds.size() - 1, h.relation,
                    h.attributes, name);
  }

  // Pass 2 — FD splitting.
  for (const FunctionalDependency& fd : fds) {
    DBRE_ASSIGN_OR_RETURN(Table * source,
                          result.database.GetMutableTable(fd.relation));
    for (const std::string& attribute :
         fd.lhs.Union(fd.rhs)) {
      if (!source->schema().HasAttribute(attribute)) {
        return FailedPreconditionError(
            "FD " + fd.ToString() + " references attribute " + attribute +
            " already moved by an earlier FD; FDs in F must not overlap");
      }
    }
    std::string requested = oracle->NameRelationForFd(fd);
    std::string base = requested.empty()
                           ? fd.relation + "_" +
                                 Join(fd.lhs.names(), "_")
                           : requested;
    std::string name = UniqueName(result.database, base);

    // Extension: one row per distinct non-NULL LHS value; dependent values
    // from the first witnessing tuple (first-wins resolves conflicts of
    // expert-enforced FDs). Those tuples are exactly the representatives of
    // the LHS partition, which RHS-Discovery's FD tests already memoized.
    AttributeSet all = fd.lhs.Union(fd.rhs);
    std::vector<std::string> attribute_order;
    for (const std::string& a : fd.lhs) attribute_order.push_back(a);
    for (const std::string& b : fd.rhs) attribute_order.push_back(b);
    DBRE_ASSIGN_OR_RETURN(
        const Table* extension,
        ExtensionSource(database, result.database, fd.relation));
    DBRE_ASSIGN_OR_RETURN(
        std::vector<size_t> lhs_indexes,
        OrderedProjectionIndexes(*extension, fd.lhs.names()));
    DBRE_ASSIGN_OR_RETURN(
        std::vector<size_t> rhs_indexes,
        OrderedProjectionIndexes(*extension, attribute_order));
    rhs_indexes.erase(rhs_indexes.begin(),
                      rhs_indexes.begin() + lhs_indexes.size());
    DBRE_ASSIGN_OR_RETURN(
        Table relation,
        NewRelation(name, *source, attribute_order, fd.lhs));
    DBRE_RETURN_IF_ERROR(
        BuildExtension(*extension, lhs_indexes, rhs_indexes, &relation));
    DBRE_RETURN_IF_ERROR(result.database.AddTable(std::move(relation)));
    result.provenance[name] = "FD " + fd.ToString();

    // Remove B_i from R_i (schema + extension). Re-fetch the table pointer:
    // AddTable may have invalidated it.
    DBRE_ASSIGN_OR_RETURN(source,
                          result.database.GetMutableTable(fd.relation));
    for (const std::string& attribute : fd.rhs) {
      DBRE_RETURN_IF_ERROR(source->DropAttribute(attribute));
    }

    // Add R_i[A_i] ≪ R_p[A_i]; rewrite other occurrences of
    // R_i[⊆ A_i ∪ B_i].
    result.inds.emplace_back(fd.relation, fd.lhs.names(), name,
                             fd.lhs.names());
    RewriteIndSides(&result.inds, result.inds.size() - 1, fd.relation, all,
                    name);
  }

  // Drop INDs that became trivial through rewriting, then dedupe.
  result.inds.erase(
      std::remove_if(result.inds.begin(), result.inds.end(),
                     [](const InclusionDependency& ind) {
                       return ind.lhs_relation == ind.rhs_relation &&
                              ind.lhs_attributes == ind.rhs_attributes;
                     }),
      result.inds.end());
  result.inds = SortedUnique(std::move(result.inds));

  // Harvest K and RIC.
  result.keys = result.database.KeySet();
  for (const InclusionDependency& ind : result.inds) {
    if (IsKeyBased(result.database, ind)) result.rics.push_back(ind);
  }
  return result;
}

}  // namespace dbre
