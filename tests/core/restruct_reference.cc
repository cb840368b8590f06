#include "restruct_reference.h"

#include <algorithm>

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

// Creates R_p with attributes `attributes` (types copied from `source`),
// key `key`, and extension given by `rows`.
Status CreateRelationFrom(Database* database, const std::string& name,
                          const Table& source,
                          const std::vector<std::string>& attributes,
                          const AttributeSet& key,
                          std::vector<ValueVector> rows) {
  RelationSchema schema(name);
  for (const std::string& attribute : attributes) {
    DBRE_ASSIGN_OR_RETURN(DataType type,
                          source.schema().AttributeType(attribute));
    DBRE_RETURN_IF_ERROR(schema.AddAttribute(attribute, type));
  }
  DBRE_RETURN_IF_ERROR(schema.DeclareUnique(key));
  Table table(std::move(schema));
  for (ValueVector& row : rows) {
    DBRE_RETURN_IF_ERROR(table.Insert(std::move(row)));
  }
  return database->AddTable(std::move(table));
}

}  // namespace

Result<RestructResult> RowInsertRestruct(
    const Database& database, const std::vector<FunctionalDependency>& fds,
    const std::vector<QualifiedAttributes>& hidden,
    const std::vector<InclusionDependency>& inds, ExpertOracle* oracle) {
  if (oracle == nullptr) return InvalidArgumentError("oracle is null");

  RestructResult result;
  result.database = database.Clone();
  result.inds = inds;

  // Pass 1 — hidden objects.
  for (const QualifiedAttributes& h : hidden) {
    DBRE_ASSIGN_OR_RETURN(const Table* source,
                          result.database.GetTable(h.relation));
    std::string requested = oracle->NameHiddenObjectRelation(h);
    std::string base = requested.empty()
                           ? h.relation + "_" + Join(h.attributes.names(), "_")
                           : requested;
    std::string name = UniqueName(result.database, base);

    // Extension: distinct non-NULL projection of r_i on A_i.
    DBRE_ASSIGN_OR_RETURN(std::vector<size_t> indexes,
                          source->ProjectionIndexes(h.attributes));
    DBRE_ASSIGN_OR_RETURN(std::shared_ptr<QueryCache> source_cache,
                          source->query_cache());
    std::shared_ptr<const ValueVectorSet> values =
        source_cache->DistinctProjection(indexes);
    std::vector<ValueVector> rows(values->begin(), values->end());
    std::sort(rows.begin(), rows.end());
    DBRE_RETURN_IF_ERROR(CreateRelationFrom(
        &result.database, name, *source, h.attributes.names(), h.attributes,
        std::move(rows)));
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
    DBRE_ASSIGN_OR_RETURN(std::vector<size_t> lhs_indexes,
                          OrderedProjectionIndexes(*source, fd.lhs.names()));
    DBRE_ASSIGN_OR_RETURN(
        std::vector<size_t> all_indexes,
        OrderedProjectionIndexes(*source, attribute_order));
    DBRE_ASSIGN_OR_RETURN(std::shared_ptr<QueryCache> cache,
                          source->query_cache());
    std::shared_ptr<const CodePartition> partition =
        cache->Partition(lhs_indexes, NullPolicy::kSkipNullRows);
    EncodedTable::RowReader reader = cache->ReadRows(all_indexes);
    std::vector<ValueVector> rows(partition->num_groups());
    for (size_t g = 0; g < rows.size(); ++g) {
      reader.Read(partition->representative[g], &rows[g]);
    }
    std::sort(rows.begin(), rows.end());
    DBRE_RETURN_IF_ERROR(CreateRelationFrom(&result.database, name, *source,
                                            attribute_order, fd.lhs,
                                            std::move(rows)));
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
