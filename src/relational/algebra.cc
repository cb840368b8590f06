#include "relational/algebra.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <unordered_map>

#include "obs/metrics.h"
#include "relational/column_batch.h"
#include "relational/query_cache.h"
#include "relational/sketch.h"

namespace dbre {
namespace {

bool HasNull(const ValueVector& row) {
  return std::any_of(row.begin(), row.end(),
                     [](const Value& v) { return v.is_null(); });
}

obs::Counter* SketchRefutes(const char* kind) {
  return obs::Registry::Default().GetCounter(
      "dbre_sketch_refutes_total", {{"kind", kind}},
      "Candidates refuted by a provable sketch/count pre-pass");
}

obs::Counter* SketchFallbacks(const char* kind) {
  return obs::Registry::Default().GetCounter(
      "dbre_sketch_fallbacks_total", {{"kind", kind}},
      "Sketch pre-passes that could not prove and fell back to exact");
}

// Probe loops run after the paged source verified clean at open; a failure
// here is a real environment fault and the count/bool entry points have no
// error channel (see the contract in relational/paged_source.h).
void CheckStream(const Status& status) {
  if (status.ok()) return;
  std::fprintf(stderr, "dbre: unrecoverable paged stream failure: %s\n",
               status.ToString().c_str());
  std::abort();
}

// The build side's on-disk key index when membership probes should use it:
// paged column, gate on, index built (or loaded) cleanly. nullptr falls
// back to materialized sets — results are identical either way.
std::shared_ptr<const PagedKeyIndex> BuildSideKeyIndex(QueryCache& build_cache,
                                                       size_t build_column) {
  const EncodedColumn& column = build_cache.encoded().column(build_column);
  if (!column.paged() || !PagedIndexEnabled()) return nullptr;
  Result<std::shared_ptr<const PagedKeyIndex>> index =
      column.source->KeyIndexFor(column.source_column);
  if (!index.ok()) return nullptr;
  static obs::Counter* const probes = obs::Registry::Default().GetCounter(
      "dbre_pagestore_index_probe_batches_total", {},
      "Membership probe batches served by a paged key index");
  probes->Add(1);
  return *index;
}

// Whether `value` appears in the (paged) build column, through its key
// index. Exact indexes compare raw int64 bit patterns; inexact indexes
// probe by sketch hash and verify every candidate by decoding.
bool IndexContains(const EncodedTable& build_encoded, size_t build_column,
                   const PagedKeyIndex& index, const Value& value) {
  if (index.exact()) {
    // An exact index only exists over homogeneously int64 columns, so a
    // non-int probe value can never match (Value equality is tag-strict).
    return value.is_int() &&
           index.ContainsKey(static_cast<uint64_t>(value.as_int()));
  }
  bool found = false;
  CheckStream(index.ForEachCode(
      SketchHash(value), [&](uint32_t code) {
        if (build_encoded.DecodeValue(build_column, code) == value) {
          found = true;
          return false;
        }
        return true;
      }));
  return found;
}

// Number of probe-dictionary values present in the build column, exact.
// Protocol: an optional Bloom pre-pass (only if the build side already
// carries a sketch — discovery sweeps build them, one-shot joins don't)
// proves most absent values absent; survivors take the exact membership
// check, vectorized over the flat int64 dictionary keys when both sides
// are typed, decoded Values otherwise.
size_t SingleColumnIntersection(QueryCache& probe_cache, size_t probe_column,
                                QueryCache& build_cache,
                                size_t build_column) {
  std::shared_ptr<const DictionaryKeys> keys =
      probe_cache.DictKeys(probe_column);
  const size_t n = keys->hashes.size();
  if (n == 0) return 0;

  std::vector<uint8_t> hit(n, 1);
  size_t candidates = n;
  if (SketchesEnabled()) {
    std::shared_ptr<const ColumnSketch> sketch =
        build_cache.MaybeColumnSketch(build_column);
    if (sketch != nullptr) {
      candidates =
          batch::ProbeBloom(sketch->bloom, keys->hashes.data(), n, hit.data());
      static obs::Counter* const refutes = SketchRefutes("bloom_column");
      refutes->Add(n - candidates);
      if (candidates > 0) {
        static obs::Counter* const fallbacks = SketchFallbacks("column");
        fallbacks->Add(1);
      }
    }
  }
  if (candidates == 0) return 0;

  // Paged build side: probe the survivors against the on-disk key index
  // instead of materializing the build dictionary as a set.
  std::shared_ptr<const PagedKeyIndex> index =
      BuildSideKeyIndex(build_cache, build_column);
  if (index != nullptr) {
    const EncodedTable& build_encoded = build_cache.encoded();
    size_t joined = 0;
    if (index->exact() && !keys->int64_keys.empty()) {
      for (size_t i = 0; i < n; ++i) {
        if (hit[i] && index->ContainsKey(keys->int64_keys[i])) ++joined;
      }
      return joined;
    }
    CheckStream(probe_cache.encoded().ForEachDictValue(
        probe_column, [&](uint32_t code, const Value& value) {
          if (hit[code] && IndexContains(build_encoded, build_column, *index,
                                         value)) {
            ++joined;
          }
        }));
    return joined;
  }

  // Exact stage over the Bloom survivors.
  if (!keys->int64_keys.empty()) {
    std::shared_ptr<const FlatSet64> build_ints =
        build_cache.Int64DictionarySet(build_column);
    if (build_ints != nullptr) {
      std::vector<uint8_t> present(candidates);
      if (candidates == n) {
        return batch::ProbeSet(*build_ints, keys->int64_keys.data(), n,
                               present.data());
      }
      std::vector<uint64_t> survivors;
      survivors.reserve(candidates);
      for (size_t i = 0; i < n; ++i) {
        if (hit[i]) survivors.push_back(keys->int64_keys[i]);
      }
      return batch::ProbeSet(*build_ints, survivors.data(), survivors.size(),
                             present.data());
    }
  }
  std::shared_ptr<const ValueSet> build_set =
      build_cache.DictionarySet(build_column);
  size_t joined = 0;
  CheckStream(probe_cache.encoded().ForEachDictValue(
      probe_column, [&](uint32_t code, const Value& value) {
        if (hit[code] && build_set->contains(value)) ++joined;
      }));
  return joined;
}

// Sketch-consistent row hashes of a partition's representatives, built
// from the per-column value-hash tables (no decoding). Representatives
// come from NULL-skipping partitions, so no NULL channel is needed.
std::vector<uint64_t> RepresentativeHashes(
    QueryCache& cache, const std::vector<size_t>& columns,
    const CodePartition& partition) {
  std::vector<std::shared_ptr<const DictionaryKeys>> keys;
  keys.reserve(columns.size());
  for (size_t c : columns) keys.push_back(cache.DictKeys(c));
  const EncodedTable& encoded = cache.encoded();
  std::vector<uint64_t> hashes(partition.representative.size(), kRowHashSeed);
  for (size_t k = 0; k < columns.size(); ++k) {
    // Multi-column representatives come in increasing row order, so the
    // reader walks each page once in paged mode.
    EncodedTable::CodeReader codes = encoded.codes_reader(columns[k]);
    const uint64_t* value_hash = keys[k]->hashes.data();
    for (size_t g = 0; g < hashes.size(); ++g) {
      hashes[g] = SketchHashCombine(
          hashes[g], value_hash[codes.At(partition.representative[g])]);
    }
  }
  return hashes;
}

}  // namespace

Result<std::vector<size_t>> OrderedProjectionIndexes(
    const Table& table, const std::vector<std::string>& attributes) {
  if (attributes.empty()) {
    return InvalidArgumentError("projection on empty attribute list");
  }
  std::vector<size_t> indexes;
  indexes.reserve(attributes.size());
  for (const std::string& name : attributes) {
    DBRE_ASSIGN_OR_RETURN(size_t index, table.schema().AttributeIndex(name));
    indexes.push_back(index);
  }
  return indexes;
}

Result<ValueVectorSet> OrderedDistinctProjection(
    const Table& table, const std::vector<std::string>& attributes) {
  DBRE_ASSIGN_OR_RETURN(std::vector<size_t> indexes,
                        OrderedProjectionIndexes(table, attributes));
  DBRE_ASSIGN_OR_RETURN(std::shared_ptr<QueryCache> cache,
                        table.query_cache());
  return *cache->DistinctProjection(indexes);
}

Result<JoinCounts> ComputeJoinCounts(const Database& database,
                                     const EquiJoin& join) {
  DBRE_RETURN_IF_ERROR(join.Validate());
  DBRE_ASSIGN_OR_RETURN(const Table* left,
                        database.GetTable(join.left_relation));
  DBRE_ASSIGN_OR_RETURN(const Table* right,
                        database.GetTable(join.right_relation));
  DBRE_ASSIGN_OR_RETURN(std::vector<size_t> left_indexes,
                        OrderedProjectionIndexes(*left, join.left_attributes));
  DBRE_ASSIGN_OR_RETURN(
      std::vector<size_t> right_indexes,
      OrderedProjectionIndexes(*right, join.right_attributes));
  DBRE_ASSIGN_OR_RETURN(std::shared_ptr<QueryCache> left_cache,
                        left->query_cache());
  DBRE_ASSIGN_OR_RETURN(std::shared_ptr<QueryCache> right_cache,
                        right->query_cache());

  // Re-asked joins (discovery passes revisit the workload's links) hit the
  // memo; the weak_ptr inside validates the peer cache is still the same
  // object, so a mutated table can never serve stale counts.
  JoinCountsValue memo;
  if (left_cache->LookupJoinCounts(right_cache, left_indexes, right_indexes,
                                   &memo)) {
    return JoinCounts{memo.n_left, memo.n_right, memo.n_join};
  }

  JoinCounts counts;
  if (left_indexes.size() == 1) {
    // Single-attribute joins (the common case): each side's dictionary is
    // its distinct projection; probe the smaller dictionary against the
    // larger side, Bloom pre-pass first, exact membership second.
    const size_t lc = left_indexes[0];
    const size_t rc = right_indexes[0];
    left_cache->EnsureEncoded(left_indexes);
    right_cache->EnsureEncoded(right_indexes);
    counts.n_left = left_cache->encoded().dict_size(lc);
    counts.n_right = right_cache->encoded().dict_size(rc);
    const bool probe_left = counts.n_left <= counts.n_right;
    counts.n_join = SingleColumnIntersection(
        probe_left ? *left_cache : *right_cache, probe_left ? lc : rc,
        probe_left ? *right_cache : *left_cache, probe_left ? rc : lc);
    left_cache->StoreJoinCounts(
        right_cache, left_indexes, right_indexes,
        JoinCountsValue{counts.n_left, counts.n_right, counts.n_join});
    return counts;
  }

  // Multi-attribute: the distinct counts come from the memoized partitions;
  // the intersection probes the smaller side's representatives against the
  // larger side — through its projection Bloom when the exact distinct set
  // is not yet materialized (misses are proven absent; only hits decode).
  std::shared_ptr<const CodePartition> left_part =
      left_cache->Partition(left_indexes, NullPolicy::kSkipNullRows);
  std::shared_ptr<const CodePartition> right_part =
      right_cache->Partition(right_indexes, NullPolicy::kSkipNullRows);
  counts.n_left = left_part->num_groups();
  counts.n_right = right_part->num_groups();
  const bool probe_left = counts.n_left <= counts.n_right;
  QueryCache& probe_cache = probe_left ? *left_cache : *right_cache;
  QueryCache& build_cache = probe_left ? *right_cache : *left_cache;
  const std::vector<size_t>& probe_columns =
      probe_left ? left_indexes : right_indexes;
  const std::vector<size_t>& build_columns =
      probe_left ? right_indexes : left_indexes;
  const CodePartition& probe_part = probe_left ? *left_part : *right_part;

  std::vector<uint8_t> hit(probe_part.num_groups(), 1);
  size_t candidates = probe_part.num_groups();
  if (SketchesEnabled() && candidates > 0 &&
      !build_cache.HasDistinctProjection(build_columns)) {
    std::vector<uint64_t> probe_hashes =
        RepresentativeHashes(probe_cache, probe_columns, probe_part);
    std::shared_ptr<const ProjectionSketch> sketch =
        build_cache.ProjectionSketchFor(build_columns);
    candidates = batch::ProbeBloom(sketch->bloom, probe_hashes.data(),
                                   probe_hashes.size(), hit.data());
    static obs::Counter* const refutes = SketchRefutes("bloom_projection");
    refutes->Add(probe_part.num_groups() - candidates);
    if (candidates > 0) {
      static obs::Counter* const fallbacks = SketchFallbacks("projection");
      fallbacks->Add(1);
    }
  }
  if (candidates > 0) {
    std::shared_ptr<const ValueVectorSet> build_set =
        build_cache.DistinctProjection(build_columns);
    EncodedTable::RowReader reader =
        probe_cache.encoded().row_reader(probe_columns);
    ValueVector sub_row;
    for (size_t g = 0; g < probe_part.num_groups(); ++g) {
      if (!hit[g]) continue;
      reader.Read(probe_part.representative[g], &sub_row);
      if (build_set->contains(sub_row)) ++counts.n_join;
    }
  }
  left_cache->StoreJoinCounts(
      right_cache, left_indexes, right_indexes,
      JoinCountsValue{counts.n_left, counts.n_right, counts.n_join});
  return counts;
}

Result<bool> InclusionHolds(const Database& database,
                            const std::string& lhs_relation,
                            const std::vector<std::string>& lhs_attributes,
                            const std::string& rhs_relation,
                            const std::vector<std::string>& rhs_attributes) {
  if (lhs_attributes.size() != rhs_attributes.size()) {
    return InvalidArgumentError(
        "inclusion test with mismatched attribute arity");
  }
  DBRE_ASSIGN_OR_RETURN(const Table* lhs, database.GetTable(lhs_relation));
  DBRE_ASSIGN_OR_RETURN(const Table* rhs, database.GetTable(rhs_relation));
  DBRE_ASSIGN_OR_RETURN(std::vector<size_t> rhs_indexes,
                        OrderedProjectionIndexes(*rhs, rhs_attributes));
  DBRE_ASSIGN_OR_RETURN(std::vector<size_t> lhs_indexes,
                        OrderedProjectionIndexes(*lhs, lhs_attributes));
  DBRE_ASSIGN_OR_RETURN(std::shared_ptr<QueryCache> rhs_cache,
                        rhs->query_cache());
  DBRE_ASSIGN_OR_RETURN(std::shared_ptr<QueryCache> lhs_cache,
                        lhs->query_cache());
  if (lhs_indexes.size() == 1) {
    // Single attribute: r_i[Y] ⊆ r_j[Z] iff every lhs dictionary value is
    // in the rhs dictionary. Two provable pre-passes run first: a strictly
    // larger lhs dictionary refutes outright (exact cardinalities), and a
    // Bloom miss against an already-built rhs column sketch refutes one
    // value (no false negatives). Survivors take the exact membership scan.
    const size_t lc = lhs_indexes[0];
    const size_t rc = rhs_indexes[0];
    lhs_cache->EnsureEncoded(lhs_indexes);
    rhs_cache->EnsureEncoded(rhs_indexes);
    const EncodedTable& lhs_encoded = lhs_cache->encoded();
    const size_t lhs_size = lhs_encoded.dict_size(lc);
    if (lhs_size == 0) return true;
    if (SketchesEnabled()) {
      if (lhs_size > rhs_cache->encoded().dict_size(rc)) {
        static obs::Counter* const refutes = SketchRefutes("cardinality");
        refutes->Add(1);
        return false;
      }
      std::shared_ptr<const ColumnSketch> sketch =
          rhs_cache->MaybeColumnSketch(rc);
      if (sketch != nullptr) {
        std::shared_ptr<const DictionaryKeys> keys = lhs_cache->DictKeys(lc);
        std::vector<uint8_t> hit(lhs_size);
        const size_t hits = batch::ProbeBloom(
            sketch->bloom, keys->hashes.data(), lhs_size, hit.data());
        if (hits < lhs_size) {
          static obs::Counter* const refutes = SketchRefutes("bloom_column");
          refutes->Add(1);
          return false;
        }
        static obs::Counter* const fallbacks = SketchFallbacks("column");
        fallbacks->Add(1);
      }
    }
    // Paged rhs: probe every lhs dictionary value against the on-disk key
    // index instead of materializing the rhs dictionary as a set.
    std::shared_ptr<const PagedKeyIndex> index = BuildSideKeyIndex(*rhs_cache, rc);
    if (index != nullptr) {
      const EncodedTable& rhs_encoded = rhs_cache->encoded();
      if (index->exact() && lhs_encoded.column_typed(lc) &&
          lhs_encoded.declared_type(lc) == DataType::kInt64) {
        std::shared_ptr<const DictionaryKeys> keys = lhs_cache->DictKeys(lc);
        for (uint64_t key : keys->int64_keys) {
          if (!index->ContainsKey(key)) return false;
        }
        return true;
      }
      bool included = true;
      CheckStream(lhs_encoded.ForEachDictValue(
          lc, [&](uint32_t, const Value& value) {
            if (included &&
                !IndexContains(rhs_encoded, rc, *index, value)) {
              included = false;
            }
          }));
      return included;
    }
    if (lhs_encoded.column_typed(lc) &&
        lhs_encoded.declared_type(lc) == DataType::kInt64) {
      std::shared_ptr<const FlatSet64> rhs_ints = rhs_cache->Int64DictionarySet(rc);
      if (rhs_ints != nullptr) {
        std::shared_ptr<const DictionaryKeys> keys = lhs_cache->DictKeys(lc);
        std::vector<uint8_t> hit(lhs_size);
        return batch::ProbeSet(*rhs_ints, keys->int64_keys.data(), lhs_size,
                               hit.data()) == lhs_size;
      }
    }
    std::shared_ptr<const ValueSet> rhs_values = rhs_cache->DictionarySet(rc);
    if (lhs_encoded.dict_resident(lc)) {
      for (uint32_t code = 0; code < lhs_size; ++code) {
        if (!rhs_values->contains(lhs_encoded.Decode(lc, code))) {
          return false;
        }
      }
      return true;
    }
    bool included = true;
    CheckStream(lhs_encoded.ForEachDictValue(
        lc, [&](uint32_t, const Value& value) {
          if (included && !rhs_values->contains(value)) included = false;
        }));
    return included;
  }
  // Multi-attribute: probe the lhs representatives against the rhs
  // projection — its Bloom first when the exact set is not materialized
  // yet (one miss refutes the whole inclusion), decoded rows second.
  std::shared_ptr<const CodePartition> lhs_part =
      lhs_cache->Partition(lhs_indexes, NullPolicy::kSkipNullRows);
  if (lhs_part->num_groups() == 0) return true;
  if (SketchesEnabled()) {
    if (lhs_part->num_groups() > rhs_cache->DistinctCount(rhs_indexes)) {
      static obs::Counter* const refutes = SketchRefutes("cardinality");
      refutes->Add(1);
      return false;
    }
    if (!rhs_cache->HasDistinctProjection(rhs_indexes)) {
      std::vector<uint64_t> lhs_hashes =
          RepresentativeHashes(*lhs_cache, lhs_indexes, *lhs_part);
      std::shared_ptr<const ProjectionSketch> sketch =
          rhs_cache->ProjectionSketchFor(rhs_indexes);
      std::vector<uint8_t> hit(lhs_hashes.size());
      const size_t hits = batch::ProbeBloom(
          sketch->bloom, lhs_hashes.data(), lhs_hashes.size(), hit.data());
      if (hits < lhs_hashes.size()) {
        static obs::Counter* const refutes = SketchRefutes("bloom_projection");
        refutes->Add(1);
        return false;
      }
      static obs::Counter* const fallbacks = SketchFallbacks("projection");
      fallbacks->Add(1);
    }
  }
  std::shared_ptr<const ValueVectorSet> rhs_values =
      rhs_cache->DistinctProjection(rhs_indexes);
  EncodedTable::RowReader reader =
      lhs_cache->encoded().row_reader(lhs_indexes);
  ValueVector sub_row;
  for (uint32_t rep : lhs_part->representative) {
    reader.Read(rep, &sub_row);
    if (!rhs_values->contains(sub_row)) return false;
  }
  return true;
}

Result<size_t> IntersectionSize(const Database& database,
                                const EquiJoin& join) {
  DBRE_ASSIGN_OR_RETURN(JoinCounts counts, ComputeJoinCounts(database, join));
  return counts.n_join;
}

Result<bool> FunctionalDependencyHolds(const Table& table,
                                       const AttributeSet& lhs,
                                       const AttributeSet& rhs) {
  if (lhs.empty() || rhs.empty()) {
    return InvalidArgumentError("FD check with empty side");
  }
  DBRE_ASSIGN_OR_RETURN(std::vector<size_t> lhs_indexes,
                        table.ProjectionIndexes(lhs));
  DBRE_ASSIGN_OR_RETURN(std::vector<size_t> rhs_indexes,
                        table.ProjectionIndexes(rhs));
  DBRE_ASSIGN_OR_RETURN(std::shared_ptr<QueryCache> cache,
                        table.query_cache());
  return cache->FdHolds(lhs_indexes, rhs_indexes);
}

Result<double> FunctionalDependencyError(const Table& table,
                                         const AttributeSet& lhs,
                                         const AttributeSet& rhs) {
  if (lhs.empty() || rhs.empty()) {
    return InvalidArgumentError("FD error with empty side");
  }
  DBRE_ASSIGN_OR_RETURN(std::vector<size_t> lhs_indexes,
                        table.ProjectionIndexes(lhs));
  DBRE_ASSIGN_OR_RETURN(std::vector<size_t> rhs_indexes,
                        table.ProjectionIndexes(rhs));
  DBRE_ASSIGN_OR_RETURN(std::shared_ptr<QueryCache> cache,
                        table.query_cache());
  return cache->FdError(lhs_indexes, rhs_indexes);
}

namespace naive {

Result<ValueVectorSet> OrderedDistinctProjection(
    const Table& table, const std::vector<std::string>& attributes) {
  DBRE_ASSIGN_OR_RETURN(std::vector<size_t> indexes,
                        OrderedProjectionIndexes(table, attributes));
  ValueVectorSet distinct;
  distinct.reserve(table.num_rows());
  DBRE_RETURN_IF_ERROR(table.ForEachRow([&](const ValueVector& row) {
    ValueVector projected = Table::ProjectRow(row, indexes);
    if (!HasNull(projected)) distinct.insert(std::move(projected));
  }));
  return distinct;
}

Result<JoinCounts> ComputeJoinCounts(const Database& database,
                                     const EquiJoin& join) {
  DBRE_RETURN_IF_ERROR(join.Validate());
  DBRE_ASSIGN_OR_RETURN(const Table* left,
                        database.GetTable(join.left_relation));
  DBRE_ASSIGN_OR_RETURN(const Table* right,
                        database.GetTable(join.right_relation));
  DBRE_ASSIGN_OR_RETURN(
      ValueVectorSet left_values,
      naive::OrderedDistinctProjection(*left, join.left_attributes));
  DBRE_ASSIGN_OR_RETURN(
      ValueVectorSet right_values,
      naive::OrderedDistinctProjection(*right, join.right_attributes));

  JoinCounts counts;
  counts.n_left = left_values.size();
  counts.n_right = right_values.size();
  const ValueVectorSet& probe =
      left_values.size() <= right_values.size() ? left_values : right_values;
  const ValueVectorSet& build =
      left_values.size() <= right_values.size() ? right_values : left_values;
  for (const ValueVector& row : probe) {
    if (build.contains(row)) ++counts.n_join;
  }
  return counts;
}

Result<bool> InclusionHolds(const Database& database,
                            const std::string& lhs_relation,
                            const std::vector<std::string>& lhs_attributes,
                            const std::string& rhs_relation,
                            const std::vector<std::string>& rhs_attributes) {
  if (lhs_attributes.size() != rhs_attributes.size()) {
    return InvalidArgumentError(
        "inclusion test with mismatched attribute arity");
  }
  DBRE_ASSIGN_OR_RETURN(const Table* lhs, database.GetTable(lhs_relation));
  DBRE_ASSIGN_OR_RETURN(const Table* rhs, database.GetTable(rhs_relation));
  DBRE_ASSIGN_OR_RETURN(
      ValueVectorSet rhs_values,
      naive::OrderedDistinctProjection(*rhs, rhs_attributes));
  DBRE_ASSIGN_OR_RETURN(std::vector<size_t> lhs_indexes,
                        OrderedProjectionIndexes(*lhs, lhs_attributes));
  bool included = true;
  DBRE_RETURN_IF_ERROR(lhs->ForEachRow([&](const ValueVector& row) {
    ValueVector projected = Table::ProjectRow(row, lhs_indexes);
    if (!HasNull(projected) && !rhs_values.contains(projected)) {
      included = false;
    }
  }));
  return included;
}

Result<bool> FunctionalDependencyHolds(const Table& table,
                                       const AttributeSet& lhs,
                                       const AttributeSet& rhs) {
  if (lhs.empty() || rhs.empty()) {
    return InvalidArgumentError("FD check with empty side");
  }
  DBRE_ASSIGN_OR_RETURN(std::vector<size_t> lhs_indexes,
                        table.ProjectionIndexes(lhs));
  DBRE_ASSIGN_OR_RETURN(std::vector<size_t> rhs_indexes,
                        table.ProjectionIndexes(rhs));
  std::unordered_map<ValueVector, ValueVector, ValueVectorHash> witness;
  witness.reserve(table.num_rows());
  bool holds = true;
  DBRE_RETURN_IF_ERROR(table.ForEachRow([&](const ValueVector& row) {
    ValueVector key = Table::ProjectRow(row, lhs_indexes);
    if (HasNull(key)) return;
    ValueVector dependent = Table::ProjectRow(row, rhs_indexes);
    auto [it, inserted] = witness.try_emplace(std::move(key), dependent);
    if (!inserted && it->second != dependent) holds = false;
  }));
  return holds;
}

Result<double> FunctionalDependencyError(const Table& table,
                                         const AttributeSet& lhs,
                                         const AttributeSet& rhs) {
  if (lhs.empty() || rhs.empty()) {
    return InvalidArgumentError("FD error with empty side");
  }
  DBRE_ASSIGN_OR_RETURN(std::vector<size_t> lhs_indexes,
                        table.ProjectionIndexes(lhs));
  DBRE_ASSIGN_OR_RETURN(std::vector<size_t> rhs_indexes,
                        table.ProjectionIndexes(rhs));
  // group key → (rhs value → count)
  std::unordered_map<ValueVector,
                     std::unordered_map<ValueVector, size_t,
                                        ValueVectorHash>,
                     ValueVectorHash>
      groups;
  size_t total = 0;
  DBRE_RETURN_IF_ERROR(table.ForEachRow([&](const ValueVector& row) {
    ValueVector key = Table::ProjectRow(row, lhs_indexes);
    if (HasNull(key)) return;
    ++total;
    ++groups[std::move(key)][Table::ProjectRow(row, rhs_indexes)];
  }));
  if (total == 0) return 0.0;
  size_t kept = 0;
  for (const auto& [key, counts] : groups) {
    size_t best = 0;
    for (const auto& [value, count] : counts) best = std::max(best, count);
    kept += best;
  }
  return static_cast<double>(total - kept) / static_cast<double>(total);
}

}  // namespace naive

}  // namespace dbre
