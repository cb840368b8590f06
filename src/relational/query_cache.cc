#include "relational/query_cache.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <numeric>
#include <unordered_map>

#include "obs/metrics.h"
#include "relational/column_batch.h"

namespace dbre {
namespace {

// Dictionary streams run after the paged source verified clean at open; a
// failure here is a real environment fault and the memoizing entry points
// have no error channel (see the contract in relational/paged_source.h).
void CheckDictStream(const Status& status) {
  if (status.ok()) return;
  std::fprintf(stderr,
               "dbre: unrecoverable paged dictionary stream failure: %s\n",
               status.ToString().c_str());
  std::abort();
}

// Hit/miss counter pair for one memoized result kind. Call sites hold the
// pair in a function-local static so the hot path is two relaxed atomics,
// no registry lookup.
struct HitMiss {
  obs::Counter* hits;
  obs::Counter* misses;
  void Count(bool hit) const { (hit ? hits : misses)->Add(1); }
};

HitMiss CacheCounters(const char* kind) {
  obs::Registry& registry = obs::Registry::Default();
  return {registry.GetCounter(
              "dbre_query_cache_hits_total", {{"kind", kind}},
              "Query-cache lookups served from a memoized result"),
          registry.GetCounter(
              "dbre_query_cache_misses_total", {{"kind", kind}},
              "Query-cache lookups that had to build their result")};
}

// Open-addressing group table over precomputed 64-bit row hashes; slot
// collisions fall back to comparing against the group's representative
// code tuple. Fixed capacity (at most one group per row), linear probing,
// no rehash — the multi-column partition builder's replacement for a
// node-based unordered_map, fed batch-at-a-time with the hashes computed
// by the vectorized kernels. Storing groups rather than rows keeps probes
// away from the code columns entirely, so the builder streams pages in
// paged mode without random re-reads.
class GroupTable {
 public:
  explicit GroupTable(size_t expected) {
    int bits = flat_hash_internal::CapacityBits(expected);
    shift_ = 64 - bits;
    mask_ = (size_t{1} << bits) - 1;
    slot_group_.assign(size_t{1} << bits, kEmpty);
  }

  void Prefetch(uint64_t hash) const {
    __builtin_prefetch(slot_group_.data() + Start(hash));
  }

  // Group whose representative codes equal the current row's (per `same`),
  // inserting `fresh` if unseen. `same(group)` compares the current row's
  // projected codes against `group`'s representative tuple.
  template <typename SameGroup>
  uint32_t FindOrInsert(uint64_t hash, uint32_t fresh,
                        const SameGroup& same) {
    size_t i = Start(hash);
    while (slot_group_[i] != kEmpty) {
      if (same(slot_group_[i])) return slot_group_[i];
      i = (i + 1) & mask_;
    }
    slot_group_[i] = fresh;
    return fresh;
  }

 private:
  // Group ids are at most the row count, which Table::Insert (and the
  // snapshot loaders) cap below kNullCode == UINT32_MAX, so the sentinel
  // never collides.
  static constexpr uint32_t kEmpty = UINT32_MAX;

  size_t Start(uint64_t hash) const {
    return (hash * flat_hash_internal::kMultiplier) >> shift_;
  }

  int shift_;
  size_t mask_;
  std::vector<uint32_t> slot_group_;
};

}  // namespace

QueryCache::Memos QueryCache::MemosAvoiding(
    const std::vector<size_t>& rewritten) {
  const auto avoids = [&rewritten](const std::vector<size_t>& columns) {
    return std::none_of(columns.begin(), columns.end(), [&](size_t c) {
      return std::binary_search(rewritten.begin(), rewritten.end(), c);
    });
  };
  const auto copy = [](const auto& from, auto* to, const auto& keep) {
    for (const auto& entry : from) {
      if (keep(entry.first)) to->insert(entry);
    }
  };
  const auto one = [&](size_t c) { return avoids({c}); };
  const auto fd = [&](const FdKey& key) {
    return avoids(key.first) && avoids(key.second);
  };
  std::lock_guard<std::mutex> lock(mutex_);
  Memos kept;
  copy(memos_.partitions, &kept.partitions,
       [&](const PartitionKey& key) { return avoids(key.first); });
  copy(memos_.distinct_sets, &kept.distinct_sets, avoids);
  copy(memos_.dictionary_sets, &kept.dictionary_sets, one);
  copy(memos_.int64_dictionary_sets, &kept.int64_dictionary_sets, one);
  copy(memos_.dictionary_keys, &kept.dictionary_keys, one);
  copy(memos_.column_sketches, &kept.column_sketches, one);
  copy(memos_.projection_sketches, &kept.projection_sketches, avoids);
  copy(memos_.fd_verdicts, &kept.fd_verdicts, fd);
  copy(memos_.fd_errors, &kept.fd_errors, fd);
  return kept;
}

std::shared_ptr<const CodePartition> QueryCache::BuildPartition(
    const std::vector<size_t>& columns, NullPolicy policy) const {
  auto partition = std::make_shared<CodePartition>();
  const size_t num_rows = encoded_.num_rows();
  partition->group_of_row.assign(num_rows, CodePartition::kSkipped);

  if (columns.size() == 1) {
    // Single column: codes already are dense group ids; under kNullAsValue
    // the NULL rows — if any — form one extra group appended after the
    // dictionary.
    EncodedTable::CodeReader reader = encoded_.codes_reader(columns[0]);
    const uint32_t dict_size =
        static_cast<uint32_t>(encoded_.dict_size(columns[0]));
    const bool nulls_group = policy == NullPolicy::kNullAsValue &&
                             encoded_.has_null(columns[0]);
    partition->representative.assign(dict_size + (nulls_group ? 1 : 0),
                                     CodePartition::kSkipped);
    batch::BatchIterator single_batches(num_rows);
    size_t start = 0;
    size_t count = 0;
    while (single_batches.Next(&start, &count)) {
      const uint32_t* codes = reader.Fetch(start, count);
      for (size_t i = 0; i < count; ++i) {
        uint32_t code = codes[i];
        if (code == EncodedTable::kNullCode) {
          if (!nulls_group) continue;
          code = dict_size;
        }
        const size_t row = start + i;
        partition->group_of_row[row] = code;
        ++partition->included_rows;
        if (partition->representative[code] == CodePartition::kSkipped) {
          partition->representative[code] = static_cast<uint32_t>(row);
        }
      }
    }
    return partition;
  }

  // Multi-column: hash each row's code tuple batch-at-a-time (vectorized
  // kernels over the flat code batches), then group through an open-
  // addressing table. Rows insert in row order, so group ids keep the
  // first-appearance numbering the deterministic paths rely on. Collision
  // probes compare against `rep_codes` — each group's representative tuple,
  // captured at insertion — so grouping never re-reads earlier rows and the
  // code columns stream strictly forward (one pass over each page in paged
  // mode).
  const size_t width = columns.size();
  std::vector<EncodedTable::CodeReader> readers;
  readers.reserve(width);
  for (size_t c : columns) readers.push_back(encoded_.codes_reader(c));
  std::vector<const uint32_t*> batch_codes(width);
  std::vector<uint32_t> rep_codes;  // width entries per group
  size_t cur = 0;                   // batch-local index being grouped
  const auto same_group = [&](uint32_t group) {
    const uint32_t* rep = rep_codes.data() + size_t{group} * width;
    for (size_t k = 0; k < width; ++k) {
      if (rep[k] != batch_codes[k][cur]) return false;
    }
    return true;
  };

  GroupTable groups(num_rows);
  uint64_t hashes[batch::kBatchSize];
  uint8_t valid[batch::kBatchSize];
  batch::BatchIterator batches(num_rows);
  size_t start = 0;
  size_t count = 0;
  while (batches.Next(&start, &count)) {
    for (size_t k = 0; k < width; ++k) {
      batch_codes[k] = readers[k].Fetch(start, count);
    }
    for (size_t i = 0; i < count; ++i) hashes[i] = kRowHashSeed;
    for (size_t i = 0; i < count; ++i) valid[i] = 1;
    for (size_t k = 0; k < width; ++k) {
      const uint32_t* c = batch_codes[k];
      for (size_t i = 0; i < count; ++i) {
        hashes[i] = SketchHashCombine(hashes[i], c[i]);
        valid[i] &= c[i] != EncodedTable::kNullCode ? 1 : 0;
      }
    }
    const bool skip_nulls = policy == NullPolicy::kSkipNullRows;
    for (size_t i = 0; i < count; ++i) {
      if (skip_nulls && !valid[i]) continue;
      groups.Prefetch(hashes[i]);
    }
    for (size_t i = 0; i < count; ++i) {
      if (skip_nulls && !valid[i]) continue;
      cur = i;
      const uint32_t row = static_cast<uint32_t>(start + i);
      const uint32_t fresh =
          static_cast<uint32_t>(partition->representative.size());
      const uint32_t group = groups.FindOrInsert(hashes[i], fresh, same_group);
      if (group == fresh) {
        partition->representative.push_back(row);
        for (size_t k = 0; k < width; ++k) {
          rep_codes.push_back(batch_codes[k][i]);
        }
      }
      partition->group_of_row[row] = group;
      ++partition->included_rows;
    }
    batch::AddKernelRows(batch::Kernel::kPartition, count);
  }
  return partition;
}

void QueryCache::EnsureColumnsLocked(const std::vector<size_t>& columns) {
  for (size_t c : columns) encoded_.EnsureColumn(c);
}

void QueryCache::EnsureEncoded(const std::vector<size_t>& columns) {
  std::lock_guard<std::mutex> lock(mutex_);
  EnsureColumnsLocked(columns);
}

EncodedTable::RowReader QueryCache::ReadRows(std::vector<size_t> columns) {
  if (columns.empty()) {
    columns.resize(encoded_.num_columns());
    std::iota(columns.begin(), columns.end(), size_t{0});
  }
  EnsureEncoded(columns);
  return encoded_.row_reader(std::move(columns));
}

bool QueryCache::ColumnHasNull(size_t column) {
  std::lock_guard<std::mutex> lock(mutex_);
  encoded_.EnsureColumn(column);
  return encoded_.has_null(column);
}

std::shared_ptr<const ValueSet> QueryCache::DictionarySet(size_t column) {
  static const HitMiss counters = CacheCounters("dictionary_set");
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = memos_.dictionary_sets.find(column);
  counters.Count(it != memos_.dictionary_sets.end());
  if (it != memos_.dictionary_sets.end()) return it->second;
  encoded_.EnsureColumn(column);
  auto set = std::make_shared<ValueSet>();
  set->reserve(encoded_.dict_size(column));
  CheckDictStream(encoded_.ForEachDictValue(
      column, [&set](uint32_t, const Value& value) { set->insert(value); }));
  memos_.dictionary_sets.emplace(column, set);
  return set;
}

std::shared_ptr<const FlatSet64> QueryCache::Int64DictionarySet(
    size_t column) {
  static const HitMiss counters = CacheCounters("int64_dictionary_set");
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = memos_.int64_dictionary_sets.find(column);
  counters.Count(it != memos_.int64_dictionary_sets.end());
  if (it != memos_.int64_dictionary_sets.end()) return it->second;
  encoded_.EnsureColumn(column);
  if (encoded_.declared_type(column) != DataType::kInt64 ||
      !encoded_.column_typed(column)) {
    return nullptr;
  }
  auto set = std::make_shared<FlatSet64>(encoded_.dict_size(column));
  CheckDictStream(encoded_.ForEachDictValue(
      column, [&set](uint32_t, const Value& value) {
        set->Insert(static_cast<uint64_t>(value.as_int()));
      }));
  memos_.int64_dictionary_sets.emplace(column, set);
  return set;
}

std::shared_ptr<const CodePartition> QueryCache::Partition(
    const std::vector<size_t>& columns, NullPolicy policy) {
  static const HitMiss counters = CacheCounters("partition");
  PartitionKey key(columns, static_cast<int>(policy));
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = memos_.partitions.find(key);
  counters.Count(it != memos_.partitions.end());
  if (it != memos_.partitions.end()) return it->second;
  EnsureColumnsLocked(columns);
  std::shared_ptr<const CodePartition> partition =
      BuildPartition(columns, policy);
  memos_.partitions.emplace(std::move(key), partition);
  return partition;
}

size_t QueryCache::DistinctCount(const std::vector<size_t>& columns) {
  if (columns.size() == 1) {
    std::lock_guard<std::mutex> lock(mutex_);
    encoded_.EnsureColumn(columns[0]);
    return encoded_.dict_size(columns[0]);
  }
  return Partition(columns, NullPolicy::kSkipNullRows)->num_groups();
}

std::shared_ptr<const ValueVectorSet> QueryCache::DistinctProjection(
    const std::vector<size_t>& columns) {
  static const HitMiss counters = CacheCounters("distinct_projection");
  std::shared_ptr<const CodePartition> partition =
      Partition(columns, NullPolicy::kSkipNullRows);
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = memos_.distinct_sets.find(columns);
  counters.Count(it != memos_.distinct_sets.end());
  if (it != memos_.distinct_sets.end()) return it->second;
  auto set = std::make_shared<ValueVectorSet>();
  set->reserve(partition->num_groups());
  EncodedTable::RowReader reader =
      encoded_.row_reader(std::vector<size_t>(columns));
  ValueVector sub_row;
  for (uint32_t row : partition->representative) {
    reader.Read(row, &sub_row);
    set->insert(std::move(sub_row));
  }
  memos_.distinct_sets.emplace(columns, set);
  return set;
}

bool QueryCache::FdHolds(const std::vector<size_t>& lhs_columns,
                         const std::vector<size_t>& rhs_columns) {
  static const HitMiss counters = CacheCounters("fd_holds");
  const FdKey key(lhs_columns, rhs_columns);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = memos_.fd_verdicts.find(key);
    counters.Count(it != memos_.fd_verdicts.end());
    if (it != memos_.fd_verdicts.end()) return it->second;
  }
  const bool verdict = ComputeFdHolds(lhs_columns, rhs_columns);
  std::lock_guard<std::mutex> lock(mutex_);
  memos_.fd_verdicts.emplace(key, verdict);
  return verdict;
}

bool QueryCache::ComputeFdHolds(const std::vector<size_t>& lhs_columns,
                                const std::vector<size_t>& rhs_columns) {
  std::shared_ptr<const CodePartition> lhs =
      Partition(lhs_columns, NullPolicy::kSkipNullRows);
  std::shared_ptr<const CodePartition> rhs =
      Partition(rhs_columns, NullPolicy::kNullAsValue);
  if (SketchesEnabled()) {
    // Exact distinct-count prunes over the memoized partition sizes; each
    // one is a proof, so the refinement pass below is skipped, not
    // approximated. (Gated only so the crosscheck tests can A/B the
    // routes; results are identical either way.)
    obs::Registry& registry = obs::Registry::Default();
    if (lhs->num_groups() == lhs->included_rows) {
      // Every LHS class is a singleton — nothing can disagree.
      static obs::Counter* const accepts = registry.GetCounter(
          "dbre_fd_fast_accepts_total", {{"kind", "unique_lhs"}},
          "FD checks accepted by exact distinct-count pruning");
      accepts->Add(1);
      return true;
    }
    if (rhs->num_groups() <= 1) {
      // A single RHS class can never split an LHS class.
      static obs::Counter* const accepts = registry.GetCounter(
          "dbre_fd_fast_accepts_total", {{"kind", "constant_rhs"}},
          "FD checks accepted by exact distinct-count pruning");
      accepts->Add(1);
      return true;
    }
    if (lhs->included_rows == encoded_.num_rows() &&
        rhs->num_groups() > lhs->num_groups()) {
      // With every row included on the left, π_{X∪A} refines both sides,
      // so |π_{X∪A}| ≥ |π_A| > |π_X| forces a split somewhere.
      static obs::Counter* const refutes = registry.GetCounter(
          "dbre_sketch_refutes_total", {{"kind", "fd_distinct"}},
          "Candidates refuted by a provable sketch/count pre-pass");
      refutes->Add(1);
      return false;
    }
  }
  // X → A holds iff every X-group maps into a single A-group, i.e.
  // |π_X| == |π_{X∪A}| over the non-NULL-X rows.
  constexpr uint32_t kUnseen = UINT32_MAX;
  std::vector<uint32_t> witness(lhs->num_groups(), kUnseen);
  const size_t num_rows = encoded_.num_rows();
  const uint32_t* lhs_groups = lhs->group_of_row.data();
  const uint32_t* rhs_groups = rhs->group_of_row.data();
  batch::BatchIterator batches(num_rows);
  size_t start = 0;
  size_t count = 0;
  while (batches.Next(&start, &count)) {
    // Per batch: detect a split branch-light, then locate it only if one
    // exists (the common all-consistent batch takes the flat path).
    uint32_t split = 0;
    for (size_t i = start; i < start + count; ++i) {
      uint32_t g = lhs_groups[i];
      if (g == CodePartition::kSkipped) continue;
      uint32_t r = rhs_groups[i];
      uint32_t& w = witness[g];
      w = w == kUnseen ? r : w;
      split |= w ^ r;
    }
    batch::AddKernelRows(batch::Kernel::kPartition, count);
    if (split != 0) return false;
  }
  return true;
}

double QueryCache::FdError(const std::vector<size_t>& lhs_columns,
                           const std::vector<size_t>& rhs_columns) {
  static const HitMiss counters = CacheCounters("fd_error");
  const FdKey key(lhs_columns, rhs_columns);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = memos_.fd_errors.find(key);
    counters.Count(it != memos_.fd_errors.end());
    if (it != memos_.fd_errors.end()) return it->second;
  }
  const double error = ComputeFdError(lhs_columns, rhs_columns);
  std::lock_guard<std::mutex> lock(mutex_);
  memos_.fd_errors.emplace(key, error);
  return error;
}

double QueryCache::ComputeFdError(const std::vector<size_t>& lhs_columns,
                                  const std::vector<size_t>& rhs_columns) {
  std::shared_ptr<const CodePartition> lhs =
      Partition(lhs_columns, NullPolicy::kSkipNullRows);
  std::shared_ptr<const CodePartition> rhs =
      Partition(rhs_columns, NullPolicy::kNullAsValue);
  if (lhs->included_rows == 0) return 0.0;
  // Count each (X-group, A-group) pair through a flat map (pair key →
  // dense index into a count array), then keep the plurality A-group of
  // every X-group.
  const size_t num_rows = encoded_.num_rows();
  FlatMap64 pair_index(lhs->included_rows);
  std::vector<uint32_t> pair_group;
  std::vector<size_t> pair_count;
  const uint32_t* lhs_groups = lhs->group_of_row.data();
  const uint32_t* rhs_groups = rhs->group_of_row.data();
  for (size_t i = 0; i < num_rows; ++i) {
    uint32_t g = lhs_groups[i];
    if (g == CodePartition::kSkipped) continue;
    const uint64_t key = (static_cast<uint64_t>(g) << 32) | rhs_groups[i];
    const uint32_t fresh = static_cast<uint32_t>(pair_count.size());
    const uint32_t index = pair_index.FindOrInsert(key, fresh);
    if (index == fresh) {
      pair_group.push_back(g);
      pair_count.push_back(0);
    }
    ++pair_count[index];
  }
  batch::AddKernelRows(batch::Kernel::kPartition, num_rows);
  std::vector<size_t> best(lhs->num_groups(), 0);
  for (size_t p = 0; p < pair_count.size(); ++p) {
    if (pair_count[p] > best[pair_group[p]]) best[pair_group[p]] = pair_count[p];
  }
  size_t kept = 0;
  for (size_t b : best) kept += b;
  return static_cast<double>(lhs->included_rows - kept) /
         static_cast<double>(lhs->included_rows);
}

std::shared_ptr<const DictionaryKeys> QueryCache::DictKeys(size_t column) {
  static const HitMiss counters = CacheCounters("dict_keys");
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = memos_.dictionary_keys.find(column);
  counters.Count(it != memos_.dictionary_keys.end());
  if (it != memos_.dictionary_keys.end()) return it->second;
  encoded_.EnsureColumn(column);
  auto keys = std::make_shared<DictionaryKeys>();
  const size_t dict_size = encoded_.dict_size(column);
  keys->hashes.reserve(dict_size);
  const bool int64_typed = encoded_.column_typed(column) &&
                           encoded_.declared_type(column) == DataType::kInt64;
  if (int64_typed) keys->int64_keys.reserve(dict_size);
  CheckDictStream(encoded_.ForEachDictValue(
      column, [&keys, int64_typed](uint32_t, const Value& value) {
        keys->hashes.push_back(SketchHash(value));
        if (int64_typed) {
          keys->int64_keys.push_back(static_cast<uint64_t>(value.as_int()));
        }
      }));
  memos_.dictionary_keys.emplace(column, keys);
  return keys;
}

std::shared_ptr<const ColumnSketch> QueryCache::ColumnSketchFor(
    size_t column) {
  static const HitMiss counters = CacheCounters("column_sketch");
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = memos_.column_sketches.find(column);
    counters.Count(it != memos_.column_sketches.end());
    if (it != memos_.column_sketches.end()) return it->second;
  }
  // Build outside the lock from the (memoized) flat keys, then publish.
  std::shared_ptr<const DictionaryKeys> keys = DictKeys(column);
  auto sketch = std::make_shared<ColumnSketch>(keys->hashes.size());
  for (uint64_t h : keys->hashes) {
    sketch->bloom.AddHash(h);
    sketch->hll.AddHash(h);
  }
  std::lock_guard<std::mutex> lock(mutex_);
  return memos_.column_sketches.emplace(column, std::move(sketch))
      .first->second;
}

std::shared_ptr<const ColumnSketch> QueryCache::MaybeColumnSketch(
    size_t column) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = memos_.column_sketches.find(column);
  return it != memos_.column_sketches.end() ? it->second : nullptr;
}

std::shared_ptr<const ProjectionSketch> QueryCache::ProjectionSketchFor(
    const std::vector<size_t>& columns) {
  static const HitMiss counters = CacheCounters("projection_sketch");
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = memos_.projection_sketches.find(columns);
    counters.Count(it != memos_.projection_sketches.end());
    if (it != memos_.projection_sketches.end()) return it->second;
  }
  // Per-column value-hash tables make the row-hash pass decode-free.
  std::vector<std::shared_ptr<const DictionaryKeys>> keys;
  keys.reserve(columns.size());
  for (size_t c : columns) keys.push_back(DictKeys(c));

  std::lock_guard<std::mutex> lock(mutex_);
  auto it = memos_.projection_sketches.find(columns);
  if (it != memos_.projection_sketches.end()) return it->second;
  const size_t num_rows = encoded_.num_rows();
  auto sketch = std::make_shared<ProjectionSketch>(num_rows);
  std::vector<EncodedTable::CodeReader> readers;
  readers.reserve(columns.size());
  for (size_t c : columns) readers.push_back(encoded_.codes_reader(c));

  uint64_t hashes[batch::kBatchSize];
  uint8_t valid[batch::kBatchSize];
  batch::BatchIterator batches(num_rows);
  size_t start = 0;
  size_t count = 0;
  while (batches.Next(&start, &count)) {
    for (size_t i = 0; i < count; ++i) hashes[i] = kRowHashSeed;
    for (size_t i = 0; i < count; ++i) valid[i] = 1;
    for (size_t k = 0; k < columns.size(); ++k) {
      const uint32_t* c = readers[k].Fetch(start, count);
      const uint64_t* value_hash = keys[k]->hashes.data();
      for (size_t i = 0; i < count; ++i) {
        const bool null_cell = c[i] == EncodedTable::kNullCode;
        hashes[i] =
            SketchHashCombine(hashes[i], null_cell ? 0 : value_hash[c[i]]);
        valid[i] &= null_cell ? 0 : 1;
      }
    }
    for (size_t i = 0; i < count; ++i) {
      if (!valid[i]) continue;
      sketch->bloom.AddHash(hashes[i]);
      sketch->hll.AddHash(hashes[i]);
    }
    batch::AddKernelRows(batch::Kernel::kPartition, count);
  }
  return memos_.projection_sketches.emplace(columns, std::move(sketch))
      .first->second;
}

bool QueryCache::HasDistinctProjection(const std::vector<size_t>& columns) {
  std::lock_guard<std::mutex> lock(mutex_);
  return memos_.distinct_sets.find(columns) != memos_.distinct_sets.end();
}

double QueryCache::EstimateDistinct(const std::vector<size_t>& columns) {
  if (columns.size() == 1) {
    std::lock_guard<std::mutex> lock(mutex_);
    encoded_.EnsureColumn(columns[0]);
    return static_cast<double>(encoded_.dict_size(columns[0]));
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    PartitionKey key(columns, static_cast<int>(NullPolicy::kSkipNullRows));
    auto it = memos_.partitions.find(key);
    if (it != memos_.partitions.end()) {
      return static_cast<double>(it->second->num_groups());
    }
  }
  return ProjectionSketchFor(columns)->hll.Estimate();
}

bool QueryCache::LookupJoinCounts(
    const std::shared_ptr<const QueryCache>& peer,
    const std::vector<size_t>& my_columns,
    const std::vector<size_t>& peer_columns, JoinCountsValue* out) {
  static const HitMiss counters = CacheCounters("join_counts");
  std::lock_guard<std::mutex> lock(mutex_);
  JoinMemoKey key(peer.get(), my_columns, peer_columns);
  auto it = join_memo_.find(key);
  if (it != join_memo_.end()) {
    // Guard against address reuse: the entry is valid only while the peer
    // cache object it was stored under is still alive at that address.
    if (it->second.peer.lock().get() == peer.get()) {
      counters.Count(true);
      *out = it->second.counts;
      return true;
    }
    join_memo_.erase(it);
  }
  counters.Count(false);
  return false;
}

void QueryCache::StoreJoinCounts(
    const std::shared_ptr<const QueryCache>& peer,
    const std::vector<size_t>& my_columns,
    const std::vector<size_t>& peer_columns, const JoinCountsValue& counts) {
  std::lock_guard<std::mutex> lock(mutex_);
  JoinMemoKey key(peer.get(), my_columns, peer_columns);
  join_memo_[key] = JoinMemoEntry{peer, counts};
}

}  // namespace dbre
