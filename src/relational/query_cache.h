// Memoized extension-query engine over a table's encoded columns.
//
// The elicitation pipeline valuates the same handful of projections over and
// over: IND-Discovery asks ‖r[A]‖ for every attribute list appearing in the
// workload, RHS-Discovery re-groups by the same LHS for every candidate
// dependent, and the miners walk overlapping attribute-set lattices. A
// `QueryCache` owns an `EncodedTable` view of the table's columns — shared,
// never copied — and memoizes, per `(column list, NULL policy)`:
//
//   * `CodePartition` — the grouping of rows by their projected code tuple
//     (TANE-style π_X, with singletons kept so |π_X| is exact);
//   * the decoded distinct projection as a `ValueVectorSet` (needed when two
//     tables' projections must be compared — codes are table-local).
//
// FD checks reroute through cached partitions: X → A holds iff refining the
// cached π_X (NULL-LHS rows skipped) by the cached π_A (NULLs grouped as
// values) splits no class — one flat O(rows) pass over two uint32 arrays,
// equivalently |π_X| == |π_{X∪A}|. The g3 error uses the same two arrays.
//
// Single-attribute projections — the bulk of what IND-Discovery asks — skip
// the grouping machinery entirely: the column's dictionary IS the distinct
// projection, so ‖r[A]‖ is its size and cross-table intersection probes one
// dictionary against the other's memoized `ValueSet` (see DictionarySet).
//
// Thread safety: all entry points may be called concurrently; a single
// internal mutex guards the memo tables and the lazy paged-dictionary
// loads (queries are per-projection, not per-row, so contention is
// negligible). Reading encoded() directly is safe only for columns passed
// through a locked ensure first (EnsureEncoded or any query over them).
// A cache never sees a mutation: a mutating Table drops its cache and
// builds a new one, carrying over the memos the mutation could not have
// changed (MemosAvoiding).
#ifndef DBRE_RELATIONAL_QUERY_CACHE_H_
#define DBRE_RELATIONAL_QUERY_CACHE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <tuple>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/flat_hash.h"
#include "common/status.h"
#include "relational/encoded_table.h"
#include "relational/sketch.h"
#include "relational/table.h"

namespace dbre {

// How a NULL inside a projected sub-row participates in grouping.
enum class NullPolicy {
  kSkipNullRows,  // rows with a NULL in the key are excluded (SQL
                  // count(distinct ...) / FD-LHS semantics)
  kNullAsValue,   // NULL is an ordinary group (partition / FD-RHS semantics)
};

// A set of single values, usable for dictionary inclusion / intersection.
using ValueSet = std::unordered_set<Value, ValueHash>;

// π_X over code columns. Group ids are dense and a pure function of the
// extension (multi-column partitions assign them in first-appearance row
// order; single-column partitions reuse the dictionary codes, with the NULL
// group — if any — appended last), so re-partitioning an identical
// extension is deterministic.
struct CodePartition {
  static constexpr uint32_t kSkipped = UINT32_MAX;

  std::vector<uint32_t> group_of_row;   // kSkipped for excluded rows
  std::vector<uint32_t> representative; // group id → first row in the group
  size_t included_rows = 0;             // rows with a valid group

  size_t num_groups() const { return representative.size(); }
};

// Flat probe keys for one column's dictionary, in code order — what the
// batched membership kernels consume instead of per-code Value decoding.
// `hashes` (SketchHash of each dictionary value) are always present and
// equality-compatible across tables. `int64_keys` additionally carries the
// raw values when the column is homogeneously int64, making key equality
// itself exact.
struct DictionaryKeys {
  std::vector<uint64_t> hashes;
  std::vector<uint64_t> int64_keys;  // empty unless typed int64
};

// Bloom + HLL over one column's distinct values. The Bloom side is built
// over exactly the dictionary's sketch hashes, so a miss *proves* a value
// absent from the column; the HLL side estimates are advisory.
struct ColumnSketch {
  BloomFilter bloom;
  HyperLogLog hll;
  explicit ColumnSketch(size_t expected_keys) : bloom(expected_keys) {}
};

// The same pair over a multi-column projection's NULL-free sub-rows,
// hashed with the canonical per-column SketchHash chain (order-sensitive,
// cross-table comparable).
struct ProjectionSketch {
  BloomFilter bloom;
  HyperLogLog hll;
  explicit ProjectionSketch(size_t expected_keys) : bloom(expected_keys) {}
};

// Seed of the multi-column row-hash chain (arbitrary odd constant; both
// sides of any cross-table comparison must start from it).
inline constexpr uint64_t kRowHashSeed = 14695981039346656037ull;

// The three exact valuations of one cross-table join, as memoized here
// (mirrors JoinCounts in algebra.h, which depends on this header).
struct JoinCountsValue {
  size_t n_left = 0;
  size_t n_right = 0;
  size_t n_join = 0;
};

class QueryCache {
  using PartitionKey = std::pair<std::vector<size_t>, int>;
  using FdKey = std::pair<std::vector<size_t>, std::vector<size_t>>;

 public:
  // Every memoized result, each a pure function of the extension and the
  // column lists in its key. The cross-table join memo is not part of it:
  // its keys are peer cache identities.
  struct Memos {
    std::map<PartitionKey, std::shared_ptr<const CodePartition>> partitions;
    std::map<std::vector<size_t>, std::shared_ptr<const ValueVectorSet>>
        distinct_sets;
    std::map<size_t, std::shared_ptr<const ValueSet>> dictionary_sets;
    std::map<size_t, std::shared_ptr<const FlatSet64>> int64_dictionary_sets;
    std::map<size_t, std::shared_ptr<const DictionaryKeys>> dictionary_keys;
    std::map<size_t, std::shared_ptr<const ColumnSketch>> column_sketches;
    std::map<std::vector<size_t>, std::shared_ptr<const ProjectionSketch>>
        projection_sketches;
    // FD verdicts are pure functions of the extension and the two column
    // lists (sketch gating changes the route, never the answer), so reruns
    // skip the O(rows) refinement pass entirely.
    std::map<FdKey, bool> fd_verdicts;
    std::map<FdKey, double> fd_errors;
  };

  explicit QueryCache(EncodedTable encoded, Memos memos = {})
      : encoded_(std::move(encoded)), memos_(std::move(memos)) {}

  QueryCache(const QueryCache&) = delete;
  QueryCache& operator=(const QueryCache&) = delete;

  // The memos whose every column lies outside `rewritten` (sorted schema
  // indexes), shared, not copied. An in-place UPDATE keeps the row count
  // and every other column's codes, so these answers are still exact for
  // the mutated extension — the carry-over rule the table_mutation and
  // incremental suites prove byte-identical to a cold build.
  Memos MemosAvoiding(const std::vector<size_t>& rewritten);

  // Readable for any column that has gone through a locked ensure (below).
  const EncodedTable& encoded() const { return encoded_; }

  // Prepares `columns` (loads small paged dictionaries), after which
  // encoded()'s code arrays and dictionaries for them may be read directly.
  void EnsureEncoded(const std::vector<size_t>& columns);

  // A reader decoding rows projected on `columns` (every column when
  // empty), prepared first — the one row path of both residencies.
  EncodedTable::RowReader ReadRows(std::vector<size_t> columns = {});

  // Whether column `column` holds any NULL cell.
  bool ColumnHasNull(size_t column);

  // The distinct non-NULL values of one column as a memoized shared set —
  // the decoded dictionary. Cross-table single-attribute primitives probe
  // the smaller side's dictionary against the larger side's set.
  std::shared_ptr<const ValueSet> DictionarySet(size_t column);

  // Flat-integer variant of DictionarySet for homogeneous int64 columns —
  // nullptr if `column` is not declared int64 or holds a mismatched tag
  // (callers then fall back to the Value-based set).
  std::shared_ptr<const FlatSet64> Int64DictionarySet(size_t column);

  // Memoized π over `columns` (indexes into the schema; order matters only
  // for decoding, not for grouping — callers pass their query's order).
  std::shared_ptr<const CodePartition> Partition(
      const std::vector<size_t>& columns, NullPolicy policy);

  // ‖r[columns]‖ — distinct non-NULL sub-row count. Single columns read
  // their dictionary size; no partition is built.
  size_t DistinctCount(const std::vector<size_t>& columns);

  // Decoded distinct projection (NULL-skipping), memoized and shared so the
  // join primitives probe it without copying.
  std::shared_ptr<const ValueVectorSet> DistinctProjection(
      const std::vector<size_t>& columns);

  // Whether lhs → rhs holds: rows with NULL in `lhs_columns` are skipped,
  // NULLs in `rhs_columns` compare like ordinary values (the semantics of
  // FunctionalDependencyHolds in algebra.h). Before the O(rows) refinement
  // pass, two exact distinct-count prunes run over the memoized partition
  // sizes: all-singleton LHS ⇒ holds; NULL-free LHS with more RHS than LHS
  // classes ⇒ fails (each is a proof, never an estimate).
  bool FdHolds(const std::vector<size_t>& lhs_columns,
               const std::vector<size_t>& rhs_columns);

  // g3 error of lhs → rhs (see FunctionalDependencyError in algebra.h).
  double FdError(const std::vector<size_t>& lhs_columns,
                 const std::vector<size_t>& rhs_columns);

  // Flat dictionary probe keys of one column, memoized and shared.
  std::shared_ptr<const DictionaryKeys> DictKeys(size_t column);

  // Bloom+HLL over one column's dictionary: ColumnSketchFor builds and
  // memoizes; MaybeColumnSketch only returns an already-built sketch (a
  // one-shot probe is cheaper than a sketch build, so callers outside a
  // discovery sweep never trigger builds).
  std::shared_ptr<const ColumnSketch> ColumnSketchFor(size_t column);
  std::shared_ptr<const ColumnSketch> MaybeColumnSketch(size_t column);

  // Bloom+HLL over a projection's NULL-free sub-rows — one flat pass over
  // the code columns, no decoding, no partition build.
  std::shared_ptr<const ProjectionSketch> ProjectionSketchFor(
      const std::vector<size_t>& columns);

  // Whether DistinctProjection(columns) has already been materialized
  // (used to decide whether a sketch pre-pass is still worth anything).
  bool HasDistinctProjection(const std::vector<size_t>& columns);

  // ‖r[columns]‖, approximately: exact (dictionary size / memoized
  // partition) when already known, otherwise a memoized HLL estimate.
  // Never builds an exact partition; advisory only.
  double EstimateDistinct(const std::vector<size_t>& columns);

  // Memo for cross-table join counts (keyed by the peer cache's identity
  // and both ordered column lists). The stored weak_ptr guards against
  // address reuse after the peer table mutates: a lookup only hits when
  // the peer's cache object is still the one the entry was stored under.
  bool LookupJoinCounts(const std::shared_ptr<const QueryCache>& peer,
                        const std::vector<size_t>& my_columns,
                        const std::vector<size_t>& peer_columns,
                        JoinCountsValue* out);
  void StoreJoinCounts(const std::shared_ptr<const QueryCache>& peer,
                       const std::vector<size_t>& my_columns,
                       const std::vector<size_t>& peer_columns,
                       const JoinCountsValue& counts);

 private:
  using JoinMemoKey =
      std::tuple<const void*, std::vector<size_t>, std::vector<size_t>>;
  struct JoinMemoEntry {
    std::weak_ptr<const QueryCache> peer;
    JoinCountsValue counts;
  };

  void EnsureColumnsLocked(const std::vector<size_t>& columns);
  std::shared_ptr<const CodePartition> BuildPartition(
      const std::vector<size_t>& columns, NullPolicy policy) const;
  bool ComputeFdHolds(const std::vector<size_t>& lhs_columns,
                      const std::vector<size_t>& rhs_columns);
  double ComputeFdError(const std::vector<size_t>& lhs_columns,
                        const std::vector<size_t>& rhs_columns);

  EncodedTable encoded_;  // paged dictionaries load lazily under mutex_
  std::mutex mutex_;
  Memos memos_;
  std::map<JoinMemoKey, JoinMemoEntry> join_memo_;
};

}  // namespace dbre

#endif  // DBRE_RELATIONAL_QUERY_CACHE_H_
