// An in-memory table: a relation schema plus its extension (set of tuples).
//
// The extension is its dictionary-encoded columns, one `EncodedColumn` per
// attribute (relational/encoded_table.h), resident or paged; there is no
// row storage. Rows are read through one path in both residencies, the
// query cache's RowReader (ForEachRow). Mutations edit the columns in
// place and leave each canonical, so a mutated table is indistinguishable
// from one loaded cold with the same rows.
//
// Provides the primitive the paper's algorithms are built on — the ‖·‖
// operator (`select count distinct X from R`) — along with projections and
// constraint verification. Following SQL `count(distinct ...)` semantics,
// tuples containing NULL in any projected attribute are skipped by the
// distinct-counting operations.
#ifndef DBRE_RELATIONAL_TABLE_H_
#define DBRE_RELATIONAL_TABLE_H_

#include <functional>
#include <memory>
#include <optional>
#include <string_view>
#include <unordered_set>
#include <vector>

#include "common/status.h"
#include "relational/attribute_set.h"
#include "relational/encoded_table.h"
#include "relational/paged_source.h"
#include "relational/schema.h"
#include "relational/value.h"

namespace dbre {

class ExtensionRegistry;
class QueryCache;

// A set of projected rows, usable for inclusion / intersection tests.
using ValueVectorSet = std::unordered_set<ValueVector, ValueVectorHash>;

// One conjunct of a mutation predicate: the row's cell in `column`
// satisfies `test` (called with NULL for NULL cells). A row matches a
// predicate — a conjunction of these — when every conjunct holds; the
// empty conjunction matches every row. The table evaluates each test once
// per dictionary code (and once for NULL), never once per row.
struct ColumnTest {
  size_t column = 0;
  std::function<bool(const Value&)> test;
};
using RowPredicate = std::vector<ColumnTest>;

class Table {
 public:
  Table() = default;
  explicit Table(RelationSchema schema);

  const RelationSchema& schema() const { return schema_; }
  // Constraint declarations only: the attribute list must not change.
  RelationSchema& mutable_schema() { return schema_; }

  size_t num_rows() const { return num_rows_; }

  // The extension decoded into rows, for callers outside the library that
  // want row-major access (tests, benchmarks). Materialized on first call
  // and kept until the next mutation; the reference stays valid until
  // then. Nothing in the library reads it — use ForEachRow.
  const std::vector<ValueVector>& rows() const;
  ValueVector row(size_t i) const { return rows()[i]; }

  // Whether the extension lives on disk behind a buffer pool instead of in
  // memory (every column paged). Mutating a paged table first copies its
  // columns out of the pool (they become resident); the pool is never
  // written.
  bool is_paged() const { return paged_ != nullptr; }
  // The content fingerprint of the paged extension (snapshot footer).
  uint64_t paged_fingerprint() const { return paged_->fingerprint(); }

  // Replaces the extension with a paged source whose physical columns
  // 0..arity-1 match the schema's attributes in order (declared types must
  // agree).
  Status AdoptPagedExtension(std::shared_ptr<const PagedSource> source);

  // Replaces the extension with columns built outside the Insert path —
  // the snapshot loader (src/store/) decodes column pages straight into
  // them. One resident column per attribute, each with `num_rows` codes,
  // in canonical form (the loader verifies it).
  Status AdoptColumns(std::vector<EncodedColumn> columns, size_t num_rows);

  // Column `c` of the extension (one per schema attribute, in order).
  const EncodedColumn& column(size_t c) const { return *columns_[c]; }

  // Appends a tuple after validating arity, value types and not-null
  // declarations. Unique declarations are NOT checked here (that would make
  // bulk loads quadratic); use VerifyUniqueConstraints after loading.
  Status Insert(ValueVector row);

  // Appends without validation; for generators that construct rows known to
  // be well-formed.
  void InsertUnchecked(ValueVector row);

  // Pre-sizes the columns for a bulk load of `additional_rows` further
  // tuples; a column whose values turn out all distinct (a key) then
  // sizes its dictionary index for the whole load at once.
  void Reserve(size_t additional_rows);

  void Clear();

  // --- Mutation path for live sessions (docs/INCREMENTAL.md) -------------

  // In-place update: assigns values[k] to column columns[k] of every row
  // matching `predicate`. Values are validated against declared types and
  // not-null declarations up front; a predicate matching nothing leaves the
  // extension and its cache untouched. Only the assigned columns are
  // rewritten (a column shared with another table is copied first), and
  // every memo over other columns carries over. Returns the number of
  // updated rows.
  Result<size_t> UpdateRows(const std::vector<size_t>& columns,
                            const ValueVector& values,
                            const RowPredicate& predicate);

  // Removes every row matching `predicate`; returns how many. Every
  // column is compacted, so no memo carries over.
  Result<size_t> DeleteRows(const RowPredicate& predicate);

  // Streams every row of the extension in row order, through the query
  // cache's RowReader (page-by-page for paged columns). The row reference
  // is only valid during the call.
  Status ForEachRow(const std::function<void(const ValueVector&)>& fn) const;

  // Removes an attribute from the schema and its column from the
  // extension (used by Restruct when dependent attributes migrate to a
  // new relation).
  Status DropAttribute(std::string_view name);

  // Column indexes for `attributes`, in the set's (sorted) order.
  Result<std::vector<size_t>> ProjectionIndexes(
      const AttributeSet& attributes) const;

  // The projected sub-row of `row` following `indexes`.
  static ValueVector ProjectRow(const ValueVector& row,
                                const std::vector<size_t>& indexes);

  // Distinct projection r[X] excluding sub-rows containing NULL.
  Result<ValueVectorSet> DistinctProjection(
      const AttributeSet& attributes) const;

  // ‖r[X]‖ — the number of distinct non-NULL sub-rows on `attributes`.
  Result<size_t> DistinctCount(const AttributeSet& attributes) const;

  // Verifies every declared unique constraint against the extension. NULLs
  // are excluded from the uniqueness check (SQL UNIQUE semantics).
  Status VerifyUniqueConstraints() const;

  // Verifies declared not-null attributes against the extension.
  Status VerifyNotNullConstraints() const;

  // The memoized query results over this extension (see
  // relational/query_cache.h), reading the table's columns in place. Built
  // lazily; a mutation replaces it, carrying over the memos it did not
  // invalidate. Copying a Table shares the cache and the columns; a
  // subsequent mutation of either copy detaches only that copy. Safe to
  // call from multiple threads concurrently, but not concurrently with a
  // mutation — the discovery algorithms only mutate between query phases.
  Result<std::shared_ptr<QueryCache>> query_cache() const;

  // Rewires this table to share `other`'s columns and query cache when
  // both hold the same extension over the same column layout (equal
  // attribute names, types, codes and dictionaries, in order). Partitions
  // and dictionaries memoized through either table then serve both — the
  // service layer uses this to pool work across sessions that load the
  // same extension (see relational/extension_registry.h). Returns false,
  // changing nothing, if the layouts or extensions differ.
  bool AdoptSharedExtension(const Table& other);

  // Rough heap footprint of the extension: codes, dictionaries (with
  // string payloads) and dictionary indexes of the resident columns; the
  // schema and any query cache are not counted. Used for per-session
  // memory accounting.
  size_t ApproximateBytes() const;

 private:
  friend class ExtensionRegistry;

  // Validates a cell for column `c` (declared type, not-null); the
  // not-null set is computed on the first NULL only.
  Status CheckCell(size_t c, const Value& value,
                   std::optional<AttributeSet>* not_null) const;
  // Column `c` for writing: copied first if anyone else (a sibling table,
  // the registry, a query cache) still references it, and made resident.
  EncodedColumn& MutableColumn(size_t c);
  // Makes every column resident (a paged table's first mutation).
  void MakeResident();
  // The row numbers matching `predicate`, ascending.
  std::vector<size_t> MatchingRows(const RowPredicate& predicate) const;
  // Drops the cache and the rows view before a mutation.
  void DropCache();
  // Replaces the whole extension.
  void Install(std::vector<std::shared_ptr<EncodedColumn>> columns,
               size_t num_rows, std::shared_ptr<const PagedSource> paged);

  RelationSchema schema_;
  size_t num_rows_ = 0;
  std::vector<std::shared_ptr<EncodedColumn>> columns_;
  std::shared_ptr<const PagedSource> paged_;
  mutable std::shared_ptr<QueryCache> cache_;
  mutable std::shared_ptr<const std::vector<ValueVector>> rows_view_;
};

}  // namespace dbre

#endif  // DBRE_RELATIONAL_TABLE_H_
