// Dictionary-encoded columns: the storage of every table extension.
//
// Every extension query the elicitation algorithms issue (‖r[X]‖ distinct
// counts, set intersections, FD checks) boils down to grouping and comparing
// projected sub-rows, so a table keeps no rows at all: each attribute is an
// `EncodedColumn` of dense `uint32_t` codes (equal values ⇔ equal codes,
// NULL ⇔ `kNullCode`) plus the dictionary the codes index, and every query
// primitive runs over flat integer arrays with no per-row allocation.
//
// The canonical-encoding invariant. A column always equals a cold
// first-appearance encode of its values: codes are numbered in row order of
// first appearance, every dictionary entry is used by some row, and
// `has_null` / `typed` are exact. Appends keep it by construction; the
// rewriting mutations (UPDATE, DELETE) restore it with one integer
// renumbering pass (Canonicalize). Consequences the rest of the system
// relies on: ‖r[A]‖ is the dictionary size; the encoding is a pure function
// of the extension, so re-encoding a cloned table yields byte-identical
// columns (the determinism guarantee of the parallel discovery paths); two
// extensions are equal exactly when their codes and dictionaries are; and a
// snapshot (src/store/) is the columns written out verbatim.
//
// Residency. A column is either resident (codes and dictionary in memory)
// or paged: its codes and dictionary live in a read-only PagedSource
// (relational/paged_source.h) behind a buffer pool. Snapshot codes were
// written from canonical columns, so both residencies hold byte-identical
// codes and dictionaries, and every consumer that reads through
// codes_reader()/DecodeValue()/RowReader computes the same answer in both.
//
// `EncodedTable` is the immutable query-time view of one table's columns
// that a QueryCache owns: it shares the columns (no copy) and, for paged
// columns, materializes small dictionaries (<= kPagedDictMaterializeLimit
// entries) at EnsureColumn so hot Decode loops stay in memory; larger ones
// stream through the pool.
#ifndef DBRE_RELATIONAL_ENCODED_TABLE_H_
#define DBRE_RELATIONAL_ENCODED_TABLE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/flat_hash.h"
#include "common/status.h"
#include "relational/paged_source.h"
#include "relational/value.h"

namespace dbre {

// Value → code lookup over one resident column's dictionary, for appends
// and UPDATE literals. Open addressing with linear probing over (64-bit
// key, code) slots; the key is the value itself for int64/double/bool
// columns (so a key match is a value match) and a hash for text and
// untyped columns (a key match is then confirmed against the dictionary).
// Grows by doubling; EncodedColumn pre-sizes it for a bulk load.
class DictionaryIndex {
 public:
  static constexpr uint32_t kAbsent = UINT32_MAX;

  // Whether the index has been built (an unbuilt index is rebuilt from the
  // dictionary on first use).
  bool built() const { return !slots_.empty(); }
  size_t size() const { return size_; }
  // Whether the next insert grows the slot array.
  bool full() const { return (size_ + 1) * 3 > slots_.size() * 2; }
  void Reset();
  void Reserve(size_t entries);

  // The code stored under `key` for which `same(code)` holds, inserting
  // `fresh` when there is none (and then returning `fresh`).
  template <typename Same>
  uint32_t FindOrInsert(uint64_t key, uint32_t fresh, const Same& same);

  size_t bytes() const { return slots_.capacity() * sizeof(Slot); }

  void Prefetch(uint64_t key) const {
    if (built()) __builtin_prefetch(slots_.data() + Start(key));
  }

 private:
  // Key and code side by side: a probe touches one cache line.
  struct Slot {
    uint64_t key = 0;
    uint32_t code = kAbsent;  // kAbsent marks an empty slot
  };

  size_t Start(uint64_t key) const {
    return static_cast<size_t>((key * flat_hash_internal::kMultiplier) >>
                               shift_);
  }
  void Grow(size_t capacity);

  std::vector<Slot> slots_;
  size_t size_ = 0;
  int shift_ = 64;
};

// One attribute's extension. Copying a column copies its codes, dictionary
// and index; tables share columns through shared_ptr and copy one only
// when a mutation rewrites it.
struct EncodedColumn {
  // Code reserved for NULL cells; never a dictionary index.
  static constexpr uint32_t kNullCode = UINT32_MAX;

  DataType type = DataType::kInt64;  // the attribute's declared type
  std::vector<uint32_t> codes;       // one per row (resident)
  std::vector<Value> dictionary;     // code → value (resident)
  // Exact in both residencies (a paged column copies its source's flags).
  bool has_null = false;
  bool typed = true;  // every non-NULL cell matches the declared type

  // Paged residency: the column is `source_column` of `source`.
  std::shared_ptr<const PagedSource> source;
  uint32_t source_column = 0;

  DictionaryIndex index;  // resident only; built on demand

  bool paged() const { return source != nullptr; }
  uint32_t dict_size() const {
    return paged() ? source->dict_size(source_column)
                   : static_cast<uint32_t>(dictionary.size());
  }

  // Copies a paged column's codes and dictionary out of the pool (requires
  // paged()). Aborts on a pool read failure (the contract of
  // relational/paged_source.h).
  void MakeResident();

  // The code of `value` (kNullCode for NULL), appending it to the
  // dictionary under the next code when unseen. Resident only; `key` is
  // its PrefetchKey when already known.
  uint32_t Intern(Value&& value, const uint64_t* key = nullptr);

  // The index key Intern(value) will probe, with its slot prefetched: a
  // row append computes these for every column first, so the row's probes
  // (random accesses into large indexes) overlap instead of queueing.
  uint64_t PrefetchKey(const Value& value) const;

  // Appends one cell whose PrefetchKey is `key`, keeping the invariant by
  // construction.
  void Append(Value&& value, uint64_t key) {
    codes.push_back(Intern(std::move(value), &key));
  }

  // Restores the invariant after codes were overwritten or removed:
  // renumbers codes into first-appearance order, drops unused entries and
  // recomputes has_null and typed — integer work only. A renumbered
  // column's index is rebuilt on its next Intern.
  void Canonicalize();

  // Heap bytes of a resident column: codes, dictionary (with string
  // payloads) and index. A paged column costs only its handle.
  size_t ApproximateBytes() const;

 private:
  uint64_t KeyOf(const Value& value) const;
  void EnsureIndex() {
    if (!index.built()) RebuildIndex();
  }
  void RebuildIndex();
};

class EncodedTable {
 public:
  static constexpr uint32_t kNullCode = EncodedColumn::kNullCode;

  // Paged dictionaries up to this many entries are materialized in memory
  // at EnsureColumn; larger ones stay on disk and stream on demand.
  static constexpr uint32_t kPagedDictMaterializeLimit = 4096;

  // A view over `columns` (one per attribute), each holding `num_rows`
  // rows. The columns must not change while the view exists; tables
  // replace a column rather than mutate one that is shared.
  EncodedTable(std::vector<std::shared_ptr<const EncodedColumn>> columns,
               size_t num_rows);

  size_t num_rows() const { return num_rows_; }
  size_t num_columns() const { return columns_.size(); }

  const EncodedColumn& column(size_t c) const { return *columns_[c]; }

  // Prepares column `c` for Decode (materializes a small paged
  // dictionary). Idempotent, NOT thread-safe: QueryCache serializes calls
  // under its mutex, and every reader of Decode() goes through a locked
  // ensure first.
  void EnsureColumn(size_t c);

  // The declared attribute type of column `c`.
  DataType declared_type(size_t c) const { return columns_[c]->type; }

  // Whether every non-NULL cell of `c` matched the declared type, i.e. the
  // dictionary is homogeneous and typed cross-table comparison is valid.
  bool column_typed(size_t c) const { return columns_[c]->typed; }

  // Dense codes of column `c`, one per row. Requires a resident column —
  // paged consumers stream through codes_reader() instead.
  const std::vector<uint32_t>& codes(size_t c) const {
    return columns_[c]->codes;
  }

  // Residency-agnostic code access. Resident columns serve pointers
  // straight into the code vector; paged ones stream pages through a
  // cursor. Fetch's pointer is valid until the next Fetch/At on the same
  // reader; `count` must not exceed column_batch.h's kBatchSize.
  class CodeReader {
   public:
    explicit CodeReader(const uint32_t* codes) : codes_(codes) {}
    explicit CodeReader(std::unique_ptr<PagedCodeCursor> cursor)
        : cursor_(std::move(cursor)) {}

    const uint32_t* Fetch(size_t start, size_t count) {
      return codes_ != nullptr ? codes_ + start
                               : cursor_->Fetch(start, count);
    }
    uint32_t At(size_t row) {
      return codes_ != nullptr ? codes_[row] : cursor_->At(row);
    }

   private:
    const uint32_t* codes_ = nullptr;
    std::unique_ptr<PagedCodeCursor> cursor_;
  };

  // A reader over column `c`'s codes.
  CodeReader codes_reader(size_t c) const;

  // Number of distinct non-NULL values in column `c` (codes are
  // 0..dict_size-1).
  size_t dict_size(size_t c) const { return columns_[c]->dict_size(); }

  bool has_null(size_t c) const { return columns_[c]->has_null; }

  // Whether column `c`'s dictionary is in memory (always for resident
  // columns; paged ones only up to kPagedDictMaterializeLimit, after
  // EnsureColumn).
  bool dict_resident(size_t c) const {
    return !columns_[c]->paged() || paged_dicts_[c].size() == dict_size(c);
  }

  // The value a code stands for. Requires EnsureColumn(c) and
  // dict_resident(c).
  const Value& Decode(size_t c, uint32_t code) const {
    return columns_[c]->paged() ? paged_dicts_[c][code]
                                : columns_[c]->dictionary[code];
  }

  // The value a code stands for, in either residency; non-resident paged
  // dictionaries read through the buffer pool.
  Value DecodeValue(size_t c, uint32_t code) const;

  // Streams column `c`'s dictionary in code order.
  Status ForEachDictValue(
      size_t c,
      const std::function<void(uint32_t code, const Value& value)>& fn) const;

  // Residency-agnostic row projection: decodes the sub-row of `row` on
  // the columns fixed at construction (NULL cells come back as NULL
  // values). Rows read in increasing order stay page-local when paged.
  // Requires EnsureColumn on every projected column first.
  class RowReader {
   public:
    RowReader(const EncodedTable* encoded, std::vector<size_t> columns);

    // Overwrites `*out` with the projected sub-row of `row`.
    void Read(size_t row, ValueVector* out);

   private:
    const EncodedTable* encoded_;
    std::vector<size_t> columns_;
    std::vector<CodeReader> readers_;
    // In-memory dictionary per column; nullptr streams through the pool.
    std::vector<const Value*> dictionaries_;
  };
  RowReader row_reader(std::vector<size_t> columns) const {
    return RowReader(this, std::move(columns));
  }

 private:
  std::vector<std::shared_ptr<const EncodedColumn>> columns_;
  size_t num_rows_ = 0;
  std::vector<uint8_t> ready_;
  std::vector<std::vector<Value>> paged_dicts_;  // materialized, paged only
};

template <typename Same>
uint32_t DictionaryIndex::FindOrInsert(uint64_t key, uint32_t fresh,
                                       const Same& same) {
  // Load factor at most 2/3, as in common/flat_hash.h.
  if (full()) Grow(slots_.empty() ? 16 : slots_.size() * 2);
  const size_t mask = slots_.size() - 1;
  size_t i = Start(key);
  for (; slots_[i].code != kAbsent; i = (i + 1) & mask) {
    if (slots_[i].key == key && same(slots_[i].code)) return slots_[i].code;
  }
  slots_[i] = Slot{key, fresh};
  ++size_;
  return fresh;
}

}  // namespace dbre

#endif  // DBRE_RELATIONAL_ENCODED_TABLE_H_
