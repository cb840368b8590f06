// The seam between the relational engine and out-of-core storage.
//
// A PagedSource is a read-only, dictionary-encoded column store whose
// backing bytes live on disk behind a buffer pool (src/pagestore/). The
// relational layer never sees pages: it sees per-column dictionaries and
// code streams through the three interfaces below. A table's paged
// columns (`EncodedColumn` with a source, relational/encoded_table.h)
// hold the same canonical codes and dictionaries a resident column would,
// so QueryCache / algebra / the SQL executor run the same algorithms over
// both residencies — with byte-identical results, enforced by the paged
// crosscheck tests. A mutation copies a paged column out into a resident
// one; nothing ever writes through a source.
//
// Layering: this header lives in relational/ so relational code can hold
// and consume paged sources without depending on pagestore (which itself
// links relational for Value). pagestore implements the interfaces.
//
// Error contract: a source is fully verified when it is opened (every
// checksum of every page, and every code page held to the canonical
// encoding, so no code indexes past its dictionary), so steady-state
// reads of an open source fail
// only on real environment faults (disk death, truncation underneath a
// live file). Cursors therefore fail fast — transient I/O errors are
// retried inside the buffer pool; a persistent failure aborts the process
// rather than silently degrading the byte-identical invariant. Paths that
// can report errors cleanly (open, index build/load, dictionary walks)
// return Status.
#ifndef DBRE_RELATIONAL_PAGED_SOURCE_H_
#define DBRE_RELATIONAL_PAGED_SOURCE_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>

#include "common/status.h"
#include "relational/value.h"

namespace dbre {

// Streams one column's dictionary codes. Fetch returns a pointer to an
// aligned buffer holding `count` codes starting at row `start`; the
// pointer is valid until the next Fetch/At on the same cursor. `count`
// must not exceed relational/column_batch.h's kBatchSize. At() reads a
// single code (cached-page fast path, for random access).
class PagedCodeCursor {
 public:
  virtual ~PagedCodeCursor() = default;
  virtual const uint32_t* Fetch(size_t start, size_t count) = 0;
  virtual uint32_t At(size_t row) = 0;
};

// A sorted-run index over one column's dictionary: (key, code) pairs
// ordered by key, where key is the raw int64 bit pattern when `exact()`
// (typed int64 columns) and the canonical sketch hash otherwise. Inexact
// probes must verify candidates by decoding the dictionary value.
class PagedKeyIndex {
 public:
  virtual ~PagedKeyIndex() = default;
  virtual bool exact() const = 0;
  virtual bool ContainsKey(uint64_t key) const = 0;
  // Invokes `fn` with every dictionary code whose key equals `key`, in
  // code order within equal keys; stops early when fn returns false.
  virtual Status ForEachCode(
      uint64_t key, const std::function<bool(uint32_t code)>& fn) const = 0;
};

// A read-only paged extension: N columns over `num_rows` rows, each
// column a dictionary (codes 0..dict_size-1; NULL is the encoder's
// sentinel code, never a dictionary entry) plus a code stream.
class PagedSource {
 public:
  virtual ~PagedSource() = default;

  virtual size_t num_rows() const = 0;
  virtual size_t num_columns() const = 0;
  // The extension's content fingerprint (snapshot footer), identical to
  // ExtensionRegistry::ComputeFingerprint over the decoded rows.
  virtual uint64_t fingerprint() const = 0;

  virtual uint32_t dict_size(size_t column) const = 0;
  virtual bool has_null(size_t column) const = 0;
  // True when every dictionary value matches the declared type.
  virtual bool typed(size_t column) const = 0;
  virtual DataType declared_type(size_t column) const = 0;

  virtual std::unique_ptr<PagedCodeCursor> Codes(size_t column) const = 0;

  // Random access into the dictionary; kInvalidArgument past dict_size.
  virtual Result<Value> DictValueAt(size_t column, uint32_t code) const = 0;

  // Streams the dictionary in code order (0, 1, ..., dict_size-1).
  virtual Status ForEachDictValue(
      size_t column,
      const std::function<void(uint32_t code, const Value& value)>& fn)
      const = 0;

  // The (lazily built, memoized) key index for `column`. Never called
  // when the paged-index gate below is off.
  virtual Result<std::shared_ptr<const PagedKeyIndex>> KeyIndexFor(
      size_t column) const = 0;
};

// Process-wide gate for key-index probe fast paths (default on). Turning
// it off routes paged membership probes through streamed exact sets
// instead — results are identical either way; the crosscheck tests flip
// the gate to prove it, mirroring relational/sketch.h's ScopedSketchGate.
bool PagedIndexEnabled();
void SetPagedIndexEnabled(bool enabled);

class ScopedPagedIndexGate {
 public:
  explicit ScopedPagedIndexGate(bool enabled)
      : previous_(PagedIndexEnabled()) {
    SetPagedIndexEnabled(enabled);
  }
  ~ScopedPagedIndexGate() { SetPagedIndexEnabled(previous_); }

 private:
  bool previous_;
};

}  // namespace dbre

#endif  // DBRE_RELATIONAL_PAGED_SOURCE_H_
