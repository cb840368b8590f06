// Opens a DBSNAP01 snapshot page-at-a-time instead of mmapping it whole.
//
// Open() makes ONE streaming pass over the file with a small read buffer: it
// verifies every checksum the whole-file loader verifies (schema CRC, every
// column payload CRC, footer CRC + magics) and holds every code page to the
// canonical encoding (store/snapshot_format.h's CanonicalCodeCheck), using the
// identical error messages, and on the side computes the CRC32C of every
// kPageSize-byte page, which the buffer pool re-verifies on each read-back.
// Nothing row-sized is materialized: per column, Open records the byte offsets
// of the dictionary and code regions and builds a sparse dictionary directory
// (one byte offset per kDictDirStride entries) so DictValueAt is O(stride)
// page-local work. int64/double dictionaries are fixed-width (9 bytes per
// entry) and addressed arithmetically. Values larger than a page — long strings
// — simply span consecutive pages; the reader assembles them across pins (the
// format needs no separate overflow-page chain).
//
// A snapshot whose verification fails never attaches to the pool; the
// service layer quarantines it exactly as it does for LoadSnapshot.
#ifndef DBRE_PAGESTORE_PAGED_SNAPSHOT_H_
#define DBRE_PAGESTORE_PAGED_SNAPSHOT_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "pagestore/buffer_pool.h"
#include "relational/paged_source.h"
#include "relational/schema.h"

namespace dbre::pagestore {

// One byte offset per this many dictionary entries (variable-width
// dictionaries only); a point lookup walks at most the stride.
inline constexpr uint32_t kDictDirStride = 64;

class PagedSnapshot : public PagedSource,
                      public std::enable_shared_from_this<PagedSnapshot> {
 public:
  static Result<std::shared_ptr<PagedSnapshot>> Open(
      const std::string& path, std::shared_ptr<BufferPool> pool);

  ~PagedSnapshot() override;

  PagedSnapshot(const PagedSnapshot&) = delete;
  PagedSnapshot& operator=(const PagedSnapshot&) = delete;

  // --- PagedSource ------------------------------------------------------
  size_t num_rows() const override { return rows_; }
  size_t num_columns() const override { return columns_.size(); }
  uint64_t fingerprint() const override { return fingerprint_; }
  uint32_t dict_size(size_t column) const override {
    return columns_[column].dict_size;
  }
  bool has_null(size_t column) const override {
    return columns_[column].has_null;
  }
  bool typed(size_t column) const override { return columns_[column].typed; }
  DataType declared_type(size_t column) const override {
    return columns_[column].type;
  }
  std::unique_ptr<PagedCodeCursor> Codes(size_t column) const override;
  Result<Value> DictValueAt(size_t column, uint32_t code) const override;
  Status ForEachDictValue(
      size_t column,
      const std::function<void(uint32_t code, const Value& value)>& fn)
      const override;
  Result<std::shared_ptr<const PagedKeyIndex>> KeyIndexFor(
      size_t column) const override;

  // --- extras for the service layer ------------------------------------
  const RelationSchema& schema() const { return schema_; }
  const std::string& path() const { return path_; }
  BufferPool* pool() const { return pool_.get(); }
  uint32_t file_id() const { return file_id_; }

 private:
  friend class SnapshotCodeCursor;
  friend class SnapshotKeyIndex;

  struct Column {
    uint64_t payload_begin = 0;  // file offset of dict_size field
    uint64_t dict_begin = 0;     // file offset of the first dict entry
    uint64_t codes_begin = 0;    // file offset of the code array
    uint32_t dict_size = 0;
    bool has_null = false;
    bool typed = false;
    bool fixed = false;  // 9-byte entries (int64/double)
    DataType type = DataType::kString;
    // Sparse directory for variable-width dictionaries: byte offset (from
    // dict_begin) of entry i*kDictDirStride.
    std::vector<uint64_t> directory;
  };

  PagedSnapshot() = default;

  // Reads `n` bytes at absolute file offset `off` through the pool.
  Status ReadBytes(uint64_t off, size_t n, uint8_t* out) const;

  // Walks dictionary entries [first, first+count) of `column`, starting at
  // byte offset `entry_off` (from file start), invoking fn per entry.
  Status WalkDict(size_t column, uint32_t first, uint32_t count,
                  uint64_t entry_off,
                  const std::function<void(uint32_t, const Value&)>& fn)
      const;

  std::string path_;
  std::shared_ptr<BufferPool> pool_;
  uint32_t file_id_ = 0;
  uint64_t file_size_ = 0;
  uint64_t rows_ = 0;
  uint64_t fingerprint_ = 0;
  RelationSchema schema_;
  std::vector<Column> columns_;

  mutable std::mutex index_mutex_;
  mutable std::vector<std::shared_ptr<const PagedKeyIndex>> indexes_;
};

// Convenience used by the service layer and tests.
Result<std::shared_ptr<PagedSnapshot>> OpenSnapshotPaged(
    const std::string& path, std::shared_ptr<BufferPool> pool);

}  // namespace dbre::pagestore

#endif  // DBRE_PAGESTORE_PAGED_SNAPSHOT_H_
