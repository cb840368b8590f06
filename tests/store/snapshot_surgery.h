// Byte-level surgery on DBSNAP01 files for the decoder-hardening tests:
// locate one column page, edit its payload, and recompute its CRC32C so
// the edit gets past every checksum and reaches the structural checks.
#ifndef DBRE_TESTS_STORE_SNAPSHOT_SURGERY_H_
#define DBRE_TESTS_STORE_SNAPSHOT_SURGERY_H_

#include <cstdint>
#include <fstream>
#include <iterator>
#include <string>

#include "store/crc32c.h"
#include "store/snapshot_format.h"

namespace dbre::store::testing {

inline std::string ReadBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

inline void WriteBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// Offsets of one column page inside a snapshot image.
struct ColumnPage {
  size_t header = 0;   // the page's [u64 size][u32 crc]
  size_t payload = 0;  // payload start: u32 dict_size, u8 has_null, ...
  size_t size = 0;     // payload bytes
  size_t codes = 0;    // first 4-byte code
  uint32_t dict_size = 0;
};

// Finds column page `column` of a snapshot of `rows` rows.
inline ColumnPage FindColumnPage(const std::string& bytes, size_t column,
                                 uint64_t rows) {
  const auto* data = reinterpret_cast<const unsigned char*>(bytes.data());
  size_t pos = sizeof(kSnapshotMagic);
  pos += 12 + LoadU64(data + pos);  // schema size, CRC and blob
  ColumnPage page;
  for (size_t c = 0;; ++c) {
    page.header = pos;
    page.size = static_cast<size_t>(LoadU64(data + pos));
    page.payload = pos + 12;
    if (c == column) break;
    pos = page.payload + page.size;
  }
  page.dict_size = LoadU32(data + page.payload);
  page.codes = page.payload + page.size - static_cast<size_t>(rows) * 4;
  return page;
}

inline uint32_t CodeAt(const std::string& bytes, const ColumnPage& page,
                       size_t row) {
  return LoadU32(
      reinterpret_cast<const unsigned char*>(bytes.data()) + page.codes +
      4 * row);
}

inline void SetCode(std::string* bytes, const ColumnPage& page, size_t row,
                    uint32_t code) {
  for (int i = 0; i < 4; ++i) {
    (*bytes)[page.codes + 4 * row + i] = static_cast<char>(code >> (8 * i));
  }
}

inline void SetHasNull(std::string* bytes, const ColumnPage& page,
                       bool has_null) {
  (*bytes)[page.payload + 4] = has_null ? 1 : 0;
}

// Recomputes the page CRC after an edit.
inline void Reseal(std::string* bytes, const ColumnPage& page) {
  const uint32_t crc = Crc32c(0, bytes->data() + page.payload, page.size);
  for (int i = 0; i < 4; ++i) {
    (*bytes)[page.header + 8 + i] = static_cast<char>(crc >> (8 * i));
  }
}

}  // namespace dbre::store::testing

#endif  // DBRE_TESTS_STORE_SNAPSHOT_SURGERY_H_
