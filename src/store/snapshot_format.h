// The DBSNAP01 on-disk vocabulary, shared by the whole-file snapshot
// reader/writer (store/snapshot.cc) and the page-at-a-time reader
// (src/pagestore/), which must agree byte-for-byte:
//
//   [magic "DBSNAP01"]
//   [u64 schema_size][u32 schema CRC32C][schema blob]
//   per column, in schema order:
//     [u64 payload_size][u32 payload CRC32C][payload]
//       payload = u32 dict_size, u8 has_null,
//                 dict_size tagged values (AppendValue),
//                 rows x 4-byte little-endian codes
//   [u64 fingerprint][u32 CRC32C of the 8 fingerprint bytes]
//   [magic "DBSNAPFT"]
//
// Everything here is header-only and allocation-conscious; the heavy
// machinery (mmap, atomic writes, materialization) stays in snapshot.cc.
#ifndef DBRE_STORE_SNAPSHOT_FORMAT_H_
#define DBRE_STORE_SNAPSHOT_FORMAT_H_

#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "relational/schema.h"
#include "relational/value.h"

namespace dbre::store {

inline constexpr char kSnapshotMagic[8] = {'D', 'B', 'S', 'N',
                                           'A', 'P', '0', '1'};
inline constexpr char kSnapshotFooterMagic[8] = {'D', 'B', 'S', 'N',
                                                 'A', 'P', 'F', 'T'};
inline constexpr size_t kSnapshotFooterSize = 8 + 4 + 8;  // fp, crc, magic

// Dictionary value tags; NULL never appears in a dictionary, so tag 0 is
// reserved (it matches the fingerprint encoding's NULL tag for symmetry).
inline constexpr uint8_t kTagInt = 1;
inline constexpr uint8_t kTagReal = 2;
inline constexpr uint8_t kTagBool = 3;
inline constexpr uint8_t kTagString = 4;

// int64/double dictionary entries are fixed-width: tag + 8 payload bytes.
inline constexpr size_t kFixedEntryBytes = 9;

// Unaligned little-endian loads for the code arrays (the hot loop of the
// loaders; bounds are validated once per page, not per cell).
inline uint32_t LoadU32(const unsigned char* p) {
  uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  if constexpr (std::endian::native == std::endian::big) {
    v = __builtin_bswap32(v);
  }
  return v;
}

inline uint64_t LoadU64(const unsigned char* p) {
  uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  if constexpr (std::endian::native == std::endian::big) {
    v = __builtin_bswap64(v);
  }
  return v;
}

// ---- little-endian buffer building -------------------------------------

struct Writer {
  std::string out;

  void U8(uint8_t v) { out.push_back(static_cast<char>(v)); }
  void U32(uint32_t v) {
    for (int i = 0; i < 4; ++i) out.push_back(static_cast<char>(v >> (i * 8)));
  }
  void U64(uint64_t v) {
    for (int i = 0; i < 8; ++i) out.push_back(static_cast<char>(v >> (i * 8)));
  }
  void Str(const std::string& s) {
    U32(static_cast<uint32_t>(s.size()));
    out.append(s);
  }
};

// Bounds-checked little-endian reads over a byte range. Every primitive
// fails (sticky `ok = false`) instead of reading past the end, so a
// truncated or lying length field surfaces as a parse error.
struct Reader {
  const unsigned char* p;
  size_t size;
  size_t pos = 0;
  bool ok = true;

  bool Need(size_t n) {
    if (!ok || size - pos < n) {
      ok = false;
      return false;
    }
    return true;
  }
  uint8_t U8() {
    if (!Need(1)) return 0;
    return p[pos++];
  }
  uint32_t U32() {
    if (!Need(4)) return 0;
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= static_cast<uint32_t>(p[pos++]) << (i * 8);
    return v;
  }
  uint64_t U64() {
    if (!Need(8)) return 0;
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= static_cast<uint64_t>(p[pos++]) << (i * 8);
    return v;
  }
  std::string Str() {
    uint32_t n = U32();
    if (!Need(n)) return "";
    std::string s(reinterpret_cast<const char*>(p + pos), n);
    pos += n;
    return s;
  }
};

inline void AppendValue(Writer* w, const Value& value) {
  if (value.is_int()) {
    w->U8(kTagInt);
    w->U64(static_cast<uint64_t>(value.as_int()));
  } else if (value.is_real()) {
    w->U8(kTagReal);
    w->U64(std::bit_cast<uint64_t>(value.as_real()));
  } else if (value.is_bool()) {
    w->U8(kTagBool);
    w->U8(value.as_bool() ? 1 : 0);
  } else {
    w->U8(kTagString);
    w->Str(value.as_text());
  }
}

inline Result<Value> ParseValue(Reader* r) {
  uint8_t tag = r->U8();
  switch (tag) {
    case kTagInt:
      return Value::Int(static_cast<int64_t>(r->U64()));
    case kTagReal:
      return Value::Real(std::bit_cast<double>(r->U64()));
    case kTagBool:
      return Value::Boolean(r->U8() != 0);
    case kTagString:
      return Value::Text(r->Str());
    default:
      return ParseError("snapshot: unknown value tag " + std::to_string(tag));
  }
}

// ---- canonical code streams --------------------------------------------

// Column pages are canonical encodings (relational/encoded_table.h): each
// code is below dict_size or NULL, codes come in first-appearance order,
// every entry is used, has_null is exact. Both readers check exactly that,
// in O(1) state, so a crafted file with recomputed checksums can neither
// index past a dictionary nor hide a NULL group.
class CanonicalCodeCheck {
 public:
  static constexpr uint32_t kNullCode = 0xFFFFFFFFu;

  explicit CanonicalCodeCheck(uint32_t dict_size) : dict_size_(dict_size) {}

  // Feeds `count` little-endian codes, in row order.
  void Add(const unsigned char* codes, size_t count) {
    for (size_t i = 0; i < count && defect_ == nullptr; ++i) {
      const uint32_t code = LoadU32(codes + 4 * i);
      if (code == kNullCode) {
        saw_null_ = true;
      } else if (code >= dict_size_) {
        defect_ = "has an out-of-range code";
      } else if (code > next_) {
        defect_ = "has codes out of first-appearance order";
      } else if (code == next_) {
        ++next_;
      }
    }
  }

  // The first defect of the whole stream against the page's has_null
  // byte, phrased to follow "column page N", or nullptr when canonical.
  const char* Finish(bool has_null) const {
    if (defect_ != nullptr) return defect_;
    if (next_ != dict_size_) return "has an unused dictionary entry";
    if (saw_null_ != has_null) return "has a wrong NULL flag";
    return nullptr;
  }

 private:
  uint32_t dict_size_;
  uint32_t next_ = 0;  // the code the next unseen value must take
  bool saw_null_ = false;
  const char* defect_ = nullptr;
};

// ---- schema blob --------------------------------------------------------

inline std::string BuildSchemaBlob(const RelationSchema& schema,
                                   uint64_t rows) {
  Writer w;
  w.Str(schema.name());
  w.U32(static_cast<uint32_t>(schema.arity()));
  for (const Attribute& attribute : schema.attributes()) {
    w.Str(attribute.name);
    w.U8(static_cast<uint8_t>(attribute.type));
    w.U8(attribute.not_null ? 1 : 0);
  }
  w.U32(static_cast<uint32_t>(schema.unique_constraints().size()));
  for (const AttributeSet& unique : schema.unique_constraints()) {
    w.U32(static_cast<uint32_t>(unique.size()));
    for (const std::string& name : unique) w.Str(name);
  }
  w.U64(rows);
  w.U32(static_cast<uint32_t>(schema.arity()));
  return std::move(w.out);
}

struct ParsedSchema {
  RelationSchema schema;
  uint64_t rows = 0;
  uint32_t columns = 0;
};

inline Result<ParsedSchema> ParseSchemaBlob(const unsigned char* data,
                                            size_t size) {
  Reader r{data, size};
  ParsedSchema out;
  out.schema.set_name(r.Str());
  uint32_t arity = r.U32();
  for (uint32_t i = 0; i < arity && r.ok; ++i) {
    std::string name = r.Str();
    uint8_t type = r.U8();
    bool not_null = r.U8() != 0;
    if (type > static_cast<uint8_t>(DataType::kString)) {
      return ParseError("snapshot: unknown attribute type tag " +
                        std::to_string(type));
    }
    DBRE_RETURN_IF_ERROR(out.schema.AddAttribute(
        std::move(name), static_cast<DataType>(type), not_null));
  }
  uint32_t uniques = r.U32();
  for (uint32_t i = 0; i < uniques && r.ok; ++i) {
    uint32_t n = r.U32();
    std::vector<std::string> names;
    names.reserve(n);
    for (uint32_t j = 0; j < n && r.ok; ++j) names.push_back(r.Str());
    if (!r.ok) break;
    DBRE_RETURN_IF_ERROR(
        out.schema.DeclareUnique(AttributeSet(std::move(names))));
  }
  out.rows = r.U64();
  out.columns = r.U32();
  if (!r.ok || r.pos != size) {
    return ParseError("snapshot: malformed schema blob");
  }
  if (out.columns != out.schema.arity()) {
    return ParseError("snapshot: schema column count mismatch");
  }
  return out;
}

}  // namespace dbre::store

#endif  // DBRE_STORE_SNAPSHOT_FORMAT_H_
