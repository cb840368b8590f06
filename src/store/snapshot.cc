#include "store/snapshot.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cerrno>
#include <cstring>
#include <utility>

#include "common/failpoint.h"
#include "common/retry.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "relational/encoded_table.h"
#include "relational/extension_registry.h"
#include "store/crc32c.h"
#include "store/snapshot_format.h"

namespace dbre::store {
namespace {

struct SnapshotMetrics {
  obs::Counter* bytes_written;
  obs::Counter* bytes_read;
  obs::Counter* retries;
  obs::Histogram* write_us;
  obs::Histogram* load_us;
};

const SnapshotMetrics& Metrics() {
  static const SnapshotMetrics metrics = [] {
    obs::Registry& registry = obs::Registry::Default();
    return SnapshotMetrics{
        registry.GetCounter("dbre_snapshot_bytes_written_total", {},
                            "Bytes written to snapshot files"),
        registry.GetCounter("dbre_snapshot_bytes_read_total", {},
                            "Bytes read (mapped) from snapshot files"),
        registry.GetCounter("dbre_snapshot_retries_total", {},
                            "Snapshot write attempts retried after an error"),
        registry.GetHistogram("dbre_snapshot_write_us", {},
                              "Snapshot encode+write+fsync latency"),
        registry.GetHistogram("dbre_snapshot_load_us", {},
                              "Snapshot verify+materialize latency"),
    };
  }();
  return metrics;
}

// Format constants, Writer/Reader and the value/schema codecs now live in
// store/snapshot_format.h, shared with the page-at-a-time reader in
// src/pagestore/. Local aliases keep this file reading as before.
constexpr auto& kMagic = kSnapshotMagic;
constexpr auto& kFooterMagic = kSnapshotFooterMagic;
constexpr size_t kFooterSize = kSnapshotFooterSize;

// ---- mmap'd read-only file -------------------------------------------

class MappedFile {
 public:
  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;

  static Result<MappedFile> Open(const std::string& path) {
    DBRE_RETURN_IF_ERROR(FailpointError("snapshot.open"));
    int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0) {
      return IoError("open " + path + ": " + std::strerror(errno));
    }
    struct stat st;
    if (::fstat(fd, &st) != 0) {
      int err = errno;
      ::close(fd);
      return IoError("fstat " + path + ": " + std::strerror(err));
    }
    MappedFile file;
    file.size_ = static_cast<size_t>(st.st_size);
    if (file.size_ > 0) {
      // Modest files are read in one syscall: the loader touches every
      // byte anyway (checksums), and per-page fault handling — even
      // MAP_POPULATE's eager kind — costs more than a single page-cache
      // copy at this size. mmap only pays off once the file is large
      // enough that the copy itself dominates.
      constexpr size_t kReadThreshold = 8u << 20;
      void* map = MAP_FAILED;
      if (file.size_ > kReadThreshold) {
        int flags = MAP_PRIVATE;
#ifdef MAP_POPULATE
        flags |= MAP_POPULATE;
#endif
        map = ::mmap(nullptr, file.size_, PROT_READ, flags, fd, 0);
      }
      if (map != MAP_FAILED) {
        file.map_ = map;
      } else {
        // Small file, or mmap failed (exotic filesystems): read it.
        file.buffer_.resize(file.size_);
        size_t off = 0;
        while (off < file.size_) {
          ssize_t n = ::pread(fd, file.buffer_.data() + off,
                              file.size_ - off, static_cast<off_t>(off));
          if (n <= 0) {
            ::close(fd);
            return IoError("read " + path + ": " + std::strerror(errno));
          }
          off += static_cast<size_t>(n);
        }
      }
    }
    ::close(fd);
    return file;
  }

  MappedFile(MappedFile&& other) noexcept { *this = std::move(other); }
  MappedFile& operator=(MappedFile&& other) noexcept {
    std::swap(map_, other.map_);
    std::swap(size_, other.size_);
    std::swap(buffer_, other.buffer_);
    return *this;
  }

  ~MappedFile() {
    if (map_ != nullptr) ::munmap(map_, size_);
  }

  const unsigned char* data() const {
    if (map_ != nullptr) return static_cast<const unsigned char*>(map_);
    return reinterpret_cast<const unsigned char*>(buffer_.data());
  }
  size_t size() const { return size_; }

 private:
  MappedFile() = default;

  void* map_ = nullptr;
  size_t size_ = 0;
  std::string buffer_;
};

// One write-tmp/fsync/rename attempt. The tmp file is recreated from
// scratch (O_TRUNC), so a failed attempt leaves nothing a retry has to
// clean up — WriteFileAtomic retries the whole attempt on IO errors.
Status WriteFileAtomicOnce(const std::string& path, const std::string& bytes) {
  std::string tmp = path + ".tmp";
  int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) {
    return IoError("open " + tmp + ": " + std::strerror(errno));
  }
  size_t limit = bytes.size();
  bool injected = false;
  FailpointHit hit = Failpoints::Check("snapshot.write");
  if (hit.action == FailpointHit::Action::kError) {
    limit = 0;
    injected = true;
  } else if (hit.action == FailpointHit::Action::kTorn) {
    limit = std::min(limit, hit.torn_bytes);
    injected = true;
  }
  size_t off = 0;
  while (off < limit) {
    ssize_t n = ::write(fd, bytes.data() + off, limit - off);
    if (n < 0) {
      int err = errno;
      ::close(fd);
      ::unlink(tmp.c_str());
      return IoError("write " + tmp + ": " + std::strerror(err));
    }
    off += static_cast<size_t>(n);
  }
  if (injected) {
    ::close(fd);
    ::unlink(tmp.c_str());
    return IoError("write " + tmp +
                   ": injected failure (failpoint snapshot.write)");
  }
  Status fsync_status = FailpointError("snapshot.fsync");
  if (fsync_status.ok() && ::fsync(fd) != 0) {
    fsync_status = IoError("fsync " + tmp + ": " + std::strerror(errno));
  }
  if (!fsync_status.ok()) {
    ::close(fd);
    ::unlink(tmp.c_str());
    return fsync_status;
  }
  ::close(fd);
  Status rename_status = FailpointError("snapshot.rename");
  if (rename_status.ok() && ::rename(tmp.c_str(), path.c_str()) != 0) {
    rename_status = IoError("rename " + tmp + ": " + std::strerror(errno));
  }
  if (!rename_status.ok()) {
    ::unlink(tmp.c_str());
    return rename_status;
  }
  // Make the rename itself durable.
  size_t slash = path.find_last_of('/');
  std::string dir = slash == std::string::npos ? "." : path.substr(0, slash);
  int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (dfd >= 0) {
    ::fsync(dfd);
    ::close(dfd);
  }
  return Status::Ok();
}

Status WriteFileAtomic(const std::string& path, const std::string& bytes) {
  RetryPolicy policy;
  policy.on_retry = [](int, const Status&) { Metrics().retries->Add(1); };
  return RetryWithBackoff(
      policy, [&] { return WriteFileAtomicOnce(path, bytes); });
}

}  // namespace

Result<SnapshotInfo> WriteSnapshot(const Table& table,
                                   const std::string& path) {
  obs::TraceSpan span("snapshot:write", nullptr, Metrics().write_us,
                      obs::Registry::Default().slow_ops());
  span.set_detail(path);
  if (table.is_paged()) {
    // A paged extension already lives in a snapshot; its columns are the
    // file's pages.
    return FailedPreconditionError("relation " + table.schema().name() +
                                   " is paged; its snapshot already exists");
  }
  uint64_t fingerprint = ExtensionRegistry::ComputeFingerprint(table);

  Writer file;
  file.out.append(kMagic, sizeof(kMagic));

  std::string schema_blob = BuildSchemaBlob(table.schema(), table.num_rows());
  file.U64(schema_blob.size());
  file.U32(Crc32c(schema_blob));
  file.out.append(schema_blob);

  // The columns are canonical, so they are the pages verbatim.
  for (size_t c = 0; c < table.schema().arity(); ++c) {
    const EncodedColumn& column = table.column(c);
    Writer page;
    page.U32(column.dict_size());
    page.U8(column.has_null ? 1 : 0);
    for (const Value& value : column.dictionary) AppendValue(&page, value);
    for (uint32_t code : column.codes) page.U32(code);
    file.U64(page.out.size());
    file.U32(Crc32c(page.out));
    file.out.append(page.out);
  }

  file.U64(fingerprint);
  unsigned char fp_bytes[8];
  for (int i = 0; i < 8; ++i) {
    fp_bytes[i] = static_cast<unsigned char>(fingerprint >> (i * 8));
  }
  file.U32(Crc32c(0, fp_bytes, sizeof(fp_bytes)));
  file.out.append(kFooterMagic, sizeof(kFooterMagic));

  DBRE_RETURN_IF_ERROR(WriteFileAtomic(path, file.out));
  Metrics().bytes_written->Add(file.out.size());

  SnapshotInfo info;
  info.fingerprint = fingerprint;
  info.rows = table.num_rows();
  info.columns = static_cast<uint32_t>(table.schema().arity());
  info.relation = table.schema().name();
  info.file_bytes = file.out.size();
  return info;
}

namespace {

// Shared front half of ReadSnapshotInfo and LoadSnapshot: magic, schema
// section (size + CRC verified), footer (CRC + magic verified).
struct SnapshotLayout {
  ParsedSchema schema;
  size_t pages_begin = 0;  // file offset of the first column page
  size_t pages_end = 0;    // file offset of the footer
  uint64_t fingerprint = 0;
};

Result<SnapshotLayout> ParseLayout(const MappedFile& file,
                                   const std::string& path) {
  const unsigned char* data = file.data();
  size_t size = file.size();
  if (Failpoints::Check("snapshot.crc").action != FailpointHit::Action::kNone) {
    return ParseError("snapshot " + path +
                      ": injected checksum mismatch (failpoint snapshot.crc)");
  }
  if (size < sizeof(kMagic) + 12 + kFooterSize ||
      std::memcmp(data, kMagic, sizeof(kMagic)) != 0) {
    return ParseError("snapshot " + path + ": bad magic or truncated header");
  }

  Reader header{data, size, sizeof(kMagic)};
  uint64_t schema_size = header.U64();
  uint32_t schema_crc = header.U32();
  if (schema_size > size - header.pos - kFooterSize) {
    return ParseError("snapshot " + path + ": schema blob exceeds file");
  }
  if (Crc32c(0, data + header.pos, schema_size) != schema_crc) {
    return ParseError("snapshot " + path + ": schema checksum mismatch");
  }

  SnapshotLayout layout;
  DBRE_ASSIGN_OR_RETURN(layout.schema,
                        ParseSchemaBlob(data + header.pos, schema_size));
  layout.pages_begin = header.pos + schema_size;
  layout.pages_end = size - kFooterSize;

  Reader footer{data, size, layout.pages_end};
  layout.fingerprint = footer.U64();
  uint32_t footer_crc = footer.U32();
  if (Crc32c(0, data + layout.pages_end, 8) != footer_crc ||
      std::memcmp(data + size - sizeof(kFooterMagic), kFooterMagic,
                  sizeof(kFooterMagic)) != 0) {
    return ParseError("snapshot " + path + ": footer checksum mismatch");
  }
  return layout;
}

}  // namespace

Result<SnapshotInfo> ReadSnapshotInfo(const std::string& path) {
  DBRE_ASSIGN_OR_RETURN(MappedFile file, MappedFile::Open(path));
  DBRE_ASSIGN_OR_RETURN(SnapshotLayout layout, ParseLayout(file, path));
  SnapshotInfo info;
  info.fingerprint = layout.fingerprint;
  info.rows = layout.schema.rows;
  info.columns = layout.schema.columns;
  info.relation = layout.schema.schema.name();
  info.file_bytes = file.size();
  return info;
}

Result<LoadedSnapshot> LoadSnapshot(const std::string& path) {
  obs::TraceSpan span("snapshot:load", nullptr, Metrics().load_us,
                      obs::Registry::Default().slow_ops());
  span.set_detail(path);
  DBRE_ASSIGN_OR_RETURN(MappedFile file, MappedFile::Open(path));
  Metrics().bytes_read->Add(file.size());
  DBRE_ASSIGN_OR_RETURN(SnapshotLayout layout, ParseLayout(file, path));
  const unsigned char* data = file.data();
  const uint64_t rows = layout.schema.rows;
  const uint32_t columns = layout.schema.columns;
  if (rows >= EncodedTable::kNullCode) {
    return ParseError("snapshot " + path + ": row count overflows encoding");
  }

  LoadedSnapshot out;
  out.schema = std::move(layout.schema.schema);
  out.fingerprint = layout.fingerprint;
  out.rows = rows;
  out.columns.resize(columns);

  // One pass per column page: verify its checksum, decode its dictionary,
  // hold its codes to the canonical form and install them as they are.
  size_t pos = layout.pages_begin;
  for (uint32_t c = 0; c < columns; ++c) {
    const std::string page_name =
        "snapshot " + path + ": column page " + std::to_string(c);
    Reader page_header{data, layout.pages_end, pos};
    uint64_t payload_size = page_header.U64();
    uint32_t payload_crc = page_header.U32();
    if (!page_header.ok ||
        payload_size > layout.pages_end - page_header.pos) {
      return ParseError(page_name + " truncated");
    }
    if (Crc32c(0, data + page_header.pos, payload_size) != payload_crc) {
      return ParseError(page_name + " checksum mismatch");
    }

    Reader payload{data + page_header.pos, payload_size};
    const uint32_t dict_size = payload.U32();
    const bool has_null = payload.U8() != 0;
    const DataType type = out.schema.attributes()[c].type;
    EncodedColumn& column = out.columns[c];
    column.type = type;
    // int64/double entries are fixed-width (tag + 8-byte payload), so a
    // foreign tag there is corruption; elsewhere it makes the column
    // untyped.
    const bool fixed = type == DataType::kInt64 || type == DataType::kDouble;
    if (fixed &&
        payload_size - payload.pos < uint64_t{dict_size} * kFixedEntryBytes) {
      return ParseError(page_name + " is malformed");
    }
    column.dictionary.reserve(dict_size);
    for (uint32_t i = 0; i < dict_size && payload.ok; ++i) {
      DBRE_ASSIGN_OR_RETURN(Value value, ParseValue(&payload));
      if (!value.MatchesType(type)) {
        if (fixed) return ParseError(page_name + " has a mistyped entry");
        column.typed = false;
      }
      column.dictionary.push_back(std::move(value));
    }
    if (!payload.ok || payload_size - payload.pos != rows * 4) {
      return ParseError(page_name + " is malformed");
    }
    const unsigned char* codes = data + page_header.pos + payload.pos;
    CanonicalCodeCheck check(dict_size);
    check.Add(codes, rows);
    if (const char* defect = check.Finish(has_null)) {
      return ParseError(page_name + " " + defect);
    }
    column.has_null = has_null;
    column.codes.resize(rows);
    for (uint64_t r = 0; r < rows; ++r) {
      column.codes[r] = LoadU32(codes + 4 * r);
    }
    pos = page_header.pos + payload_size;
  }
  if (pos != layout.pages_end) {
    return ParseError("snapshot " + path + ": trailing bytes after pages");
  }
  return out;
}

}  // namespace dbre::store
