#include "pagestore/paged_snapshot.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/failpoint.h"
#include "pagestore/buffer_pool.h"
#include "pagestore/key_index.h"
#include "relational/encoded_table.h"
#include "relational/query_cache.h"
#include "relational/sketch.h"
#include "relational/table.h"
#include "store/snapshot.h"
#include "../store/snapshot_surgery.h"

namespace dbre::pagestore {
namespace {

namespace fs = std::filesystem;

class PagedSnapshotTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("dbre_paged_snapshot_test_" +
            std::to_string(::testing::UnitTest::GetInstance()->random_seed()) +
            "_" + ::testing::UnitTest::GetInstance()
                      ->current_test_info()
                      ->name());
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override {
    Failpoints::Instance().DisarmAll();
    fs::remove_all(dir_);
  }

  std::string Path(const std::string& name) const {
    return (dir_ / name).string();
  }

  std::shared_ptr<BufferPool> TinyPool() {
    return std::make_shared<BufferPool>(1);  // kMinFrames frames
  }

  // Decodes cell (row, col) the way paged consumers do: cursor code, then
  // dictionary lookup (or NULL for the sentinel code).
  static Value DecodeCell(const PagedSnapshot& snap, PagedCodeCursor* cursor,
                          size_t column, size_t row) {
    uint32_t code = cursor->At(row);
    if (code == EncodedTable::kNullCode) return Value::Null();
    auto value = snap.DictValueAt(column, code);
    EXPECT_TRUE(value.ok()) << value.status().ToString();
    return value.ok() ? *value : Value::Null();
  }

  fs::path dir_;
};

Table MixedTable(int rows) {
  RelationSchema schema("orders");
  EXPECT_TRUE(schema.AddAttribute("id", DataType::kInt64).ok());
  EXPECT_TRUE(schema.AddAttribute("city", DataType::kString).ok());
  EXPECT_TRUE(schema.AddAttribute("weight", DataType::kDouble).ok());
  EXPECT_TRUE(schema.AddAttribute("express", DataType::kBool).ok());
  Table table(schema);
  const char* cities[] = {"paris", "namur", "liège"};
  for (int i = 0; i < rows; ++i) {
    ValueVector row;
    row.push_back(Value::Int(i * 7 - 3));
    row.push_back(i % 7 == 3 ? Value::Null() : Value::Text(cities[i % 3]));
    row.push_back(Value::Real(i * 0.5));
    row.push_back(i % 5 == 0 ? Value::Null() : Value::Boolean(i % 2 == 0));
    table.InsertUnchecked(std::move(row));
  }
  return table;
}

TEST_F(PagedSnapshotTest, RoundTripsEveryCellThroughPages) {
  Table table = MixedTable(5000);
  auto written = store::WriteSnapshot(table, Path("orders.snap"));
  ASSERT_TRUE(written.ok()) << written.status().ToString();

  auto snap = OpenSnapshotPaged(Path("orders.snap"), TinyPool());
  ASSERT_TRUE(snap.ok()) << snap.status().ToString();
  EXPECT_EQ((*snap)->num_rows(), 5000u);
  EXPECT_EQ((*snap)->num_columns(), 4u);
  EXPECT_EQ((*snap)->fingerprint(), written->fingerprint);
  EXPECT_EQ((*snap)->schema().name(), "orders");
  EXPECT_TRUE((*snap)->typed(0));
  EXPECT_FALSE((*snap)->has_null(0));
  EXPECT_TRUE((*snap)->has_null(1));

  for (size_t c = 0; c < 4; ++c) {
    auto cursor = (*snap)->Codes(c);
    for (size_t r = 0; r < table.num_rows(); ++r) {
      EXPECT_EQ(DecodeCell(**snap, cursor.get(), c, r), table.row(r)[c])
          << "cell (" << r << ", " << c << ")";
    }
  }
}

TEST_F(PagedSnapshotTest, BatchFetchAgreesWithSingleCodeReads) {
  Table table = MixedTable(7000);
  ASSERT_TRUE(store::WriteSnapshot(table, Path("t.snap")).ok());
  auto snap = OpenSnapshotPaged(Path("t.snap"), TinyPool());
  ASSERT_TRUE(snap.ok()) << snap.status().ToString();

  auto batch_cursor = (*snap)->Codes(1);
  auto point_cursor = (*snap)->Codes(1);
  size_t rows = (*snap)->num_rows();
  for (size_t start = 0; start < rows; start += 2048) {
    size_t count = std::min<size_t>(2048, rows - start);
    const uint32_t* codes = batch_cursor->Fetch(start, count);
    for (size_t i = 0; i < count; ++i) {
      ASSERT_EQ(codes[i], point_cursor->At(start + i))
          << "row " << (start + i);
    }
  }
}

TEST_F(PagedSnapshotTest, DictionaryStreamAndRandomAccessAgree) {
  Table table = MixedTable(900);
  ASSERT_TRUE(store::WriteSnapshot(table, Path("t.snap")).ok());
  auto snap = OpenSnapshotPaged(Path("t.snap"), TinyPool());
  ASSERT_TRUE(snap.ok()) << snap.status().ToString();

  for (size_t c = 0; c < 4; ++c) {
    std::vector<Value> streamed((*snap)->dict_size(c));
    uint32_t seen = 0;
    ASSERT_TRUE((*snap)
                    ->ForEachDictValue(c,
                                       [&](uint32_t code, const Value& v) {
                                         EXPECT_EQ(code, seen++);
                                         streamed[code] = v;
                                       })
                    .ok());
    EXPECT_EQ(seen, (*snap)->dict_size(c));
    for (uint32_t code = 0; code < (*snap)->dict_size(c); ++code) {
      auto value = (*snap)->DictValueAt(c, code);
      ASSERT_TRUE(value.ok()) << value.status().ToString();
      EXPECT_EQ(*value, streamed[code]) << "column " << c << " code " << code;
    }
    auto past = (*snap)->DictValueAt(c, (*snap)->dict_size(c));
    EXPECT_FALSE(past.ok());
  }
}

TEST_F(PagedSnapshotTest, OversizedStringValuesSpanPages) {
  RelationSchema schema("blobs");
  ASSERT_TRUE(schema.AddAttribute("id", DataType::kInt64).ok());
  ASSERT_TRUE(schema.AddAttribute("body", DataType::kString).ok());
  Table table(schema);
  // Values far larger than kPageSize: they span 3-5 consecutive pages and
  // must reassemble exactly through a pool of only kMinFrames frames.
  std::string big_a(3 * kPageSize + 17, 'a');
  std::string big_b(5 * kPageSize - 9, 'b');
  for (size_t i = 0; i < big_a.size(); ++i) {
    big_a[i] = static_cast<char>('a' + (i * 131) % 23);
  }
  for (int i = 0; i < 10; ++i) {
    ValueVector row;
    row.push_back(Value::Int(i));
    row.push_back(i == 7   ? Value::Null()
                  : i == 3 ? Value::Text(big_b)
                           : Value::Text(big_a + std::to_string(i % 2)));
    table.InsertUnchecked(std::move(row));
  }
  ASSERT_TRUE(store::WriteSnapshot(table, Path("blobs.snap")).ok());

  auto snap = OpenSnapshotPaged(Path("blobs.snap"), TinyPool());
  ASSERT_TRUE(snap.ok()) << snap.status().ToString();
  auto cursor = (*snap)->Codes(1);
  for (size_t r = 0; r < table.num_rows(); ++r) {
    EXPECT_EQ(DecodeCell(**snap, cursor.get(), 1, r), table.row(r)[1])
        << "row " << r;
  }
}

TEST_F(PagedSnapshotTest, ErrorMessagesMatchTheWholeFileLoader) {
  Table table = MixedTable(800);
  ASSERT_TRUE(store::WriteSnapshot(table, Path("t.snap")).ok());
  std::ifstream in(Path("t.snap"), std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();

  struct Corruption {
    const char* name;
    std::function<std::string(std::string)> apply;
  };
  std::vector<Corruption> corruptions = {
      {"bad_magic",
       [](std::string b) {
         b[0] ^= 0x40;
         return b;
       }},
      {"schema_flip",
       [](std::string b) {
         b[8 + 12 + 2] ^= 0x01;  // inside the schema blob
         return b;
       }},
      {"payload_flip",
       [](std::string b) {
         b[b.size() / 2] ^= 0x01;  // inside some column payload
         return b;
       }},
      {"truncated_tail",
       [](std::string b) {
         b.resize(b.size() - 37);  // footer and part of the last column gone
         return b;
       }},
      {"truncated_header",
       [](std::string b) {
         b.resize(6);
         return b;
       }},
  };

  for (const Corruption& corruption : corruptions) {
    std::string path = Path(std::string("bad_") + corruption.name + ".snap");
    std::string mutated = corruption.apply(bytes);
    std::ofstream out(path, std::ios::binary);
    out.write(mutated.data(), static_cast<std::streamsize>(mutated.size()));
    out.close();

    auto whole = store::LoadSnapshot(path);
    auto paged = OpenSnapshotPaged(path, TinyPool());
    ASSERT_FALSE(whole.ok()) << corruption.name;
    ASSERT_FALSE(paged.ok()) << corruption.name;
    EXPECT_EQ(paged.status().ToString(), whole.status().ToString())
        << corruption.name;
  }
}

// ---- canonical code pages ------------------------------------------------
//
// Past the checksums, both openers hold every code page to the canonical
// encoding. Each case edits one column page, recomputes its CRC32C so the
// edit reaches the structural checks, and expects the same ParseError from
// the paged opener and the whole-file loader.

class SnapshotCodePageTest : public PagedSnapshotTest {
 protected:
  static constexpr int kRows = 120;

  // The snapshot of MixedTable(kRows) with `edit` applied to column page
  // `column` and the page resealed; returns the file's path.
  template <typename Edit>
  std::string Corrupt(size_t column, const Edit& edit) {
    const std::string path = Path("edited.snap");
    EXPECT_TRUE(store::WriteSnapshot(MixedTable(kRows), path).ok());
    std::string bytes = store::testing::ReadBytes(path);
    const store::testing::ColumnPage page =
        store::testing::FindColumnPage(bytes, column, kRows);
    edit(&bytes, page);
    store::testing::Reseal(&bytes, page);
    store::testing::WriteBytes(path, bytes);
    return path;
  }

  // Both openers reject `path` with the same error naming `defect`.
  void ExpectRejected(const std::string& path, size_t column,
                      const std::string& defect) {
    auto paged = OpenSnapshotPaged(path, TinyPool());
    auto whole = store::LoadSnapshot(path);
    ASSERT_FALSE(whole.ok());
    EXPECT_EQ(whole.status().code(), StatusCode::kParseError);
    EXPECT_NE(whole.status().message().find(
                  "column page " + std::to_string(column) + " " + defect),
              std::string::npos)
        << whole.status().ToString();
    ASSERT_FALSE(paged.ok());
    EXPECT_EQ(paged.status().ToString(), whole.status().ToString());
  }
};

TEST_F(SnapshotCodePageTest, OutOfRangeCodeIsRejected) {
  // City: three dictionary entries, so code 3 indexes past the dictionary.
  const std::string path =
      Corrupt(1, [](std::string* bytes, const store::testing::ColumnPage& p) {
        ASSERT_EQ(p.dict_size, 3u);
        store::testing::SetCode(bytes, p, 0, p.dict_size);
      });
  auto paged = OpenSnapshotPaged(path, TinyPool());
  EXPECT_FALSE(paged.ok());
  if (paged.ok()) {
    // An opener that let the page through would hand the code to the
    // partition builder, which indexes a dict_size-long array with it.
    Table table(MixedTable(0).schema());
    ASSERT_TRUE(table.AdoptPagedExtension(*paged).ok());
    auto cache = table.query_cache();
    ASSERT_TRUE(cache.ok());
    (*cache)->Partition({1}, NullPolicy::kSkipNullRows);
  }
  ExpectRejected(path, 1, "has an out-of-range code");
}

TEST_F(SnapshotCodePageTest, OutOfOrderCodesAreRejected) {
  // Row 0 takes code 1 before code 0 has appeared.
  const std::string path =
      Corrupt(1, [](std::string* bytes, const store::testing::ColumnPage& p) {
        ASSERT_EQ(store::testing::CodeAt(*bytes, p, 0), 0u);
        store::testing::SetCode(bytes, p, 0, 1);
      });
  ExpectRejected(path, 1, "has codes out of first-appearance order");
}

TEST_F(SnapshotCodePageTest, UnusedDictionaryEntryIsRejected) {
  // Every row of the last city moves to the first: its entry is unused.
  const std::string path =
      Corrupt(1, [](std::string* bytes, const store::testing::ColumnPage& p) {
        for (size_t row = 0; row < kRows; ++row) {
          if (store::testing::CodeAt(*bytes, p, row) == p.dict_size - 1) {
            store::testing::SetCode(bytes, p, row, 0);
          }
        }
      });
  ExpectRejected(path, 1, "has an unused dictionary entry");
}

TEST_F(SnapshotCodePageTest, LyingNullFlagIsRejected) {
  // Ids hold no NULL; claiming one would invent a NULL group.
  ExpectRejected(
      Corrupt(0,
              [](std::string* bytes, const store::testing::ColumnPage& p) {
                store::testing::SetHasNull(bytes, p, true);
              }),
      0, "has a wrong NULL flag");
  // Cities hold NULLs; denying them would silently drop the NULL group.
  ExpectRejected(
      Corrupt(1,
              [](std::string* bytes, const store::testing::ColumnPage& p) {
                store::testing::SetHasNull(bytes, p, false);
              }),
      1, "has a wrong NULL flag");
}

TEST_F(PagedSnapshotTest, OpenFailpointSurfaces) {
  Table table = MixedTable(10);
  ASSERT_TRUE(store::WriteSnapshot(table, Path("t.snap")).ok());
  ASSERT_TRUE(Failpoints::Instance().Arm("pagestore.open", "error#1").ok());
  auto snap = OpenSnapshotPaged(Path("t.snap"), TinyPool());
  ASSERT_FALSE(snap.ok());
  EXPECT_EQ(snap.status().code(), StatusCode::kIoError);
  EXPECT_TRUE(OpenSnapshotPaged(Path("t.snap"), TinyPool()).ok());
}

TEST_F(PagedSnapshotTest, EmptyExtensionOpensAndIndexes) {
  Table table = MixedTable(0);
  ASSERT_TRUE(store::WriteSnapshot(table, Path("empty.snap")).ok());
  auto snap = OpenSnapshotPaged(Path("empty.snap"), TinyPool());
  ASSERT_TRUE(snap.ok()) << snap.status().ToString();
  EXPECT_EQ((*snap)->num_rows(), 0u);
  auto index = (*snap)->KeyIndexFor(0);
  ASSERT_TRUE(index.ok()) << index.status().ToString();
  EXPECT_FALSE((*index)->ContainsKey(0));
}

TEST_F(PagedSnapshotTest, ExactInt64IndexProbesByBitPattern) {
  Table table = MixedTable(4000);
  ASSERT_TRUE(store::WriteSnapshot(table, Path("t.snap")).ok());
  auto snap = OpenSnapshotPaged(Path("t.snap"), TinyPool());
  ASSERT_TRUE(snap.ok()) << snap.status().ToString();

  auto index = (*snap)->KeyIndexFor(0);
  ASSERT_TRUE(index.ok()) << index.status().ToString();
  EXPECT_TRUE((*index)->exact());
  for (int i : {0, 1, 17, 3999}) {
    uint64_t key = static_cast<uint64_t>(int64_t{i} * 7 - 3);
    EXPECT_TRUE((*index)->ContainsKey(key)) << i;
    uint32_t probed_code = EncodedTable::kNullCode;
    ASSERT_TRUE((*index)
                    ->ForEachCode(key,
                                  [&](uint32_t code) {
                                    probed_code = code;
                                    return false;
                                  })
                    .ok());
    ASSERT_NE(probed_code, EncodedTable::kNullCode);
    auto value = (*snap)->DictValueAt(0, probed_code);
    ASSERT_TRUE(value.ok());
    EXPECT_EQ(*value, Value::Int(int64_t{i} * 7 - 3));
  }
  EXPECT_FALSE((*index)->ContainsKey(static_cast<uint64_t>(int64_t{5})));
  EXPECT_FALSE((*index)->ContainsKey(static_cast<uint64_t>(int64_t{-4})));
}

TEST_F(PagedSnapshotTest, InexactIndexProbesBySketchHash) {
  Table table = MixedTable(600);
  ASSERT_TRUE(store::WriteSnapshot(table, Path("t.snap")).ok());
  auto snap = OpenSnapshotPaged(Path("t.snap"), TinyPool());
  ASSERT_TRUE(snap.ok()) << snap.status().ToString();

  auto index = (*snap)->KeyIndexFor(1);
  ASSERT_TRUE(index.ok()) << index.status().ToString();
  EXPECT_FALSE((*index)->exact());
  for (const char* city : {"paris", "namur", "liège"}) {
    uint64_t key = SketchHash(Value::Text(city));
    EXPECT_TRUE((*index)->ContainsKey(key)) << city;
    // An inexact hit must verify by decoding the candidate code.
    bool verified = false;
    ASSERT_TRUE((*index)
                    ->ForEachCode(key,
                                  [&](uint32_t code) {
                                    auto value = (*snap)->DictValueAt(1, code);
                                    EXPECT_TRUE(value.ok());
                                    if (value.ok() &&
                                        *value == Value::Text(city)) {
                                      verified = true;
                                      return false;
                                    }
                                    return true;
                                  })
                    .ok());
    EXPECT_TRUE(verified) << city;
  }
  EXPECT_FALSE((*index)->ContainsKey(SketchHash(Value::Text("bruxelles"))));
}

TEST_F(PagedSnapshotTest, SpilledIndexIsReusedAcrossOpens) {
  Table table = MixedTable(2500);
  ASSERT_TRUE(store::WriteSnapshot(table, Path("t.snap")).ok());
  {
    auto snap = OpenSnapshotPaged(Path("t.snap"), TinyPool());
    ASSERT_TRUE(snap.ok());
    ASSERT_TRUE((*snap)->KeyIndexFor(0).ok());
  }
  ASSERT_TRUE(fs::exists(Path("t.snap") + ".c0.idx"));

  // A fresh open must satisfy KeyIndexFor from the spilled file: with
  // writes failing, only a load can succeed.
  ASSERT_TRUE(
      Failpoints::Instance().Arm("pagestore.index_write", "error").ok());
  auto snap = OpenSnapshotPaged(Path("t.snap"), TinyPool());
  ASSERT_TRUE(snap.ok());
  auto index = (*snap)->KeyIndexFor(0);
  ASSERT_TRUE(index.ok()) << index.status().ToString();
  EXPECT_TRUE(
      (*index)->ContainsKey(static_cast<uint64_t>(int64_t{17} * 7 - 3)));
}

TEST_F(PagedSnapshotTest, CorruptSpilledIndexIsRebuilt) {
  Table table = MixedTable(2500);
  ASSERT_TRUE(store::WriteSnapshot(table, Path("t.snap")).ok());
  {
    auto snap = OpenSnapshotPaged(Path("t.snap"), TinyPool());
    ASSERT_TRUE(snap.ok());
    ASSERT_TRUE((*snap)->KeyIndexFor(0).ok());
  }
  std::string idx_path = Path("t.snap") + ".c0.idx";
  {
    std::fstream f(idx_path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(100);
    f.put('\x7f');
  }
  auto snap = OpenSnapshotPaged(Path("t.snap"), TinyPool());
  ASSERT_TRUE(snap.ok());
  auto index = (*snap)->KeyIndexFor(0);
  ASSERT_TRUE(index.ok()) << index.status().ToString();
  EXPECT_TRUE(
      (*index)->ContainsKey(static_cast<uint64_t>(int64_t{17} * 7 - 3)));
  EXPECT_FALSE((*index)->ContainsKey(static_cast<uint64_t>(int64_t{5})));
}

TEST_F(PagedSnapshotTest, IndexLoadFailpointFallsBackToRebuild) {
  Table table = MixedTable(1200);
  ASSERT_TRUE(store::WriteSnapshot(table, Path("t.snap")).ok());
  {
    auto snap = OpenSnapshotPaged(Path("t.snap"), TinyPool());
    ASSERT_TRUE(snap.ok());
    ASSERT_TRUE((*snap)->KeyIndexFor(0).ok());
  }
  ASSERT_TRUE(
      Failpoints::Instance().Arm("pagestore.index_load", "error#1").ok());
  auto snap = OpenSnapshotPaged(Path("t.snap"), TinyPool());
  ASSERT_TRUE(snap.ok());
  auto index = (*snap)->KeyIndexFor(0);
  ASSERT_TRUE(index.ok()) << index.status().ToString();
  EXPECT_TRUE(
      (*index)->ContainsKey(static_cast<uint64_t>(int64_t{0} * 7 - 3)));
}

TEST_F(PagedSnapshotTest, IndexWriteFailpointSurfacesOnFirstBuild) {
  Table table = MixedTable(1200);
  ASSERT_TRUE(store::WriteSnapshot(table, Path("t.snap")).ok());
  auto snap = OpenSnapshotPaged(Path("t.snap"), TinyPool());
  ASSERT_TRUE(snap.ok());
  ASSERT_TRUE(
      Failpoints::Instance().Arm("pagestore.index_write", "error#1").ok());
  auto failed = (*snap)->KeyIndexFor(2);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kIoError);
  auto retried = (*snap)->KeyIndexFor(2);
  EXPECT_TRUE(retried.ok()) << retried.status().ToString();
}

TEST_F(PagedSnapshotTest, TornIndexWriteLeavesNoUsableFileBehind) {
  Table table = MixedTable(1200);
  ASSERT_TRUE(store::WriteSnapshot(table, Path("t.snap")).ok());
  ASSERT_TRUE(
      Failpoints::Instance().Arm("pagestore.index_write", "torn(40)#1").ok());
  {
    auto snap = OpenSnapshotPaged(Path("t.snap"), TinyPool());
    ASSERT_TRUE(snap.ok());
    auto failed = (*snap)->KeyIndexFor(0);
    ASSERT_FALSE(failed.ok());
    // The torn temp file never reached the final name.
    EXPECT_FALSE(fs::exists(Path("t.snap") + ".c0.idx"));
  }
  Failpoints::Instance().DisarmAll();
  auto snap = OpenSnapshotPaged(Path("t.snap"), TinyPool());
  ASSERT_TRUE(snap.ok());
  auto index = (*snap)->KeyIndexFor(0);
  ASSERT_TRUE(index.ok()) << index.status().ToString();
}

}  // namespace
}  // namespace dbre::pagestore
