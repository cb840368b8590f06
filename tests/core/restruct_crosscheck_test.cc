// The columnar Restruct (src/core/restruct.cc) against the row-insert
// reference (restruct_reference.h): for the paper example, the library
// example, generated databases and hand-built extensions, both must build
// the same restructured catalog — every new and every shrunk relation with
// identical codes, dictionaries (bit for bit: -0.0 is not 0.0, NaN is
// NaN), has_null/typed flags and decoded row order — and fail with the
// same error when a source column holds an off-type cell.
//
// Each case also runs the columnar Restruct over a page-backed copy of the
// input, through a buffer pool sized by DBRE_TEST_BUFFER_POOL_MB (a
// handful of frames by default), against the same resident reference.
#include <bit>
#include <filesystem>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/ind_discovery.h"
#include "core/lhs_discovery.h"
#include "core/restruct.h"
#include "core/rhs_discovery.h"
#include "pagestore/buffer_pool.h"
#include "pagestore/paged_snapshot.h"
#include "relational/query_cache.h"
#include "restruct_reference.h"
#include "store/snapshot.h"
#include "test_pool.h"
#include "workload/generator.h"
#include "workload/library_example.h"
#include "workload/paper_example.h"

namespace dbre {
namespace {

namespace fs = std::filesystem;

// Same tag and same payload; doubles compare by bit pattern.
bool Identical(const Value& a, const Value& b) {
  if (a.is_real() && b.is_real()) {
    return std::bit_cast<uint64_t>(a.as_real()) ==
           std::bit_cast<uint64_t>(b.as_real());
  }
  return a.is_real() == b.is_real() && a == b;
}

std::string Render(const ValueVector& values) {
  std::string out = "(";
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ", ";
    out += values[i].ToString();
  }
  return out + ")";
}

// One column as stored, read residency-agnostically through the cache.
struct ColumnImage {
  DataType type = DataType::kInt64;
  std::vector<uint32_t> codes;
  ValueVector dictionary;
  bool has_null = false;
  bool typed = true;
};

std::vector<ColumnImage> Images(const Table& table) {
  std::vector<ColumnImage> images;
  auto cache = table.query_cache();
  EXPECT_TRUE(cache.ok());
  if (!cache.ok()) return images;
  std::vector<size_t> all(table.schema().arity());
  for (size_t c = 0; c < all.size(); ++c) all[c] = c;
  (*cache)->EnsureEncoded(all);
  const EncodedTable& encoded = (*cache)->encoded();
  for (size_t c = 0; c < all.size(); ++c) {
    ColumnImage& image = images.emplace_back();
    image.type = encoded.declared_type(c);
    image.has_null = encoded.has_null(c);
    image.typed = encoded.column_typed(c);
    EncodedTable::CodeReader reader = encoded.codes_reader(c);
    for (size_t row = 0; row < table.num_rows(); ++row) {
      image.codes.push_back(reader.At(row));
    }
    EXPECT_TRUE(encoded
                    .ForEachDictValue(c,
                                      [&](uint32_t, const Value& value) {
                                        image.dictionary.push_back(value);
                                      })
                    .ok());
  }
  return images;
}

void ExpectSameTable(const Table& got, const Table& want) {
  const std::string& name = want.schema().name();
  SCOPED_TRACE("relation " + name);
  ASSERT_EQ(got.schema().ToString(), want.schema().ToString());
  ASSERT_EQ(got.num_rows(), want.num_rows());
  const std::vector<ColumnImage> got_columns = Images(got);
  const std::vector<ColumnImage> want_columns = Images(want);
  ASSERT_EQ(got_columns.size(), want_columns.size());
  for (size_t c = 0; c < want_columns.size(); ++c) {
    SCOPED_TRACE("column " + want.schema().attributes()[c].name);
    const ColumnImage& g = got_columns[c];
    const ColumnImage& w = want_columns[c];
    EXPECT_EQ(g.type, w.type);
    EXPECT_EQ(g.codes, w.codes);
    EXPECT_EQ(g.has_null, w.has_null);
    EXPECT_EQ(g.typed, w.typed);
    ASSERT_EQ(g.dictionary.size(), w.dictionary.size());
    for (size_t i = 0; i < w.dictionary.size(); ++i) {
      EXPECT_TRUE(Identical(g.dictionary[i], w.dictionary[i]))
          << "entry " << i << ": " << g.dictionary[i] << " vs "
          << w.dictionary[i];
    }
  }
  std::vector<ValueVector> got_rows;
  std::vector<ValueVector> want_rows;
  ASSERT_TRUE(got.ForEachRow([&](const ValueVector& row) {
                   got_rows.push_back(row);
                 }).ok());
  ASSERT_TRUE(want.ForEachRow([&](const ValueVector& row) {
                    want_rows.push_back(row);
                  }).ok());
  for (size_t i = 0; i < want_rows.size(); ++i) {
    bool same = got_rows[i].size() == want_rows[i].size();
    for (size_t k = 0; same && k < want_rows[i].size(); ++k) {
      same = Identical(got_rows[i][k], want_rows[i][k]);
    }
    EXPECT_TRUE(same) << "row " << i << ": " << Render(got_rows[i]) << " vs "
                      << Render(want_rows[i]);
  }
}

void ExpectSameResult(const RestructResult& got, const RestructResult& want) {
  ASSERT_EQ(got.database.RelationNames(), want.database.RelationNames());
  for (const std::string& name : want.database.RelationNames()) {
    ExpectSameTable(**got.database.GetTable(name),
                    **want.database.GetTable(name));
  }
  EXPECT_EQ(got.inds, want.inds);
  EXPECT_EQ(got.rics, want.rics);
  EXPECT_EQ(got.keys, want.keys);
  EXPECT_EQ(got.provenance, want.provenance);
}

// What Restruct receives from the pipeline: the working catalog after
// IND-Discovery and the elicited F, H and IND.
struct RestructInput {
  Database database;
  std::vector<FunctionalDependency> fds;
  std::vector<QualifiedAttributes> hidden;
  std::vector<InclusionDependency> inds;
};

RestructInput Discover(const Database& database,
                       const std::vector<EquiJoin>& joins,
                       ExpertOracle* oracle) {
  RestructInput input;
  input.database = database.Clone();
  auto ind = DiscoverInds(&input.database, joins, oracle);
  EXPECT_TRUE(ind.ok()) << ind.status();
  if (!ind.ok()) return input;
  LhsDiscoveryResult lhs =
      DiscoverLhs(input.database, ind->new_relations, ind->inds);
  auto rhs = DiscoverRhs(input.database, lhs.lhs, lhs.hidden, oracle);
  EXPECT_TRUE(rhs.ok()) << rhs.status();
  if (!rhs.ok()) return input;
  input.fds = rhs->fds;
  input.hidden = rhs->hidden;
  input.inds = ind->inds;
  return input;
}

class RestructCrosscheckTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("dbre_restruct_crosscheck_" +
            std::to_string(
                ::testing::UnitTest::GetInstance()->random_seed()) +
            "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    pool_ = std::make_shared<pagestore::BufferPool>(TestBufferPoolBytes());
  }
  void TearDown() override { fs::remove_all(dir_); }

  // `database` with every relation page-backed through pool_.
  Database PagedCopy(const Database& database) {
    Database paged = database.Clone();
    for (const std::string& name : paged.RelationNames()) {
      Table* table = *paged.GetMutableTable(name);
      const std::string path =
          (dir_ / (name + "_" + std::to_string(copies_) + ".snap")).string();
      auto written = store::WriteSnapshot(*table, path);
      EXPECT_TRUE(written.ok()) << written.status();
      auto source = pagestore::OpenSnapshotPaged(path, pool_);
      EXPECT_TRUE(source.ok()) << source.status();
      if (!written.ok() || !source.ok()) continue;
      EXPECT_TRUE(table->AdoptPagedExtension(*source).ok());
      EXPECT_TRUE(table->is_paged());
    }
    ++copies_;
    return paged;
  }

  // Columnar Restruct over `input` resident and paged against the
  // reference over it resident: same result, or the same error.
  void Check(const RestructInput& input, ExpertOracle* oracle) {
    auto want = RowInsertRestruct(input.database, input.fds, input.hidden,
                                  input.inds, oracle);
    auto resident = Restruct(input.database, input.fds, input.hidden,
                             input.inds, oracle);
    Database paged_database = PagedCopy(input.database);
    auto paged = Restruct(paged_database, input.fds, input.hidden,
                          input.inds, oracle);
    if (!want.ok()) {
      ASSERT_FALSE(resident.ok());
      ASSERT_FALSE(paged.ok());
      EXPECT_EQ(resident.status().ToString(), want.status().ToString());
      EXPECT_EQ(paged.status().ToString(), want.status().ToString());
      return;
    }
    ASSERT_TRUE(resident.ok()) << resident.status();
    ASSERT_TRUE(paged.ok()) << paged.status();
    {
      SCOPED_TRACE("resident");
      ExpectSameResult(*resident, *want);
    }
    {
      SCOPED_TRACE("paged");
      ExpectSameResult(*paged, *want);
    }
  }

  fs::path dir_;
  std::shared_ptr<pagestore::BufferPool> pool_;
  int copies_ = 0;
};

ThresholdOracle AcceptingOracle() {
  ThresholdOracle::Options options;
  options.accept_hidden_objects = true;
  return ThresholdOracle(options);
}

TEST_F(RestructCrosscheckTest, PaperExample) {
  auto database = workload::BuildPaperDatabase();
  ASSERT_TRUE(database.ok()) << database.status();
  auto oracle = workload::PaperOracle();
  RestructInput input =
      Discover(*database, workload::PaperJoinSet(), oracle.get());
  ASSERT_FALSE(input.fds.empty());
  Check(input, oracle.get());
}

TEST_F(RestructCrosscheckTest, LibraryExample) {
  auto database = workload::BuildLibraryDatabase();
  ASSERT_TRUE(database.ok()) << database.status();
  auto oracle = workload::LibraryOracle();
  RestructInput input =
      Discover(*database, workload::LibraryJoinSet(), oracle.get());
  ASSERT_FALSE(input.fds.empty());
  Check(input, oracle.get());
}

TEST_F(RestructCrosscheckTest, GeneratedFamilies) {
  struct Family {
    size_t entities, composite, merged, rows;
    double orphans;
    bool obfuscate;
    uint64_t seed;
  };
  const Family families[] = {
      {5, 0, 2, 400, 0.0, false, 1},  {6, 2, 3, 300, 0.0, false, 7},
      {4, 1, 2, 250, 0.05, false, 13}, {5, 0, 3, 350, 0.02, true, 21},
      {3, 0, 1, 1, 0.0, false, 5},
  };
  for (const Family& family : families) {
    SCOPED_TRACE("seed " + std::to_string(family.seed));
    workload::SyntheticSpec spec;
    spec.num_entities = family.entities;
    spec.num_composite_keys = family.composite;
    spec.num_merged = family.merged;
    spec.rows_per_entity = family.rows;
    spec.orphan_rate = family.orphans;
    spec.obfuscate_names = family.obfuscate;
    spec.seed = family.seed;
    auto generated = workload::GenerateSynthetic(spec);
    ASSERT_TRUE(generated.ok()) << generated.status();
    ThresholdOracle oracle = AcceptingOracle();
    RestructInput input =
        Discover(generated->database, generated->queries, &oracle);
    Check(input, &oracle);
  }
}

// prefix + n, built by appending (GCC 12 misreports "literal" +
// std::to_string under -Wrestrict).
std::string Tagged(std::string prefix, int64_t n) {
  prefix += std::to_string(n);
  return prefix;
}

// Orders(id, cust, region, city, score, rate, vip, note): cust → city
// fails (first wins), region holds NULLs, score mixes -0.0/0.0 and NaN,
// and rate/vip/note are double/bool/text.
Database MixedDatabase() {
  Database db;
  RelationSchema schema("Orders");
  EXPECT_TRUE(schema.AddAttribute("id", DataType::kInt64).ok());
  EXPECT_TRUE(schema.AddAttribute("cust", DataType::kInt64).ok());
  EXPECT_TRUE(schema.AddAttribute("region", DataType::kString).ok());
  EXPECT_TRUE(schema.AddAttribute("city", DataType::kString).ok());
  EXPECT_TRUE(schema.AddAttribute("score", DataType::kDouble).ok());
  EXPECT_TRUE(schema.AddAttribute("rate", DataType::kDouble).ok());
  EXPECT_TRUE(schema.AddAttribute("vip", DataType::kBool).ok());
  EXPECT_TRUE(schema.AddAttribute("note", DataType::kString).ok());
  EXPECT_TRUE(schema.DeclareUnique({"id"}).ok());
  Table table(std::move(schema));
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (int64_t i = 0; i < 240; ++i) {
    const int64_t cust = (i * 7919) % 37 - 18;  // negative keys too
    const Value region = i % 9 == 4 ? Value::Null()
                                    : Value::Text(Tagged("r", i % 5));
    const Value city = Value::Text(Tagged("c", (cust * 3 + i % 2) % 11));
    const Value score = i % 13 == 0   ? Value::Real(nan)
                        : i % 6 == 1  ? Value::Real(-0.0)
                        : i % 6 == 2  ? Value::Real(0.0)
                        : i % 10 == 3 ? Value::Null()
                                      : Value::Real((i % 7) * 0.5 - 1);
    const Value rate = i % 17 == 0 ? Value::Null()
                                   : Value::Real(static_cast<double>(cust) /
                                                 4.0);
    const Value vip = cust % 4 == 0 ? Value::Null() : Value::Boolean(cust > 0);
    const Value note =
        i % 8 == 0 ? Value::Null()
                   : Value::Text(Tagged(std::string(i % 3, 'z'), cust));
    EXPECT_TRUE(table
                    .Insert({Value::Int(i), Value::Int(cust), region, city,
                             score, rate, vip, note})
                    .ok());
  }
  EXPECT_TRUE(db.AddTable(std::move(table)).ok());
  return db;
}

FunctionalDependency Fd(const std::string& relation, AttributeSet lhs,
                        AttributeSet rhs) {
  return FunctionalDependency(relation, std::move(lhs), std::move(rhs));
}

QualifiedAttributes Hidden(const std::string& relation, AttributeSet set) {
  return QualifiedAttributes{relation, std::move(set)};
}

TEST_F(RestructCrosscheckTest, SingleAndCompositeLhsWithNullableDependents) {
  DefaultOracle oracle;
  RestructInput input;
  input.database = MixedDatabase();
  // cust → {city, rate, vip, note}: int LHS; text/double/bool/text RHS,
  // NULL-bearing, and city disagrees within a class (first witness wins).
  input.fds = {Fd("Orders", {"cust"}, {"city", "note", "rate", "vip"}),
               Fd("Orders", {"region", "score"}, {"id"})};
  input.inds = {InclusionDependency("Orders", {"cust"}, "Orders", {"id"})};
  Check(input, &oracle);
}

TEST_F(RestructCrosscheckTest, TextDoubleAndBoolLhs) {
  DefaultOracle oracle;
  for (const char* lhs : {"region", "score", "rate", "vip", "note"}) {
    SCOPED_TRACE(lhs);
    RestructInput input;
    input.database = MixedDatabase();
    input.fds = {Fd("Orders", AttributeSet{lhs}, {"cust", "city"})};
    Check(input, &oracle);
  }
}

TEST_F(RestructCrosscheckTest, NanLhsTiesAreBrokenByDependents) {
  // Every NaN is its own LHS class and all NaNs sort together, so the
  // dependents order the NaN rows.
  Database db;
  RelationSchema schema("M");
  EXPECT_TRUE(schema.AddAttribute("x", DataType::kDouble).ok());
  EXPECT_TRUE(schema.AddAttribute("y", DataType::kInt64).ok());
  EXPECT_TRUE(schema.AddAttribute("z", DataType::kString).ok());
  Table table(std::move(schema));
  const Value nan = Value::Real(std::numeric_limits<double>::quiet_NaN());
  // x: NaN on even rows; y: NULL on one NaN row, which sorts first.
  const int64_t ys[] = {5, 3, 9, 3, 1, 7, 5, 2};
  for (size_t i = 0; i < std::size(ys); ++i) {
    const Value x = i % 2 == 0 ? nan : Value::Real(static_cast<double>(i));
    const Value y = i == 6 ? Value::Null() : Value::Int(ys[i]);
    table.InsertUnchecked(
        {x, y, i == 4 ? Value::Null() : Value::Text("t")});
  }
  EXPECT_TRUE(db.AddTable(std::move(table)).ok());
  DefaultOracle oracle;
  for (AttributeSet lhs : {AttributeSet{"x"}, AttributeSet{"x", "z"}}) {
    SCOPED_TRACE(lhs.ToString());
    RestructInput input;
    input.database = db.Clone();
    input.fds = {Fd("M", lhs, {"y"})};
    Check(input, &oracle);
  }
  RestructInput hidden;
  hidden.database = db.Clone();
  hidden.hidden = {Hidden("M", {"x"})};
  Check(hidden, &oracle);
}

TEST_F(RestructCrosscheckTest, SingleAndMultiAttributeHiddenObjects) {
  DefaultOracle oracle;
  RestructInput input;
  input.database = MixedDatabase();
  input.hidden = {Hidden("Orders", {"cust"}), Hidden("Orders", {"score"}),
                  Hidden("Orders", {"region", "vip"}),
                  Hidden("Orders", {"note"})};
  input.fds = {Fd("Orders", {"cust"}, {"city"})};
  input.inds = {InclusionDependency("Orders", {"cust"}, "Orders", {"id"})};
  Check(input, &oracle);
}

TEST_F(RestructCrosscheckTest, SeveralSplitsOfOneRelation) {
  // The second and third splits read a relation the first one shrank.
  DefaultOracle oracle;
  RestructInput input;
  input.database = MixedDatabase();
  input.fds = {Fd("Orders", {"cust"}, {"rate", "vip"}),
               Fd("Orders", {"region"}, {"note"}),
               Fd("Orders", {"id"}, {"city", "score"})};
  Check(input, &oracle);
}

TEST_F(RestructCrosscheckTest, EmptyAndAllNullExtensions) {
  Database db;
  RelationSchema empty("E");
  EXPECT_TRUE(empty.AddAttribute("a", DataType::kInt64).ok());
  EXPECT_TRUE(empty.AddAttribute("b", DataType::kString).ok());
  EXPECT_TRUE(db.CreateRelation(std::move(empty)).ok());
  RelationSchema nulls("N");
  EXPECT_TRUE(nulls.AddAttribute("a", DataType::kInt64).ok());
  EXPECT_TRUE(nulls.AddAttribute("b", DataType::kDouble).ok());
  Table table(std::move(nulls));
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(table.Insert({Value::Null(), Value::Real(i)}).ok());
  }
  EXPECT_TRUE(db.AddTable(std::move(table)).ok());
  DefaultOracle oracle;
  RestructInput input;
  input.database = std::move(db);
  input.hidden = {Hidden("E", {"a"}), Hidden("N", {"a"}),
                  Hidden("N", {"a", "b"})};
  input.fds = {Fd("E", {"a"}, {"b"}), Fd("N", {"a"}, {"b"})};
  Check(input, &oracle);
}

// T(k, v, w) with off-type cells in v (declared string) on some rows only,
// and with `text_in_w` one in w (declared bool) on row 1. (Snapshots keep
// an untyped column only in the variable-width types.)
Database UntypedDatabase(bool mismatch_is_witness, bool text_in_w = false) {
  Database db;
  RelationSchema schema("T");
  EXPECT_TRUE(schema.AddAttribute("k", DataType::kInt64).ok());
  EXPECT_TRUE(schema.AddAttribute("v", DataType::kString).ok());
  EXPECT_TRUE(schema.AddAttribute("w", DataType::kBool).ok());
  Table table(std::move(schema));
  // k = 3, 1, 3, 2, 1: the first witnesses are rows 0, 1 and 3.
  const int64_t ks[] = {3, 1, 3, 2, 1};
  for (size_t i = 0; i < std::size(ks); ++i) {
    Value v = Value::Text(Tagged("s", static_cast<int64_t>(i)));
    if (i == 2) v = Value::Int(102);  // never a first witness
    if (mismatch_is_witness && (i == 0 || i == 3)) {
      v = Value::Int(100 + static_cast<int64_t>(i));
    }
    Value w = Value::Boolean(i % 2 == 0);
    if (text_in_w && i == 1) w = Value::Text("yes");
    table.InsertUnchecked({Value::Int(ks[i]), v, w});
  }
  EXPECT_TRUE(db.AddTable(std::move(table)).ok());
  return db;
}

TEST_F(RestructCrosscheckTest, UntypedSourceFailsOnFirstOffTypeRow) {
  // Output rows are k = 1, 2, 3; the first off-type cell in that order is
  // row 3's witness 103, not row 0's 100.
  DefaultOracle oracle;
  RestructInput input;
  input.database = UntypedDatabase(/*mismatch_is_witness=*/true);
  input.fds = {Fd("T", {"k"}, {"v", "w"})};
  Check(input, &oracle);
  auto result = Restruct(input.database, input.fds, {}, {}, &oracle);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().ToString(),
            "invalid_argument: type mismatch for T_k.v: value 103");

  // Row k = 1 comes first and its w is off-type: the error names it, not
  // v's earlier column.
  RestructInput both;
  both.database = UntypedDatabase(/*mismatch_is_witness=*/true,
                                  /*text_in_w=*/true);
  both.fds = input.fds;
  Check(both, &oracle);
  auto first_row = Restruct(both.database, both.fds, {}, {}, &oracle);
  ASSERT_FALSE(first_row.ok());
  EXPECT_EQ(first_row.status().ToString(),
            "invalid_argument: type mismatch for T_k.w: value yes");

  RestructInput hidden;
  hidden.database = UntypedDatabase(/*mismatch_is_witness=*/true);
  hidden.hidden = {Hidden("T", {"v"}), Hidden("T", {"k", "v"})};
  Check(hidden, &oracle);
}

TEST_F(RestructCrosscheckTest, UntypedSourceWithTypedWitnessesSucceeds) {
  // The only off-type cell is no first witness: the split is well typed.
  DefaultOracle oracle;
  RestructInput input;
  input.database = UntypedDatabase(/*mismatch_is_witness=*/false);
  input.fds = {Fd("T", {"k"}, {"v"})};
  Check(input, &oracle);
  auto result = Restruct(input.database, input.fds, {}, {}, &oracle);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ((*result->database.GetTable("T_k"))->num_rows(), 3u);
}

}  // namespace
}  // namespace dbre
