// Satellite guard of the live-mutation work (docs/INCREMENTAL.md): a
// mutation against a page-backed table copies its columns out of the pool
// (they become resident) and edits the copies — it never writes through
// the buffer pool, and a predicate matching nothing leaves the table paged.
// Runs honestly small via test_pool.h: DBRE_TEST_BUFFER_POOL_MB=16 re-runs
// the suite at the tiny-pool CI budget.
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "pagestore/buffer_pool.h"
#include "pagestore/paged_snapshot.h"
#include "relational/database.h"
#include "relational/paged_source.h"
#include "sql/dml.h"
#include "store/snapshot.h"
#include "test_pool.h"

namespace dbre {
namespace {

namespace fs = std::filesystem;

class PagedMutationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("dbre_paged_mutation_" +
            std::to_string(
                ::testing::UnitTest::GetInstance()->random_seed()) +
            "_" + ::testing::UnitTest::GetInstance()
                      ->current_test_info()
                      ->name());
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    pool_ = std::make_shared<pagestore::BufferPool>(TestBufferPoolBytes());
  }
  void TearDown() override { fs::remove_all(dir_); }

  Table MakeTable(int rows) {
    RelationSchema schema("R");
    EXPECT_TRUE(schema.AddAttribute("id", DataType::kInt64).ok());
    EXPECT_TRUE(schema.AddAttribute("label", DataType::kString).ok());
    Table table(schema);
    for (int i = 0; i < rows; ++i) {
      table.InsertUnchecked(
          {Value::Int(i), Value::Text("row-" + std::to_string(i % 17))});
    }
    return table;
  }

  // Snapshots `table` and swaps its extension for the page-backed source.
  void MakePaged(Table* table) {
    path_ = (dir_ / "r.snap").string();
    auto written = store::WriteSnapshot(*table, path_);
    ASSERT_TRUE(written.ok()) << written.status().ToString();
    auto source = pagestore::OpenSnapshotPaged(path_, pool_);
    ASSERT_TRUE(source.ok()) << source.status().ToString();
    ASSERT_TRUE(table->AdoptPagedExtension(*source).ok());
    ASSERT_TRUE(table->is_paged());
  }

  fs::path dir_;
  std::string path_;
  std::shared_ptr<pagestore::BufferPool> pool_;
};

TEST_F(PagedMutationTest, DirectMutationsMakeColumnsResident) {
  Table table = MakeTable(500);
  MakePaged(&table);
  const RowPredicate none = {ColumnTest{
      0, [](const Value& v) { return v.as_int() > 1'000'000; }}};

  // Predicates matching nothing change nothing: still paged.
  auto updated = table.UpdateRows({1}, {Value::Text("x")}, none);
  ASSERT_TRUE(updated.ok()) << updated.status().ToString();
  EXPECT_EQ(*updated, 0u);
  auto deleted = table.DeleteRows(none);
  ASSERT_TRUE(deleted.ok()) << deleted.status().ToString();
  EXPECT_EQ(*deleted, 0u);
  EXPECT_TRUE(table.is_paged());

  // An append makes every column resident and lands after the snapshot's
  // rows.
  ASSERT_TRUE(table.Insert({Value::Int(999), Value::Text("x")}).ok());
  EXPECT_FALSE(table.is_paged());
  for (size_t c = 0; c < table.schema().arity(); ++c) {
    EXPECT_FALSE(table.column(c).paged());
  }
  ASSERT_EQ(table.num_rows(), 501u);
  EXPECT_EQ(table.row(0), (ValueVector{Value::Int(0), Value::Text("row-0")}));
  EXPECT_EQ(table.row(500), (ValueVector{Value::Int(999), Value::Text("x")}));

  // The snapshot itself is untouched.
  auto source = pagestore::OpenSnapshotPaged(path_, pool_);
  ASSERT_TRUE(source.ok()) << source.status().ToString();
  EXPECT_EQ((*source)->num_rows(), 500u);
}

TEST_F(PagedMutationTest, MutatePagedTableDirectly) {
  Table table = MakeTable(400);
  MakePaged(&table);

  auto updated = table.UpdateRows(
      {1}, {Value::Text("mutated")},
      {ColumnTest{0, [](const Value& v) { return v.as_int() < 10; }}});
  ASSERT_TRUE(updated.ok()) << updated.status().ToString();
  EXPECT_EQ(*updated, 10u);
  EXPECT_FALSE(table.is_paged());
  ASSERT_EQ(table.rows().size(), 400u);
  EXPECT_EQ(table.rows()[0][1].as_text(), "mutated");
  EXPECT_EQ(table.rows()[10][1].as_text(), "row-10");
}

TEST_F(PagedMutationTest, DmlMaterializesThenMutatesPagedTargets) {
  Database database;
  Table table = MakeTable(600);
  MakePaged(&table);
  ASSERT_TRUE(database.AddTable(std::move(table)).ok());

  auto stats = sql::ExecuteDmlScript(
      "UPDATE R SET label = 'rewritten' WHERE id < 50;"
      "DELETE FROM R WHERE id >= 550;"
      "INSERT INTO R VALUES (9000, 'fresh');",
      &database);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->rows_updated, 50u);
  EXPECT_EQ(stats->rows_deleted, 50u);
  EXPECT_EQ(stats->rows_inserted, 1u);

  const Table& mutated = **database.GetTable("R");
  EXPECT_FALSE(mutated.is_paged());
  EXPECT_EQ(mutated.rows().size(), 551u);
  EXPECT_EQ(mutated.rows()[0][1].as_text(), "rewritten");

  // The mutation never wrote through the pool: re-opening the snapshot
  // yields the original extension, byte for byte.
  auto source = pagestore::OpenSnapshotPaged(path_, pool_);
  ASSERT_TRUE(source.ok()) << source.status().ToString();
  Table reopened = MakeTable(0);
  ASSERT_TRUE(reopened.AdoptPagedExtension(*source).ok());
  size_t rows = 0;
  ASSERT_TRUE(reopened
                  .ForEachRow([&](const ValueVector& row) {
                    if (rows == 0) {
                      EXPECT_EQ(row[1].as_text(), "row-0");  // not rewritten
                    }
                    ++rows;
                  })
                  .ok());
  EXPECT_EQ(rows, 600u);
}

TEST_F(PagedMutationTest, MaterializedMutantDivergesFromSnapshot) {
  // Two tables over the same snapshot: mutating one (its columns made
  // resident) must not disturb the other's paged reads mid-stream.
  Database database;
  Table a = MakeTable(300);
  MakePaged(&a);
  auto source = pagestore::OpenSnapshotPaged(path_, pool_);
  ASSERT_TRUE(source.ok());
  Table b = MakeTable(0);
  ASSERT_TRUE(b.AdoptPagedExtension(*source).ok());
  ASSERT_TRUE(database.AddTable(std::move(a)).ok());

  auto stats =
      sql::ExecuteDmlScript("DELETE FROM R WHERE id < 100;", &database);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->rows_deleted, 100u);

  size_t rows = 0;
  ASSERT_TRUE(b.ForEachRow([&](const ValueVector&) { ++rows; }).ok());
  EXPECT_EQ(rows, 300u);  // the paged sibling still reads the snapshot
}

}  // namespace
}  // namespace dbre
