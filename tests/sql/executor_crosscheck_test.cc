// The SQL executor against the algebra layer: the paper defines ‖r[X]‖ as
// SELECT COUNT(DISTINCT X) FROM R and N_kl as the size of r_k[A_k] ∩
// r_l[A_l], and the executor evaluates those definitions literally,
// tuple-at-a-time, while discovery reads them from the dictionary-encoded
// QueryCache. The two must agree on every 1- and 2-attribute projection and
// every single-column equi-join of adversarial extensions: NULL-heavy
// columns, -0.0 next to 0.0, an empty table, NaN doubles, and row counts
// straddling the batch size of the cache's kernels.
#include <cmath>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "relational/algebra.h"
#include "relational/column_batch.h"
#include "relational/database.h"
#include "relational/query_cache.h"
#include "relational/table.h"
#include "sql/executor.h"

namespace dbre::sql {
namespace {

const Value kNan = Value::Real(std::numeric_limits<double>::quiet_NaN());

// 1, NaN, 1, 2, NaN, 2, 1: each NaN is its own distinct value (NaN equals
// nothing), so ‖Nan[x]‖ = 4.
Table MakeNanTable() {
  RelationSchema schema("Nan");
  EXPECT_TRUE(schema.AddAttribute("x", DataType::kDouble).ok());
  EXPECT_TRUE(schema.AddAttribute("k", DataType::kInt64).ok());
  Table table(std::move(schema));
  const std::vector<Value> xs = {Value::Real(1), kNan, Value::Real(1),
                                 Value::Real(2), kNan, Value::Real(2),
                                 Value::Real(1)};
  for (size_t i = 0; i < xs.size(); ++i) {
    table.InsertUnchecked({xs[i], Value::Int(static_cast<int64_t>(i % 2))});
  }
  return table;
}

Database MakeDatabase(size_t emp_rows) {
  Database db;
  {
    RelationSchema schema("Dept");
    EXPECT_TRUE(schema.AddAttribute("dep", DataType::kInt64).ok());
    EXPECT_TRUE(schema.AddAttribute("name", DataType::kString).ok());
    EXPECT_TRUE(schema.AddAttribute("floor", DataType::kInt64).ok());
    Table table(std::move(schema));
    for (int d = 0; d < 23; ++d) {
      table.InsertUnchecked({Value::Int(d),
                             d % 5 == 0 ? Value::Null()
                                        : Value::Text("d" + std::to_string(d)),
                             Value::Int(d % 4)});
    }
    EXPECT_TRUE(db.AddTable(std::move(table)).ok());
  }
  {
    RelationSchema schema("Emp");
    EXPECT_TRUE(schema.AddAttribute("no", DataType::kInt64).ok());
    EXPECT_TRUE(schema.AddAttribute("dep", DataType::kInt64).ok());
    EXPECT_TRUE(schema.AddAttribute("name", DataType::kString).ok());
    EXPECT_TRUE(schema.AddAttribute("bonus", DataType::kDouble).ok());
    Table table(std::move(schema));
    for (size_t i = 0; i < emp_rows; ++i) {
      // NULL-heavy dep; names repeat; bonus mixes -0.0/0.0 and NULL.
      Value dep = i % 7 == 3 ? Value::Null()
                             : Value::Int(static_cast<int64_t>(i % 29));
      Value name = i % 11 == 0
                       ? Value::Null()
                       : Value::Text("emp" + std::to_string(i % 13));
      Value bonus = i % 5 == 0   ? Value::Null()
                    : i % 5 == 1 ? Value::Real(-0.0)
                    : i % 5 == 2 ? Value::Real(0.0)
                                 : Value::Real(static_cast<double>(i % 17));
      table.InsertUnchecked(
          {Value::Int(static_cast<int64_t>(i)), dep, name, bonus});
    }
    EXPECT_TRUE(db.AddTable(std::move(table)).ok());
  }
  {
    RelationSchema schema("Void");
    EXPECT_TRUE(schema.AddAttribute("x", DataType::kInt64).ok());
    EXPECT_TRUE(schema.AddAttribute("y", DataType::kString).ok());
    Table table(std::move(schema));
    EXPECT_TRUE(db.AddTable(std::move(table)).ok());
  }
  EXPECT_TRUE(db.AddTable(MakeNanTable()).ok());
  {
    // A second NaN column, so a NaN meets a NaN across a join.
    RelationSchema schema("Nan2");
    EXPECT_TRUE(schema.AddAttribute("x", DataType::kDouble).ok());
    Table table(std::move(schema));
    for (const Value& x : {kNan, Value::Real(2), kNan, Value::Real(-0.0)}) {
      table.InsertUnchecked({x});
    }
    EXPECT_TRUE(db.AddTable(std::move(table)).ok());
  }
  return db;
}

// NULL-free rows of `query`'s result: SELECT DISTINCT keeps NULL-bearing
// rows, ‖·‖ and N_kl skip them.
size_t NullFreeRows(const Database& db, const std::string& query) {
  auto rows = ExecuteQuery(db, query);
  EXPECT_TRUE(rows.ok()) << query << ": " << rows.status();
  if (!rows.ok()) return 0;
  size_t count = 0;
  for (const ValueVector& row : rows->rows) {
    bool has_null = false;
    for (const Value& v : row) has_null |= v.is_null();
    if (!has_null) ++count;
  }
  return count;
}

// For every 1- and 2-attribute projection of every table: the NULL-free
// rows of SELECT DISTINCT, sql::CountDistinct and QueryCache::DistinctCount
// are one number.
void CheckDistinctCounts(const Database& db) {
  for (const std::string& relation : db.RelationNames()) {
    const Table& table = **db.GetTable(relation);
    auto cache = table.query_cache();
    ASSERT_TRUE(cache.ok()) << relation;
    const auto& attributes = table.schema().attributes();
    for (size_t i = 0; i < attributes.size(); ++i) {
      for (size_t j = i; j < attributes.size(); ++j) {
        std::vector<size_t> columns = {i};
        std::vector<std::string> names = {attributes[i].name};
        if (j != i) {
          columns.push_back(j);
          names.push_back(attributes[j].name);
        }
        std::string query = "SELECT DISTINCT " + names[0];
        if (names.size() == 2) query += ", " + names[1];
        query += " FROM " + relation;
        const size_t expected = (*cache)->DistinctCount(columns);
        EXPECT_EQ(NullFreeRows(db, query), expected) << query;
        auto via_sql = CountDistinct(db, relation, names);
        ASSERT_TRUE(via_sql.ok()) << query << ": " << via_sql.status();
        EXPECT_EQ(*via_sql, expected) << query;
      }
    }
  }
}

// For every single-column equi-join between two same-typed columns: the
// NULL-free rows of the SQL INTERSECT are ComputeJoinCounts' N_kl, and
// each side's ‖·‖ through SQL is its N_k / N_l. With `via_where`, so are
// the distinct left values the join's WHERE equality pairs with a right
// row (a cross product, so only for small extensions).
void CheckJoinCounts(const Database& db, bool via_where = false) {
  struct Column {
    std::string relation;
    std::string attribute;
    DataType type;
  };
  std::vector<Column> columns;
  for (const std::string& relation : db.RelationNames()) {
    for (const Attribute& attribute :
         (*db.GetTable(relation))->schema().attributes()) {
      columns.push_back({relation, attribute.name, attribute.type});
    }
  }
  for (size_t a = 0; a < columns.size(); ++a) {
    for (size_t b = a + 1; b < columns.size(); ++b) {
      const Column& left = columns[a];
      const Column& right = columns[b];
      if (left.type != right.type) continue;
      EquiJoin join = EquiJoin::Single(left.relation, left.attribute,
                                       right.relation, right.attribute);
      auto counts = ComputeJoinCounts(db, join);
      ASSERT_TRUE(counts.ok()) << join.ToString() << ": " << counts.status();
      const std::string intersect =
          "SELECT " + left.attribute + " FROM " + left.relation +
          " INTERSECT SELECT " + right.attribute + " FROM " + right.relation;
      EXPECT_EQ(NullFreeRows(db, intersect), counts->n_join) << intersect;
      if (via_where) {
        const std::string joined =
            "SELECT DISTINCT l." + left.attribute + " FROM " + left.relation +
            " l, " + right.relation + " r WHERE l." + left.attribute +
            " = r." + right.attribute;
        EXPECT_EQ(NullFreeRows(db, joined), counts->n_join) << joined;
      }
      auto n_left = CountDistinct(db, left.relation, {left.attribute});
      auto n_right = CountDistinct(db, right.relation, {right.attribute});
      ASSERT_TRUE(n_left.ok() && n_right.ok()) << join.ToString();
      EXPECT_EQ(*n_left, counts->n_left) << join.ToString();
      EXPECT_EQ(*n_right, counts->n_right) << join.ToString();
    }
  }
}

TEST(ExecutorCrosscheckTest, SmallExtensionDistinctCounts) {
  CheckDistinctCounts(MakeDatabase(97));
}

TEST(ExecutorCrosscheckTest, SmallExtensionJoinCounts) {
  CheckJoinCounts(MakeDatabase(97), /*via_where=*/true);
}

TEST(ExecutorCrosscheckTest, BatchBoundaryExtensions) {
  // kBatchSize−1 / kBatchSize / kBatchSize+1 rows: the partial-final-batch
  // and exact-fit paths of the cache's grouping and probe kernels.
  for (size_t rows : {batch::kBatchSize - 1, batch::kBatchSize,
                      batch::kBatchSize + 1}) {
    SCOPED_TRACE(rows);
    Database db = MakeDatabase(rows);
    CheckDistinctCounts(db);
    CheckJoinCounts(db);
  }
}

TEST(ExecutorCrosscheckTest, NanColumnDistinctMatchesDistinctCount) {
  // SELECT DISTINCT sorts by Value's order, which must stay a strict weak
  // order with NaNs present (else std::sort is undefined); each NaN then
  // stays its own row, as it is its own dictionary entry in the cache.
  Database db;
  ASSERT_TRUE(db.AddTable(MakeNanTable()).ok());
  auto rows = ExecuteQuery(db, "SELECT DISTINCT x FROM Nan");
  ASSERT_TRUE(rows.ok()) << rows.status();
  const Table& table = **db.GetTable("Nan");
  auto cache = table.query_cache();
  ASSERT_TRUE(cache.ok());
  EXPECT_EQ((*cache)->DistinctCount({0}), 4u);
  EXPECT_EQ(rows->NumRows(), 4u);
  EXPECT_EQ(*CountDistinct(db, "Nan", {"x"}), 4u);
}

TEST(ExecutorCrosscheckTest, NanComparisonsAreUnordered) {
  // A NaN operand is unordered: = < <= > >= are false and <> is true, so
  // each WHERE keeps exactly the rows IEEE 754 double comparison keeps.
  Database db;
  ASSERT_TRUE(db.AddTable(MakeNanTable()).ok());
  const Table& table = **db.GetTable("Nan");
  const std::vector<std::pair<std::string, bool (*)(double, double)>> ops = {
      {"=", [](double a, double b) { return a == b; }},
      {"<>", [](double a, double b) { return a != b; }},
      {"<", [](double a, double b) { return a < b; }},
      {"<=", [](double a, double b) { return a <= b; }},
      {">", [](double a, double b) { return a > b; }},
      {">=", [](double a, double b) { return a >= b; }},
  };
  for (const auto& [op, holds] : ops) {
    for (const char* literal : {"1.0", "1.5", "2.0"}) {
      const double bound = std::stod(literal);
      size_t expected = 0;
      for (const ValueVector& row : table.rows()) {
        expected += holds(row[0].as_real(), bound) ? 1 : 0;
      }
      const std::string query =
          std::string("SELECT k FROM Nan WHERE x ") + op + " " + literal;
      auto rows = ExecuteQuery(db, query);
      ASSERT_TRUE(rows.ok()) << query << ": " << rows.status();
      EXPECT_EQ(rows->NumRows(), expected) << query;
    }
  }
}

TEST(ExecutorCrosscheckTest, NanRowsMatchNothingInSetOperations) {
  // x = [1, NaN] in P and Q: rows match by Value::operator==, as in
  // ComputeJoinCounts, so the two NaNs never pair up.
  Database db;
  for (const char* name : {"P", "Q"}) {
    RelationSchema schema(name);
    ASSERT_TRUE(schema.AddAttribute("x", DataType::kDouble).ok());
    Table table(std::move(schema));
    table.InsertUnchecked({Value::Real(1)});
    table.InsertUnchecked({kNan});
    ASSERT_TRUE(db.AddTable(std::move(table)).ok());
  }
  auto counts = ComputeJoinCounts(db, EquiJoin::Single("P", "x", "Q", "x"));
  ASSERT_TRUE(counts.ok()) << counts.status();
  EXPECT_EQ(counts->n_join, 1u);
  const std::vector<std::pair<std::string, size_t>> cases = {
      {"SELECT x FROM P INTERSECT SELECT x FROM Q", 1},
      {"SELECT x FROM P MINUS SELECT x FROM Q", 1},
      {"SELECT x FROM P UNION SELECT x FROM Q", 3},
  };
  for (const auto& [query, expected] : cases) {
    auto rows = ExecuteQuery(db, query);
    ASSERT_TRUE(rows.ok()) << query << ": " << rows.status();
    EXPECT_EQ(rows->NumRows(), expected) << query;
  }
  auto intersect = ExecuteQuery(db, cases[0].first);
  ASSERT_TRUE(intersect.ok());
  ASSERT_EQ(intersect->NumRows(), 1u);
  EXPECT_EQ(intersect->rows[0][0], Value::Real(1));
  auto minus = ExecuteQuery(db, cases[1].first);
  ASSERT_TRUE(minus.ok());
  ASSERT_EQ(minus->NumRows(), 1u);
  EXPECT_TRUE(std::isnan(minus->rows[0][0].as_real()));
}

TEST(ExecutorCrosscheckTest, ErrorMessagesAreExact) {
  Database db = MakeDatabase(50);
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"SELECT nope FROM Emp", "not_found: cannot resolve column nope"},
      {"SELECT dep FROM Emp, Dept", "invalid_argument: ambiguous column dep"},
      {"SELECT no FROM Emp WHERE name = 3",
       "invalid_argument: cannot compare emp1 with 3"},
  };
  for (const auto& [query, message] : cases) {
    auto result = ExecuteQuery(db, query);
    ASSERT_FALSE(result.ok()) << query;
    EXPECT_EQ(result.status().ToString(), message) << query;
  }
  EXPECT_FALSE(CountDistinct(db, "Emp", {}).ok());
  EXPECT_FALSE(CountDistinct(db, "Nope", {"x"}).ok());
  EXPECT_FALSE(CountDistinct(db, "Emp", {"nope"}).ok());
}

}  // namespace
}  // namespace dbre::sql
