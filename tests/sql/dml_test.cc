// The DML front end (sql/dml.h): grammar, SQL NULL comparison semantics,
// two-phase parse-validate-then-apply atomicity, and the per-table
// mutation stats the incremental driver keys on.
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "relational/database.h"
#include "sql/dml.h"

namespace dbre::sql {
namespace {

Database MakeDatabase() {
  Database database;
  RelationSchema emp("emp");
  EXPECT_TRUE(emp.AddAttribute("id", DataType::kInt64, /*not_null=*/true).ok());
  EXPECT_TRUE(emp.AddAttribute("name", DataType::kString).ok());
  EXPECT_TRUE(emp.AddAttribute("dept", DataType::kInt64).ok());
  Table emp_table(emp);
  emp_table.InsertUnchecked({Value::Int(1), Value::Text("ann"), Value::Int(10)});
  emp_table.InsertUnchecked({Value::Int(2), Value::Text("bob"), Value::Int(20)});
  emp_table.InsertUnchecked({Value::Int(3), Value::Null(), Value::Int(10)});
  EXPECT_TRUE(database.AddTable(std::move(emp_table)).ok());

  RelationSchema dept("dept");
  EXPECT_TRUE(dept.AddAttribute("id", DataType::kInt64).ok());
  EXPECT_TRUE(dept.AddAttribute("title", DataType::kString).ok());
  Table dept_table(dept);
  dept_table.InsertUnchecked({Value::Int(10), Value::Text("eng")});
  EXPECT_TRUE(database.AddTable(std::move(dept_table)).ok());
  return database;
}

const Table& Get(const Database& database, const std::string& name) {
  auto table = database.GetTable(name);
  EXPECT_TRUE(table.ok());
  return **table;
}

TEST(DmlTest, InsertFullArityAndColumnList) {
  Database database = MakeDatabase();
  auto stats = ExecuteDmlScript(
      "INSERT INTO emp VALUES (4, 'carol', 20), (5, 'dave', NULL);"
      "INSERT INTO emp (id, name) VALUES (6, 'erin');",
      &database);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->statements, 2u);
  EXPECT_EQ(stats->rows_inserted, 3u);

  const Table& emp = Get(database, "emp");
  ASSERT_EQ(emp.rows().size(), 6u);
  EXPECT_EQ(emp.rows()[3][1].as_text(), "carol");
  EXPECT_TRUE(emp.rows()[4][2].is_null());
  // Omitted columns default to NULL.
  EXPECT_TRUE(emp.rows()[5][2].is_null());
}

TEST(DmlTest, UpdateWithConjunction) {
  Database database = MakeDatabase();
  auto stats = ExecuteDmlScript(
      "UPDATE emp SET dept = 30, name = 'moved' "
      "WHERE dept = 10 AND id >= 1;",
      &database);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->rows_updated, 2u);
  const Table& emp = Get(database, "emp");
  EXPECT_EQ(emp.rows()[0][2].as_int(), 30);
  EXPECT_EQ(emp.rows()[0][1].as_text(), "moved");
  EXPECT_EQ(emp.rows()[1][2].as_int(), 20);  // dept 20 untouched
}

TEST(DmlTest, DeleteWithoutWhereClearsTable) {
  Database database = MakeDatabase();
  auto stats = ExecuteDmlScript("DELETE FROM dept;", &database);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->rows_deleted, 1u);
  EXPECT_TRUE(Get(database, "dept").rows().empty());
  ASSERT_EQ(stats->tables.size(), 1u);
  EXPECT_TRUE(stats->tables[0].structural);
}

TEST(DmlTest, NullComparisonSemantics) {
  Database database = MakeDatabase();
  // Row 3 has NULL name: `name = ...` and `name != ...` never match it.
  auto eq = ExecuteDmlScript("DELETE FROM emp WHERE name = 'ann';", &database);
  ASSERT_TRUE(eq.ok());
  EXPECT_EQ(eq->rows_deleted, 1u);

  auto ne = ExecuteDmlScript("DELETE FROM emp WHERE name != 'zzz';",
                             &database);
  ASSERT_TRUE(ne.ok());
  EXPECT_EQ(ne->rows_deleted, 1u);  // only bob; NULL name never matches

  auto is_null =
      ExecuteDmlScript("DELETE FROM emp WHERE name IS NULL;", &database);
  ASSERT_TRUE(is_null.ok());
  EXPECT_EQ(is_null->rows_deleted, 1u);
  EXPECT_TRUE(Get(database, "emp").rows().empty());
}

TEST(DmlTest, IsNotNullAndOrderingOperators) {
  Database database = MakeDatabase();
  auto stats = ExecuteDmlScript(
      "UPDATE emp SET dept = 99 WHERE name IS NOT NULL AND id < 2;"
      "UPDATE emp SET dept = 98 WHERE id > 2 AND id <= 3;",
      &database);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->rows_updated, 2u);
  const Table& emp = Get(database, "emp");
  EXPECT_EQ(emp.rows()[0][2].as_int(), 99);
  EXPECT_EQ(emp.rows()[2][2].as_int(), 98);
}

TEST(DmlTest, NanCellsAreUnordered) {
  // A NaN cell is unordered against every literal: = < <= > >= never match
  // it and <> always does (IEEE 754).
  Database database;
  RelationSchema schema("m");
  EXPECT_TRUE(schema.AddAttribute("id", DataType::kInt64).ok());
  EXPECT_TRUE(schema.AddAttribute("x", DataType::kDouble).ok());
  Table table(schema);
  const Value nan = Value::Real(std::numeric_limits<double>::quiet_NaN());
  table.InsertUnchecked({Value::Int(1), Value::Real(1.0)});
  table.InsertUnchecked({Value::Int(2), nan});
  table.InsertUnchecked({Value::Int(3), Value::Real(2.0)});
  table.InsertUnchecked({Value::Int(4), nan});
  ASSERT_TRUE(database.AddTable(std::move(table)).ok());
  const std::vector<std::pair<std::string, size_t>> updates = {
      {"x = 1.0", 1}, {"x <> 1.0", 3}, {"x < 5.0", 2},
      {"x <= 2.0", 2}, {"x > 0.5", 2}, {"x >= 1.0", 2},
  };
  for (const auto& [where, expected] : updates) {
    auto stats = ExecuteDmlScript("UPDATE m SET id = 0 WHERE " + where + ";",
                                  &database);
    ASSERT_TRUE(stats.ok()) << where << ": " << stats.status().ToString();
    EXPECT_EQ(stats->rows_updated, expected) << where;
  }
  auto deleted = ExecuteDmlScript("DELETE FROM m WHERE x <> 2.0;", &database);
  ASSERT_TRUE(deleted.ok()) << deleted.status().ToString();
  EXPECT_EQ(deleted->rows_deleted, 3u);
  ASSERT_EQ(Get(database, "m").rows().size(), 1u);
  EXPECT_EQ(Get(database, "m").rows()[0][1], Value::Real(2.0));
}

TEST(DmlTest, ScriptIsAtomicAcrossStatements) {
  Database database = MakeDatabase();
  // Second statement references an unknown column: the whole script must
  // fail at parse and the first statement must NOT have applied.
  auto stats = ExecuteDmlScript(
      "DELETE FROM emp WHERE id = 1;"
      "UPDATE emp SET salary = 5 WHERE id = 2;",
      &database);
  EXPECT_FALSE(stats.ok());
  EXPECT_EQ(Get(database, "emp").rows().size(), 3u);
}

TEST(DmlTest, ValidationErrors) {
  Database database = MakeDatabase();
  struct Case {
    const char* sql;
    const char* why;
  };
  const Case cases[] = {
      {"INSERT INTO ghost VALUES (1);", "unknown table"},
      {"INSERT INTO emp VALUES (1, 'x');", "too few values"},
      {"INSERT INTO emp VALUES (1, 'x', 2, 3);", "too many values"},
      {"INSERT INTO emp (id, ghost) VALUES (1, 'x');", "unknown column"},
      {"INSERT INTO emp VALUES (NULL, 'x', 1);", "NULL into not-null id"},
      {"INSERT INTO emp VALUES ('text', 'x', 1);", "type mismatch"},
      {"UPDATE emp SET id = NULL;", "NULL into not-null id"},
      {"UPDATE emp SET name = 'a', name = 'b';", "duplicate SET column"},
      {"DELETE FROM emp WHERE ghost = 1;", "unknown WHERE column"},
      {"DELETE FROM emp WHERE id == 1;", "bad operator"},
      {"SELECT * FROM emp;", "not a DML statement"},
  };
  for (const Case& c : cases) {
    auto stats = ExecuteDmlScript(c.sql, &database);
    EXPECT_FALSE(stats.ok()) << c.why << ": " << c.sql;
  }
  // Nothing applied by any of them.
  EXPECT_EQ(Get(database, "emp").rows().size(), 3u);
}

TEST(DmlTest, IncomparableTypesNeverMatch) {
  Database database = MakeDatabase();
  // id is int64; comparing against a string literal parses only if the
  // literal coerces — a plain text literal against an int column is a
  // parse-time type error, not a silent non-match.
  auto stats =
      ExecuteDmlScript("DELETE FROM emp WHERE id = 'one';", &database);
  EXPECT_FALSE(stats.ok());
  EXPECT_EQ(Get(database, "emp").rows().size(), 3u);
}

TEST(DmlTest, StatsTrackPerTableEffects) {
  Database database = MakeDatabase();
  auto stats = ExecuteDmlScript(
      "INSERT INTO emp VALUES (7, 'gail', 10);"
      "UPDATE emp SET name = 'x' WHERE id = 7;"
      "UPDATE emp SET dept = 11 WHERE id = 7;"
      "DELETE FROM dept WHERE id = 10;",
      &database);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  ASSERT_EQ(stats->tables.size(), 2u);  // first-touch order
  const TableMutation& emp = stats->tables[0];
  EXPECT_EQ(emp.table, "emp");
  EXPECT_EQ(emp.inserted, 1u);
  EXPECT_EQ(emp.updated, 2u);
  EXPECT_FALSE(emp.structural);
  // Updated schema columns, sorted unique: name (1) and dept (2).
  EXPECT_EQ(emp.updated_columns, (std::vector<size_t>{1, 2}));
  const TableMutation& dept = stats->tables[1];
  EXPECT_EQ(dept.table, "dept");
  EXPECT_EQ(dept.deleted, 1u);
  EXPECT_TRUE(dept.structural);
}

TEST(DmlTest, ZeroMatchMutationLeavesCacheUntouched) {
  Database database = MakeDatabase();
  auto table = database.GetMutableTable("emp");
  ASSERT_TRUE(table.ok());
  auto cache = (*table)->query_cache();
  ASSERT_TRUE(cache.ok());

  auto stats = ExecuteDmlScript(
      "UPDATE emp SET name = 'never' WHERE id = 999;"
      "DELETE FROM emp WHERE id = 999;",
      &database);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->rows_updated, 0u);
  EXPECT_EQ(stats->rows_deleted, 0u);

  auto after = (*table)->query_cache();
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(cache->get(), after->get());  // no invalidation
}

}  // namespace
}  // namespace dbre::sql
