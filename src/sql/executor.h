// Executing the legacy SELECT subset against a Database.
//
// The paper defines its one extension primitive operationally: ‖r[X]‖ "can
// be computed in any SQL-like language as SELECT COUNT(DISTINCT X) FROM R".
// This executor makes that literal: it evaluates the parsed subset —
// multi-table FROM with conjunctive/disjunctive WHERE, JOIN..ON, IN and
// (correlated) EXISTS subqueries, DISTINCT, COUNT, INTERSECT/UNION/MINUS —
// with standard SQL three-valued NULL semantics for comparisons.
//
// It is a tuple-at-a-time nested-loop evaluator over the catalog that reads
// each table through its RowReader. It is the reference the algebra layer
// (relational/algebra.h, QueryCache) is cross-checked against, so it takes
// no answer from the QueryCache's memos; discovery itself runs on the
// algebra layer.
#ifndef DBRE_SQL_EXECUTOR_H_
#define DBRE_SQL_EXECUTOR_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "relational/database.h"
#include "sql/ast.h"

namespace dbre::sql {

// A query result: named columns + rows.
struct ResultSet {
  std::vector<std::string> columns;
  std::vector<ValueVector> rows;

  size_t NumRows() const { return rows.size(); }

  // Renders an aligned ASCII table (for the workbench / examples).
  std::string ToString() const;

  // Rows as a set (for set-operation tests); order-insensitive compare.
  bool SameRows(const ResultSet& other) const;
};

struct ExecutorOptions {
  // Safety valve for runaway cross products in tooling contexts; 0 = off.
  size_t max_intermediate_rows = 0;
};

// Executes a parsed statement.
Result<ResultSet> Execute(const Database& database,
                          const SelectStatement& statement,
                          const ExecutorOptions& options = {});

// Parses and executes `sql` (single statement).
Result<ResultSet> ExecuteQuery(const Database& database,
                               std::string_view sql,
                               const ExecutorOptions& options = {});

// The paper's ‖·‖, computed through the executor: the number of NULL-free
// rows of SELECT DISTINCT x1, ..., xn FROM relation.
Result<size_t> CountDistinct(const Database& database,
                             const std::string& relation,
                             const std::vector<std::string>& attributes);

}  // namespace dbre::sql

#endif  // DBRE_SQL_EXECUTOR_H_
