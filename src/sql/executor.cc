#include "sql/executor.h"

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <sstream>
#include <unordered_map>
#include <utility>

#include "common/string_util.h"
#include "obs/metrics.h"
#include "relational/column_batch.h"
#include "relational/query_cache.h"
#include "sql/parser.h"

namespace dbre::sql {
namespace {

// SQL three-valued logic.
enum class Ternary { kFalse, kTrue, kUnknown };

Ternary And(Ternary a, Ternary b) {
  if (a == Ternary::kFalse || b == Ternary::kFalse) return Ternary::kFalse;
  if (a == Ternary::kTrue && b == Ternary::kTrue) return Ternary::kTrue;
  return Ternary::kUnknown;
}

Ternary Or(Ternary a, Ternary b) {
  if (a == Ternary::kTrue || b == Ternary::kTrue) return Ternary::kTrue;
  if (a == Ternary::kFalse && b == Ternary::kFalse) return Ternary::kFalse;
  return Ternary::kUnknown;
}

Ternary Not(Ternary a) {
  if (a == Ternary::kTrue) return Ternary::kFalse;
  if (a == Ternary::kFalse) return Ternary::kTrue;
  return Ternary::kUnknown;
}

// One table instance of a FROM clause with its current row, decoded
// through the query cache's RowReader (the one row path, for resident and
// paged columns alike).
struct Binding {
  const TableRef* ref = nullptr;
  const Table* table = nullptr;
  const ValueVector* row = nullptr;
  std::shared_ptr<QueryCache> cache;
  std::unique_ptr<EncodedTable::RowReader> reader;
  ValueVector current;

  // Makes row `i` the current row.
  void Load(size_t i) {
    reader->Read(i, &current);
    row = &current;
  }
};

using Frame = std::vector<Binding>;

// Numeric-coercing comparison; NULLs must be handled by the caller.
Result<int> CompareValues(const Value& a, const Value& b) {
  if (a.is_int() && b.is_int()) {
    return a.as_int() < b.as_int() ? -1 : (a.as_int() > b.as_int() ? 1 : 0);
  }
  if ((a.is_int() || a.is_real()) && (b.is_int() || b.is_real())) {
    double da = a.is_int() ? static_cast<double>(a.as_int()) : a.as_real();
    double db = b.is_int() ? static_cast<double>(b.as_int()) : b.as_real();
    return da < db ? -1 : (da > db ? 1 : 0);
  }
  if (a.is_text() && b.is_text()) {
    int cmp = a.as_text().compare(b.as_text());
    return cmp < 0 ? -1 : (cmp > 0 ? 1 : 0);
  }
  if (a.is_bool() && b.is_bool()) {
    return static_cast<int>(a.as_bool()) - static_cast<int>(b.as_bool());
  }
  return InvalidArgumentError("cannot compare " + a.ToString() + " with " +
                              b.ToString());
}

// SQL LIKE with % (any run) and _ (any one character).
bool LikeMatches(std::string_view text, std::string_view pattern) {
  // Iterative two-pointer with backtracking on the last %.
  size_t t = 0, p = 0;
  size_t star_p = std::string_view::npos, star_t = 0;
  while (t < text.size()) {
    if (p < pattern.size() &&
        (pattern[p] == '_' || pattern[p] == text[t])) {
      ++t;
      ++p;
    } else if (p < pattern.size() && pattern[p] == '%') {
      star_p = p++;
      star_t = t;
    } else if (star_p != std::string_view::npos) {
      p = star_p + 1;
      t = ++star_t;
    } else {
      return false;
    }
  }
  while (p < pattern.size() && pattern[p] == '%') ++p;
  return p == pattern.size();
}

// --- Vectorized enumeration ----------------------------------------------
//
// ExecuteCore's reference enumeration is the tuple-at-a-time odometer loop.
// When every predicate of a one- or two-table statement compiles into a
// per-dictionary-code ternary truth table over a single table (plus
// cross-table equality join keys), the enumeration instead runs
// column-at-a-time over batches of codes (relational/column_batch.h):
// predicates evaluate once per distinct value instead of once per row,
// surviving rows are compacted with flat Kleene kernels, and joins
// hash-probe dictionary codes translated into the build side's code space.
// Anything the compiler cannot prove equivalent — subqueries, column-to-
// column comparisons within a table, coercing or double-typed join keys,
// resolution failures, literals that do not parse — falls back to the
// odometer, which is also the error-reporting path: the fast path never
// surfaces an error (or masks one) that the reference path would not.

using batch::Truth;

constexpr size_t kNoTable = static_cast<size_t>(-1);

obs::Counter* ExecutorPathCounter(bool vectorized) {
  static obs::Counter* vectorized_count =
      obs::Registry::Default().GetCounter(
          "dbre_executor_paths_total", {{"path", "vectorized"}},
          "SELECT enumerations by evaluation path");
  static obs::Counter* fallback_count =
      obs::Registry::Default().GetCounter(
          "dbre_executor_paths_total", {{"path", "fallback"}},
          "SELECT enumerations by evaluation path");
  return vectorized ? vectorized_count : fallback_count;
}

// A compiled ternary predicate over one table's dictionary codes: Kleene
// combinators whose leaves are truth tables indexed by code.
struct TruthProgram {
  enum class Kind { kConst, kLeaf, kAnd, kOr, kNot };

  Kind kind = Kind::kConst;
  Truth constant = Truth::kTrue;       // kConst
  size_t column = 0;                   // kLeaf
  std::vector<Truth> code_truth;       // kLeaf: per dictionary code
  Truth null_truth = Truth::kUnknown;  // kLeaf: the NULL lane
  std::vector<TruthProgram> children;  // kAnd / kOr / kNot
};

TruthProgram ConstProgram(Truth value) {
  TruthProgram node;
  node.kind = TruthProgram::Kind::kConst;
  node.constant = value;
  return node;
}

TruthProgram BoolProgram(bool value) {
  return ConstProgram(value ? Truth::kTrue : Truth::kFalse);
}

void EvalProgram(const TruthProgram& node, const EncodedTable& encoded,
                 size_t start, size_t count, Truth* out) {
  switch (node.kind) {
    case TruthProgram::Kind::kConst:
      batch::FillTruth(node.constant, count, out);
      return;
    case TruthProgram::Kind::kLeaf:
      batch::GatherTruth(encoded.codes(node.column).data() + start, count,
                         node.code_truth.data(), node.null_truth,
                         EncodedTable::kNullCode, out);
      return;
    case TruthProgram::Kind::kAnd:
    case TruthProgram::Kind::kOr: {
      const bool conjunction = node.kind == TruthProgram::Kind::kAnd;
      if (node.children.empty()) {
        batch::FillTruth(conjunction ? Truth::kTrue : Truth::kFalse, count,
                         out);
        return;
      }
      EvalProgram(node.children[0], encoded, start, count, out);
      if (node.children.size() == 1) return;
      std::vector<Truth> rhs(count);
      for (size_t i = 1; i < node.children.size(); ++i) {
        EvalProgram(node.children[i], encoded, start, count, rhs.data());
        if (conjunction) {
          batch::TruthAnd(out, rhs.data(), count, out);
        } else {
          batch::TruthOr(out, rhs.data(), count, out);
        }
      }
      return;
    }
    case TruthProgram::Kind::kNot:
      EvalProgram(node.children[0], encoded, start, count, out);
      batch::TruthNot(out, count, out);
      return;
  }
}

struct VectorContext {
  const Frame& frame;
  const std::vector<std::shared_ptr<QueryCache>>& caches;
};

// Resolves `ref` against the innermost frame exactly like
// ResolveColumnValue (first qualifier match wins; unqualified names must
// be unambiguous). nullopt means the reference is ambiguous, unknown, or
// mis-qualified — cases where the reference path errors, so the caller
// falls back.
std::optional<std::pair<size_t, size_t>> ResolveColumnIndex(
    const Frame& frame, const ColumnRef& ref) {
  const Binding* found = nullptr;
  size_t found_index = 0;
  for (size_t b = 0; b < frame.size(); ++b) {
    const Binding& binding = frame[b];
    if (!ref.qualifier.empty()) {
      const std::string& name = binding.ref->alias.empty()
                                    ? binding.ref->table
                                    : binding.ref->alias;
      if (name != ref.qualifier) continue;
      found = &binding;
      found_index = b;
      break;
    }
    if (binding.table->schema().HasAttribute(ref.column)) {
      if (found != nullptr) return std::nullopt;  // ambiguous
      found = &binding;
      found_index = b;
    }
  }
  if (found == nullptr) return std::nullopt;
  auto index = found->table->schema().AttributeIndex(ref.column);
  if (!index.ok()) return std::nullopt;
  return std::make_pair(found_index, *index);
}

// Evaluates a non-column operand to its constant value, mirroring
// EvaluateOperand. False when the operand is a column or does not parse.
bool ConstantOperand(const Operand& operand, Value* out) {
  switch (operand.kind) {
    case Operand::Kind::kColumn:
      return false;
    case Operand::Kind::kInteger: {
      auto value = Value::Parse(operand.literal, DataType::kInt64);
      if (!value.ok()) return false;
      *out = *std::move(value);
      return true;
    }
    case Operand::Kind::kDecimal: {
      auto value = Value::Parse(operand.literal, DataType::kDouble);
      if (!value.ok()) return false;
      *out = *std::move(value);
      return true;
    }
    case Operand::Kind::kString:
      *out = Value::Text(operand.literal);
      return true;
    case Operand::Kind::kHostVariable:
    case Operand::Kind::kNull:
      *out = Value::Null();
      return true;
  }
  return false;
}

bool CompareTruthValue(int cmp, ComparisonOp op) {
  switch (op) {
    case ComparisonOp::kEq: return cmp == 0;
    case ComparisonOp::kNe: return cmp != 0;
    case ComparisonOp::kLt: return cmp < 0;
    case ComparisonOp::kLe: return cmp <= 0;
    case ComparisonOp::kGt: return cmp > 0;
    case ComparisonOp::kGe: return cmp >= 0;
  }
  return false;
}

// Pins the subtree to binding `binding`; a subtree may touch one table.
bool BindTable(size_t* table, size_t binding) {
  if (*table == kNoTable) {
    *table = binding;
    return true;
  }
  return *table == binding;
}

bool CompileComparison(const Expression& expr, const VectorContext& ctx,
                       TruthProgram* out, size_t* table) {
  const bool lhs_column = expr.lhs.kind == Operand::Kind::kColumn;
  const bool rhs_column = expr.rhs.kind == Operand::Kind::kColumn;
  if (lhs_column && rhs_column) return false;  // joins handled separately
  if (!lhs_column && !rhs_column) {
    Value a, b;
    if (!ConstantOperand(expr.lhs, &a)) return false;
    if (!ConstantOperand(expr.rhs, &b)) return false;
    if (a.is_null() || b.is_null()) {
      *out = ConstProgram(Truth::kUnknown);
      return true;
    }
    auto cmp = CompareValues(a, b);
    if (!cmp.ok()) return false;
    *out = BoolProgram(CompareTruthValue(*cmp, expr.op));
    return true;
  }
  const Operand& column_operand = lhs_column ? expr.lhs : expr.rhs;
  const Operand& literal_operand = lhs_column ? expr.rhs : expr.lhs;
  auto resolved = ResolveColumnIndex(ctx.frame, column_operand.column);
  if (!resolved) return false;
  if (!BindTable(table, resolved->first)) return false;
  Value literal;
  if (!ConstantOperand(literal_operand, &literal)) return false;
  if (literal.is_null()) {
    *out = ConstProgram(Truth::kUnknown);
    return true;
  }
  const size_t column = resolved->second;
  ctx.caches[resolved->first]->EnsureEncoded({column});
  const EncodedTable& encoded = ctx.caches[resolved->first]->encoded();
  TruthProgram leaf;
  leaf.kind = TruthProgram::Kind::kLeaf;
  leaf.column = column;
  leaf.null_truth = Truth::kUnknown;
  leaf.code_truth.resize(encoded.dict_size(column));
  for (uint32_t code = 0; code < leaf.code_truth.size(); ++code) {
    const Value& value = encoded.Decode(column, code);
    auto cmp = lhs_column ? CompareValues(value, literal)
                          : CompareValues(literal, value);
    if (!cmp.ok()) return false;  // mixed tags: the reference path errors
    leaf.code_truth[code] =
        CompareTruthValue(*cmp, expr.op) ? Truth::kTrue : Truth::kFalse;
  }
  *out = std::move(leaf);
  return true;
}

bool CompileIsNull(const Expression& expr, const VectorContext& ctx,
                   TruthProgram* out, size_t* table) {
  if (expr.lhs.kind != Operand::Kind::kColumn) {
    Value value;
    if (!ConstantOperand(expr.lhs, &value)) return false;
    *out = BoolProgram(value.is_null() != expr.negated);
    return true;
  }
  auto resolved = ResolveColumnIndex(ctx.frame, expr.lhs.column);
  if (!resolved) return false;
  if (!BindTable(table, resolved->first)) return false;
  const size_t column = resolved->second;
  ctx.caches[resolved->first]->EnsureEncoded({column});
  const EncodedTable& encoded = ctx.caches[resolved->first]->encoded();
  TruthProgram leaf;
  leaf.kind = TruthProgram::Kind::kLeaf;
  leaf.column = column;
  leaf.null_truth = expr.negated ? Truth::kFalse : Truth::kTrue;
  leaf.code_truth.assign(encoded.dict_size(column),
                         expr.negated ? Truth::kTrue : Truth::kFalse);
  *out = std::move(leaf);
  return true;
}

bool CompileLike(const Expression& expr, const VectorContext& ctx,
                 TruthProgram* out, size_t* table) {
  if (expr.rhs.kind == Operand::Kind::kColumn) return false;
  Value pattern;
  if (!ConstantOperand(expr.rhs, &pattern)) return false;
  if (expr.lhs.kind != Operand::Kind::kColumn) {
    Value text;
    if (!ConstantOperand(expr.lhs, &text)) return false;
    if (text.is_null() || pattern.is_null()) {
      *out = ConstProgram(Truth::kUnknown);
      return true;
    }
    if (!text.is_text() || !pattern.is_text()) return false;
    *out = BoolProgram(LikeMatches(text.as_text(), pattern.as_text()) !=
                       expr.negated);
    return true;
  }
  auto resolved = ResolveColumnIndex(ctx.frame, expr.lhs.column);
  if (!resolved) return false;
  if (!BindTable(table, resolved->first)) return false;
  if (pattern.is_null()) {
    *out = ConstProgram(Truth::kUnknown);
    return true;
  }
  if (!pattern.is_text()) return false;  // reference path errors per row
  const size_t column = resolved->second;
  ctx.caches[resolved->first]->EnsureEncoded({column});
  const EncodedTable& encoded = ctx.caches[resolved->first]->encoded();
  TruthProgram leaf;
  leaf.kind = TruthProgram::Kind::kLeaf;
  leaf.column = column;
  leaf.null_truth = Truth::kUnknown;
  leaf.code_truth.resize(encoded.dict_size(column));
  for (uint32_t code = 0; code < leaf.code_truth.size(); ++code) {
    const Value& value = encoded.Decode(column, code);
    if (!value.is_text()) return false;
    leaf.code_truth[code] =
        (LikeMatches(value.as_text(), pattern.as_text()) != expr.negated)
            ? Truth::kTrue
            : Truth::kFalse;
  }
  *out = std::move(leaf);
  return true;
}

bool CompileExpression(const Expression& expr, const VectorContext& ctx,
                       TruthProgram* out, size_t* table) {
  switch (expr.kind) {
    case Expression::Kind::kComparison:
      return CompileComparison(expr, ctx, out, table);
    case Expression::Kind::kIsNull:
      return CompileIsNull(expr, ctx, out, table);
    case Expression::Kind::kLike:
      return CompileLike(expr, ctx, out, table);
    case Expression::Kind::kBetween:
      // Opaque in the AST; the reference path always evaluates kUnknown.
      *out = ConstProgram(Truth::kUnknown);
      return true;
    case Expression::Kind::kAnd:
    case Expression::Kind::kOr: {
      TruthProgram node;
      node.kind = expr.kind == Expression::Kind::kAnd
                      ? TruthProgram::Kind::kAnd
                      : TruthProgram::Kind::kOr;
      for (const auto& child : expr.children) {
        TruthProgram compiled;
        if (!CompileExpression(*child, ctx, &compiled, table)) return false;
        node.children.push_back(std::move(compiled));
      }
      *out = std::move(node);
      return true;
    }
    case Expression::Kind::kNot: {
      if (expr.children.empty()) return false;  // reference path errors
      TruthProgram node;
      node.kind = TruthProgram::Kind::kNot;
      TruthProgram compiled;
      if (!CompileExpression(*expr.children[0], ctx, &compiled, table)) {
        return false;
      }
      node.children.push_back(std::move(compiled));
      *out = std::move(node);
      return true;
    }
    case Expression::Kind::kInSubquery:
    case Expression::Kind::kExists:
      return false;
  }
  return false;
}

// Splits an expression into its top-level conjuncts.
void FlattenConjuncts(const Expression& expr,
                      std::vector<const Expression*>* out) {
  if (expr.kind == Expression::Kind::kAnd) {
    for (const auto& child : expr.children) FlattenConjuncts(*child, out);
    return;
  }
  out->push_back(&expr);
}

// One cross-table equality of a two-table join, reduced to code equality
// in the build (right) side's code space.
struct JoinKeyPair {
  size_t left_column = 0;
  size_t right_column = 0;
  // frame[0] code → equal frame[1] code, or kNullCode when no value of the
  // right dictionary equals it.
  std::vector<uint32_t> translate;
};

// Builds the code translation for one equality pair. Requires both
// dictionaries homogeneous under the same declared type so that value
// equality coincides with the evaluator's coercing comparison; doubles are
// excluded (CompareValues treats NaN as equal to NaN, value equality may
// not). False falls back to the reference path.
bool BuildCodeTranslation(const VectorContext& ctx, JoinKeyPair* pair) {
  ctx.caches[0]->EnsureEncoded({pair->left_column});
  ctx.caches[1]->EnsureEncoded({pair->right_column});
  const EncodedTable& left = ctx.caches[0]->encoded();
  const EncodedTable& right = ctx.caches[1]->encoded();
  if (left.declared_type(pair->left_column) !=
      right.declared_type(pair->right_column)) {
    return false;
  }
  if (!left.column_typed(pair->left_column) ||
      !right.column_typed(pair->right_column)) {
    return false;
  }
  if (left.declared_type(pair->left_column) == DataType::kDouble) {
    return false;
  }
  const size_t right_dict = right.dict_size(pair->right_column);
  std::unordered_map<Value, uint32_t, ValueHash> right_code_of;
  right_code_of.reserve(right_dict);
  for (uint32_t code = 0; code < right_dict; ++code) {
    right_code_of.emplace(right.Decode(pair->right_column, code), code);
  }
  const size_t left_dict = left.dict_size(pair->left_column);
  pair->translate.assign(left_dict, EncodedTable::kNullCode);
  for (uint32_t code = 0; code < left_dict; ++code) {
    auto it = right_code_of.find(left.Decode(pair->left_column, code));
    if (it != right_code_of.end()) pair->translate[code] = it->second;
  }
  return true;
}

class Evaluator {
 public:
  Evaluator(const Database& database, const ExecutorOptions& options)
      : database_(database), options_(options) {}

  Result<ResultSet> ExecuteStatement(const SelectStatement& statement) {
    DBRE_ASSIGN_OR_RETURN(ResultSet left, ExecuteCore(statement));
    if (statement.set_rhs == nullptr) return left;
    DBRE_ASSIGN_OR_RETURN(ResultSet right,
                          ExecuteStatement(*statement.set_rhs));
    if (left.columns.size() != right.columns.size()) {
      return InvalidArgumentError(
          "set operation over differently-shaped selects");
    }
    // SQL set operations work on distinct rows.
    auto distinct = [](std::vector<ValueVector> rows) {
      std::sort(rows.begin(), rows.end());
      rows.erase(std::unique(rows.begin(), rows.end()), rows.end());
      return rows;
    };
    std::vector<ValueVector> lhs = distinct(std::move(left.rows));
    std::vector<ValueVector> rhs = distinct(std::move(right.rows));
    std::vector<ValueVector> out;
    switch (statement.set_op) {
      case SelectStatement::SetOp::kIntersect:
        std::set_intersection(lhs.begin(), lhs.end(), rhs.begin(),
                              rhs.end(), std::back_inserter(out));
        break;
      case SelectStatement::SetOp::kUnion:
        std::set_union(lhs.begin(), lhs.end(), rhs.begin(), rhs.end(),
                       std::back_inserter(out));
        break;
      case SelectStatement::SetOp::kMinus:
        std::set_difference(lhs.begin(), lhs.end(), rhs.begin(), rhs.end(),
                            std::back_inserter(out));
        break;
      case SelectStatement::SetOp::kNone:
        return InternalError("set_rhs without set_op");
    }
    left.rows = std::move(out);
    return left;
  }

 private:
  Result<ResultSet> ExecuteCore(const SelectStatement& statement) {
    // Resolve the FROM tables.
    Frame frame;
    frame.reserve(statement.from.size());
    for (const TableRef& ref : statement.from) {
      DBRE_ASSIGN_OR_RETURN(const Table* table,
                            database_.GetTable(ref.table));
      Binding binding;
      binding.ref = &ref;
      binding.table = table;
      DBRE_ASSIGN_OR_RETURN(binding.cache, table->query_cache());
      binding.reader = std::make_unique<EncodedTable::RowReader>(
          binding.cache->ReadRows());
      frame.push_back(std::move(binding));
    }
    env_.push_back(&frame);

    // Classify the select list: plain columns or aggregate COUNTs.
    bool has_count = false, has_scalar = false;
    for (const SelectItem& item : statement.select_list) {
      (item.count ? has_count : has_scalar) = true;
    }
    if (has_count && has_scalar) {
      env_.pop_back();
      return InvalidArgumentError(
          "mixed COUNT and plain columns without GROUP BY support");
    }

    ResultSet result;
    Status failure = Status::Ok();

    // For COUNT queries we gather the counted values; for plain queries,
    // the projected rows.
    std::vector<ValueVector> projected;
    size_t plain_row_count = 0;

    // Enumerate: the batched columnar path when the statement compiles to
    // per-dictionary-code ternary programs, the tuple-at-a-time odometer
    // otherwise (also the error-reporting path).
    std::optional<Status> vectorized = VectorizedEnumeration(
        statement, frame, has_count, &projected, &plain_row_count);
    ExecutorPathCounter(vectorized.has_value())->Add(1);
    if (vectorized.has_value()) {
      failure = *vectorized;
    } else {
      // Enumerate the cross product of the FROM tables.
      std::vector<size_t> cursor(frame.size(), 0);
      bool exhausted = frame.empty();
      for (const Binding& binding : frame) {
        if (binding.table->num_rows() == 0) exhausted = true;
      }
      while (!exhausted) {
        for (size_t i = 0; i < frame.size(); ++i) frame[i].Load(cursor[i]);
        // Evaluate the ON conditions and the WHERE clause.
        Ternary keep = Ternary::kTrue;
        for (const auto& condition : statement.join_conditions) {
          auto value = EvaluateExpression(*condition);
          if (!value.ok()) {
            failure = value.status();
            break;
          }
          keep = And(keep, *value);
        }
        if (failure.ok() && keep == Ternary::kTrue &&
            statement.where != nullptr) {
          auto value = EvaluateExpression(*statement.where);
          if (!value.ok()) {
            failure = value.status();
          } else {
            keep = And(keep, *value);
          }
        }
        if (!failure.ok()) break;

        if (keep == Ternary::kTrue) {
          ++plain_row_count;
          auto row = ProjectRow(statement.select_list, has_count);
          if (!row.ok()) {
            failure = row.status();
            break;
          }
          projected.push_back(std::move(row).value());
          if (options_.max_intermediate_rows != 0 &&
              projected.size() > options_.max_intermediate_rows) {
            failure = FailedPreconditionError(
                "query exceeded max_intermediate_rows");
            break;
          }
        }
        // Advance the odometer.
        size_t level = frame.size();
        while (level > 0) {
          --level;
          if (++cursor[level] < frame[level].table->num_rows()) break;
          cursor[level] = 0;
          if (level == 0) exhausted = true;
        }
      }
    }
    env_.pop_back();
    DBRE_RETURN_IF_ERROR(failure);

    // Column names.
    DBRE_RETURN_IF_ERROR(
        NameColumns(statement, frame, has_count, &result.columns));

    if (has_count) {
      // Aggregate: one output row of counts.
      ValueVector counts;
      for (size_t c = 0; c < statement.select_list.size(); ++c) {
        const SelectItem& item = statement.select_list[c];
        if (item.star) {
          counts.push_back(Value::Int(static_cast<int64_t>(plain_row_count)));
          continue;
        }
        // COUNT(col): non-NULL values; DISTINCT dedups.
        std::vector<Value> values;
        for (const ValueVector& row : projected) {
          if (!row[c].is_null()) values.push_back(row[c]);
        }
        if (item.distinct) {
          std::sort(values.begin(), values.end());
          values.erase(std::unique(values.begin(), values.end()),
                       values.end());
        }
        counts.push_back(Value::Int(static_cast<int64_t>(values.size())));
      }
      result.rows.push_back(std::move(counts));
      return result;
    }

    if (statement.select_distinct) {
      std::sort(projected.begin(), projected.end());
      projected.erase(std::unique(projected.begin(), projected.end()),
                      projected.end());
    }
    result.rows = std::move(projected);
    return result;
  }

  // Attempts the batched columnar enumeration for the innermost frame.
  // On success fills `projected` / `plain_row_count` and returns the
  // enumeration's status (emission can still fail — projection errors,
  // max_intermediate_rows); nullopt falls back to the odometer loop.
  std::optional<Status> VectorizedEnumeration(
      const SelectStatement& statement, Frame& frame, bool has_count,
      std::vector<ValueVector>* projected, size_t* plain_row_count) {
    if (options_.disable_vectorized) return std::nullopt;
    // Outer scopes could capture unqualified names; only top-level frames
    // compile. Subqueries always evaluate tuple-at-a-time.
    if (env_.size() != 1) return std::nullopt;
    if (frame.empty() || frame.size() > 2) return std::nullopt;
    // The compiled kernels index flat in-memory code vectors and resident
    // dictionaries; paged extensions take the odometer.
    for (const Binding& binding : frame) {
      if (binding.table->is_paged()) return std::nullopt;
    }

    std::vector<std::shared_ptr<QueryCache>> caches;
    caches.reserve(frame.size());
    for (const Binding& binding : frame) caches.push_back(binding.cache);
    VectorContext ctx{frame, caches};

    // Classify the top-level conjuncts: per-table ternary programs, or —
    // between two tables — equality join keys. Kleene AND is commutative,
    // so regrouping conjuncts by table preserves the result as long as no
    // conjunct errors, which compilation rules out.
    std::vector<const Expression*> conjuncts;
    for (const auto& condition : statement.join_conditions) {
      FlattenConjuncts(*condition, &conjuncts);
    }
    if (statement.where != nullptr) {
      FlattenConjuncts(*statement.where, &conjuncts);
    }

    std::vector<TruthProgram> programs(frame.size());
    for (TruthProgram& program : programs) {
      program.kind = TruthProgram::Kind::kAnd;
    }
    std::vector<JoinKeyPair> join_keys;
    for (const Expression* conjunct : conjuncts) {
      if (conjunct->kind == Expression::Kind::kComparison &&
          conjunct->op == ComparisonOp::kEq &&
          conjunct->lhs.kind == Operand::Kind::kColumn &&
          conjunct->rhs.kind == Operand::Kind::kColumn) {
        auto a = ResolveColumnIndex(frame, conjunct->lhs.column);
        auto b = ResolveColumnIndex(frame, conjunct->rhs.column);
        if (!a || !b || a->first == b->first) return std::nullopt;
        JoinKeyPair pair;
        pair.left_column = a->first == 0 ? a->second : b->second;
        pair.right_column = a->first == 0 ? b->second : a->second;
        if (!BuildCodeTranslation(ctx, &pair)) return std::nullopt;
        join_keys.push_back(std::move(pair));
        continue;
      }
      TruthProgram compiled;
      size_t table = kNoTable;
      if (!CompileExpression(*conjunct, ctx, &compiled, &table)) {
        return std::nullopt;
      }
      programs[table == kNoTable ? 0 : table].children.push_back(
          std::move(compiled));
    }

    auto project = [&]() -> Status {
      ++*plain_row_count;
      auto row = ProjectRow(statement.select_list, has_count);
      if (!row.ok()) return row.status();
      projected->push_back(std::move(row).value());
      if (options_.max_intermediate_rows != 0 &&
          projected->size() > options_.max_intermediate_rows) {
        return FailedPreconditionError(
            "query exceeded max_intermediate_rows");
      }
      return Status::Ok();
    };

    const EncodedTable& enc0 = caches[0]->encoded();
    std::vector<Truth> truth(batch::kBatchSize);
    std::vector<uint32_t> selected(batch::kBatchSize);

    if (frame.size() == 1) {
      const Table* table = frame[0].table;
      batch::BatchIterator batches(table->num_rows());
      size_t start = 0, count = 0;
      while (batches.Next(&start, &count)) {
        EvalProgram(programs[0], enc0, start, count, truth.data());
        batch::AddKernelRows(batch::Kernel::kScan, count);
        const size_t n =
            batch::SelectTrue(truth.data(), count, start, selected.data());
        for (size_t i = 0; i < n; ++i) {
          frame[0].Load(selected[i]);
          Status status = project();
          if (!status.ok()) return status;
        }
      }
      return Status::Ok();
    }

    // Two tables: filter the build side (frame[1]) into hash buckets over
    // its join-key codes, then stream the probe side in row order. Bucket
    // lists keep ascending row order, so emission order — probe row outer,
    // build row inner, both ascending — matches the odometer exactly.
    const Table* left_table = frame[0].table;
    const Table* right_table = frame[1].table;
    const EncodedTable& enc1 = caches[1]->encoded();
    std::unordered_map<uint64_t, std::vector<uint32_t>> buckets;
    std::vector<uint32_t> cross_rows;  // no join keys: filtered cross product
    {
      batch::BatchIterator batches(right_table->num_rows());
      size_t start = 0, count = 0;
      while (batches.Next(&start, &count)) {
        EvalProgram(programs[1], enc1, start, count, truth.data());
        batch::AddKernelRows(batch::Kernel::kScan, count);
        const size_t n =
            batch::SelectTrue(truth.data(), count, start, selected.data());
        for (size_t i = 0; i < n; ++i) {
          const uint32_t row = selected[i];
          if (join_keys.empty()) {
            cross_rows.push_back(row);
            continue;
          }
          uint64_t hash = kRowHashSeed;
          bool valid = true;
          for (const JoinKeyPair& key : join_keys) {
            const uint32_t code = enc1.codes(key.right_column)[row];
            if (code == EncodedTable::kNullCode) {
              valid = false;  // NULL keys never join
              break;
            }
            hash = SketchHashCombine(hash, code);
          }
          if (valid) buckets[hash].push_back(row);
        }
      }
    }

    std::vector<uint32_t> probe_codes(join_keys.size());
    batch::BatchIterator batches(left_table->num_rows());
    size_t start = 0, count = 0;
    while (batches.Next(&start, &count)) {
      EvalProgram(programs[0], enc0, start, count, truth.data());
      batch::AddKernelRows(batch::Kernel::kScan, count);
      const size_t n =
          batch::SelectTrue(truth.data(), count, start, selected.data());
      batch::AddKernelRows(batch::Kernel::kJoin, n);
      for (size_t i = 0; i < n; ++i) {
        const uint32_t r0 = selected[i];
        frame[0].Load(r0);
        if (join_keys.empty()) {
          for (uint32_t r1 : cross_rows) {
            frame[1].Load(r1);
            Status status = project();
            if (!status.ok()) return status;
          }
          continue;
        }
        uint64_t hash = kRowHashSeed;
        bool valid = true;
        for (size_t k = 0; k < join_keys.size(); ++k) {
          const uint32_t code = enc0.codes(join_keys[k].left_column)[r0];
          const uint32_t translated = code == EncodedTable::kNullCode
                                          ? EncodedTable::kNullCode
                                          : join_keys[k].translate[code];
          if (translated == EncodedTable::kNullCode) {
            valid = false;
            break;
          }
          probe_codes[k] = translated;
          hash = SketchHashCombine(hash, translated);
        }
        if (!valid) continue;
        auto bucket = buckets.find(hash);
        if (bucket == buckets.end()) continue;
        for (uint32_t r1 : bucket->second) {
          // Hash buckets can collide; code equality is the exact check.
          bool match = true;
          for (size_t k = 0; k < join_keys.size(); ++k) {
            if (enc1.codes(join_keys[k].right_column)[r1] !=
                probe_codes[k]) {
              match = false;
              break;
            }
          }
          if (!match) continue;
          frame[1].Load(r1);
          Status status = project();
          if (!status.ok()) return status;
        }
      }
    }
    return Status::Ok();
  }

  // Projects the current bound row combination onto the select list. For
  // COUNT items the counted column value is projected (aggregated later).
  Result<ValueVector> ProjectRow(const std::vector<SelectItem>& select_list,
                                 bool for_count) {
    ValueVector out;
    for (const SelectItem& item : select_list) {
      if (item.star) {
        if (for_count) {
          out.push_back(Value::Int(1));  // placeholder; COUNT(*) uses rows
          continue;
        }
        // Expand *: all columns of all (or the qualified) tables in the
        // innermost frame.
        const Frame& frame = *env_.back();
        for (const Binding& binding : frame) {
          if (!item.column.qualifier.empty()) {
            const std::string& name = binding.ref->alias.empty()
                                          ? binding.ref->table
                                          : binding.ref->alias;
            if (name != item.column.qualifier) continue;
          }
          for (const Value& value : *binding.row) out.push_back(value);
        }
        continue;
      }
      DBRE_ASSIGN_OR_RETURN(Value value, ResolveColumnValue(item.column));
      out.push_back(std::move(value));
    }
    return out;
  }

  Status NameColumns(const SelectStatement& statement, const Frame& frame,
                     bool has_count, std::vector<std::string>* names) {
    for (const SelectItem& item : statement.select_list) {
      if (item.star && !has_count) {
        for (const Binding& binding : frame) {
          if (!item.column.qualifier.empty()) {
            const std::string& name = binding.ref->alias.empty()
                                          ? binding.ref->table
                                          : binding.ref->alias;
            if (name != item.column.qualifier) continue;
          }
          for (const Attribute& attribute :
               binding.table->schema().attributes()) {
            names->push_back(attribute.name);
          }
        }
        continue;
      }
      names->push_back(item.ToString());
    }
    return Status::Ok();
  }

  // Looks up a column in the environment, innermost frame first.
  Result<Value> ResolveColumnValue(const ColumnRef& ref) {
    for (size_t depth = env_.size(); depth-- > 0;) {
      const Frame& frame = *env_[depth];
      const Binding* found = nullptr;
      for (const Binding& binding : frame) {
        if (!ref.qualifier.empty()) {
          const std::string& name = binding.ref->alias.empty()
                                        ? binding.ref->table
                                        : binding.ref->alias;
          if (name != ref.qualifier) continue;
          found = &binding;
          break;
        }
        if (binding.table->schema().HasAttribute(ref.column)) {
          if (found != nullptr) {
            return InvalidArgumentError("ambiguous column " + ref.column);
          }
          found = &binding;
        }
      }
      if (found == nullptr) continue;
      auto index = found->table->schema().AttributeIndex(ref.column);
      if (!index.ok()) {
        if (!ref.qualifier.empty()) return index.status();
        continue;  // unqualified: keep searching outer scopes
      }
      if (found->row == nullptr) {
        return InternalError("column referenced outside row context");
      }
      return (*found->row)[*index];
    }
    return NotFoundError("cannot resolve column " + ref.ToString());
  }

  Result<Value> EvaluateOperand(const Operand& operand) {
    switch (operand.kind) {
      case Operand::Kind::kColumn:
        return ResolveColumnValue(operand.column);
      case Operand::Kind::kInteger: {
        DBRE_ASSIGN_OR_RETURN(Value value,
                              Value::Parse(operand.literal,
                                           DataType::kInt64));
        return value;
      }
      case Operand::Kind::kDecimal: {
        DBRE_ASSIGN_OR_RETURN(Value value,
                              Value::Parse(operand.literal,
                                           DataType::kDouble));
        return value;
      }
      case Operand::Kind::kString:
        return Value::Text(operand.literal);
      case Operand::Kind::kHostVariable:
        // Host variables have no value at reverse-engineering time; SQL
        // NULL makes the containing predicate unknown, which is the
        // conservative reading.
        return Value::Null();
      case Operand::Kind::kNull:
        return Value::Null();
    }
    return InternalError("unhandled operand kind");
  }

  Result<Ternary> EvaluateComparison(const Expression& expr) {
    DBRE_ASSIGN_OR_RETURN(Value lhs, EvaluateOperand(expr.lhs));
    DBRE_ASSIGN_OR_RETURN(Value rhs, EvaluateOperand(expr.rhs));
    if (lhs.is_null() || rhs.is_null()) return Ternary::kUnknown;
    DBRE_ASSIGN_OR_RETURN(int cmp, CompareValues(lhs, rhs));
    bool truth = false;
    switch (expr.op) {
      case ComparisonOp::kEq: truth = cmp == 0; break;
      case ComparisonOp::kNe: truth = cmp != 0; break;
      case ComparisonOp::kLt: truth = cmp < 0; break;
      case ComparisonOp::kLe: truth = cmp <= 0; break;
      case ComparisonOp::kGt: truth = cmp > 0; break;
      case ComparisonOp::kGe: truth = cmp >= 0; break;
    }
    return truth ? Ternary::kTrue : Ternary::kFalse;
  }

  Result<Ternary> EvaluateExpression(const Expression& expr) {
    switch (expr.kind) {
      case Expression::Kind::kComparison:
        return EvaluateComparison(expr);
      case Expression::Kind::kAnd: {
        Ternary value = Ternary::kTrue;
        for (const auto& child : expr.children) {
          DBRE_ASSIGN_OR_RETURN(Ternary v, EvaluateExpression(*child));
          value = And(value, v);
          if (value == Ternary::kFalse) break;
        }
        return value;
      }
      case Expression::Kind::kOr: {
        Ternary value = Ternary::kFalse;
        for (const auto& child : expr.children) {
          DBRE_ASSIGN_OR_RETURN(Ternary v, EvaluateExpression(*child));
          value = Or(value, v);
          if (value == Ternary::kTrue) break;
        }
        return value;
      }
      case Expression::Kind::kNot: {
        if (expr.children.empty()) return InternalError("NOT without child");
        DBRE_ASSIGN_OR_RETURN(Ternary v,
                              EvaluateExpression(*expr.children[0]));
        return Not(v);
      }
      case Expression::Kind::kIsNull: {
        DBRE_ASSIGN_OR_RETURN(Value value, EvaluateOperand(expr.lhs));
        bool is_null = value.is_null();
        return (is_null != expr.negated) ? Ternary::kTrue : Ternary::kFalse;
      }
      case Expression::Kind::kBetween:
        // The parser keeps BETWEEN opaque (bounds discarded): evaluate as
        // unknown, which filters the row without failing the query.
        return Ternary::kUnknown;
      case Expression::Kind::kLike: {
        DBRE_ASSIGN_OR_RETURN(Value text, EvaluateOperand(expr.lhs));
        DBRE_ASSIGN_OR_RETURN(Value pattern, EvaluateOperand(expr.rhs));
        if (text.is_null() || pattern.is_null()) return Ternary::kUnknown;
        if (!text.is_text() || !pattern.is_text()) {
          return InvalidArgumentError("LIKE requires string operands");
        }
        bool matches = LikeMatches(text.as_text(), pattern.as_text());
        return (matches != expr.negated) ? Ternary::kTrue : Ternary::kFalse;
      }
      case Expression::Kind::kInSubquery:
        return EvaluateInSubquery(expr);
      case Expression::Kind::kExists: {
        if (expr.subquery == nullptr) {
          return InternalError("EXISTS without subquery");
        }
        DBRE_ASSIGN_OR_RETURN(ResultSet rows,
                              ExecuteStatement(*expr.subquery));
        bool exists = !rows.rows.empty();
        return (exists != expr.negated) ? Ternary::kTrue : Ternary::kFalse;
      }
    }
    return InternalError("unhandled expression kind");
  }

  Result<Ternary> EvaluateInSubquery(const Expression& expr) {
    if (expr.subquery == nullptr) return InternalError("IN without subquery");
    ValueVector probe;
    for (const ColumnRef& column : expr.in_columns) {
      DBRE_ASSIGN_OR_RETURN(Value value, ResolveColumnValue(column));
      probe.push_back(std::move(value));
    }
    DBRE_ASSIGN_OR_RETURN(ResultSet rows, ExecuteStatement(*expr.subquery));
    bool saw_unknown = false;
    for (const ValueVector& row : rows.rows) {
      if (row.size() != probe.size()) {
        return InvalidArgumentError("IN subquery arity mismatch");
      }
      Ternary match = Ternary::kTrue;
      for (size_t i = 0; i < probe.size() && match != Ternary::kFalse;
           ++i) {
        if (probe[i].is_null() || row[i].is_null()) {
          match = And(match, Ternary::kUnknown);
          continue;
        }
        DBRE_ASSIGN_OR_RETURN(int cmp, CompareValues(probe[i], row[i]));
        match = And(match, cmp == 0 ? Ternary::kTrue : Ternary::kFalse);
      }
      if (match == Ternary::kTrue) {
        return expr.negated ? Ternary::kFalse : Ternary::kTrue;
      }
      if (match == Ternary::kUnknown) saw_unknown = true;
    }
    if (saw_unknown) return Ternary::kUnknown;
    return expr.negated ? Ternary::kTrue : Ternary::kFalse;
  }

  const Database& database_;
  const ExecutorOptions& options_;
  std::vector<Frame*> env_;
};

}  // namespace

std::string ResultSet::ToString() const {
  // Compute column widths.
  std::vector<size_t> widths(columns.size());
  for (size_t c = 0; c < columns.size(); ++c) widths[c] = columns[c].size();
  std::vector<std::vector<std::string>> rendered;
  for (const ValueVector& row : rows) {
    std::vector<std::string> cells;
    for (size_t c = 0; c < row.size(); ++c) {
      cells.push_back(row[c].ToString());
      if (c < widths.size()) widths[c] = std::max(widths[c], cells[c].size());
    }
    rendered.push_back(std::move(cells));
  }
  std::ostringstream os;
  for (size_t c = 0; c < columns.size(); ++c) {
    os << (c ? " | " : "") << columns[c]
       << std::string(widths[c] - columns[c].size(), ' ');
  }
  os << "\n";
  for (size_t c = 0; c < columns.size(); ++c) {
    os << (c ? "-+-" : "") << std::string(widths[c], '-');
  }
  os << "\n";
  for (const auto& cells : rendered) {
    for (size_t c = 0; c < cells.size(); ++c) {
      size_t width = c < widths.size() ? widths[c] : cells[c].size();
      os << (c ? " | " : "") << cells[c]
         << std::string(width - std::min(width, cells[c].size()), ' ');
    }
    os << "\n";
  }
  return os.str();
}

bool ResultSet::SameRows(const ResultSet& other) const {
  std::vector<ValueVector> a = rows, b = other.rows;
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  return a == b;
}

Result<ResultSet> Execute(const Database& database,
                          const SelectStatement& statement,
                          const ExecutorOptions& options) {
  Evaluator evaluator(database, options);
  return evaluator.ExecuteStatement(statement);
}

Result<ResultSet> ExecuteQuery(const Database& database,
                               std::string_view sql,
                               const ExecutorOptions& options) {
  DBRE_ASSIGN_OR_RETURN(std::unique_ptr<SelectStatement> statement,
                        ParseSelect(sql));
  return Execute(database, *statement, options);
}

Result<size_t> CountDistinct(const Database& database,
                             const std::string& relation,
                             const std::vector<std::string>& attributes) {
  if (attributes.empty()) {
    return InvalidArgumentError("count distinct over no attributes");
  }
  // ‖r[X]‖ answers straight from the table's memoized encoded engine when
  // the attributes resolve and the table encodes (NULL-skipping distinct
  // semantics match the SELECT DISTINCT evaluation below, which remains
  // both the fallback and the crosscheck — see tests/sql/executor_test.cc).
  DBRE_ASSIGN_OR_RETURN(const Table* table, database.GetTable(relation));
  std::vector<size_t> columns;
  columns.reserve(attributes.size());
  bool resolved = true;
  for (const std::string& attribute : attributes) {
    auto index = table->schema().AttributeIndex(attribute);
    if (!index.ok()) {
      resolved = false;  // the SQL path reports the resolution error
      break;
    }
    columns.push_back(*index);
  }
  if (resolved) {
    auto cache = table->query_cache();
    if (cache.ok()) return (*cache)->DistinctCount(columns);
  }
  // COUNT(DISTINCT a, b, ...) is not portable SQL; evaluate as the number
  // of distinct non-NULL projections via SELECT DISTINCT.
  std::string sql = "SELECT DISTINCT " + Join(attributes, ", ") + " FROM " +
                    relation;
  DBRE_ASSIGN_OR_RETURN(ResultSet rows, ExecuteQuery(database, sql));
  size_t count = 0;
  for (const ValueVector& row : rows.rows) {
    bool has_null = std::any_of(row.begin(), row.end(),
                                [](const Value& v) { return v.is_null(); });
    if (!has_null) ++count;
  }
  return count;
}

}  // namespace dbre::sql
