#include "relational/table.h"

#include <algorithm>
#include <mutex>
#include <optional>

#include "relational/column_batch.h"
#include "relational/query_cache.h"

namespace dbre {
namespace {

// Guards lazy cache and rows-view construction across tables. Builds
// happen once per table per load, so a single process-wide mutex never
// contends in practice while keeping Table itself copyable (a per-table
// mutex would not be).
std::mutex g_query_cache_mutex;

std::vector<std::shared_ptr<EncodedColumn>> EmptyColumns(
    const RelationSchema& schema) {
  std::vector<std::shared_ptr<EncodedColumn>> columns;
  for (const Attribute& attribute : schema.attributes()) {
    columns.emplace_back(std::make_shared<EncodedColumn>())->type =
        attribute.type;
  }
  return columns;
}

// A cache over `columns`, starting from `memos`.
std::shared_ptr<QueryCache> NewCache(
    const std::vector<std::shared_ptr<EncodedColumn>>& columns,
    size_t num_rows, QueryCache::Memos memos = {}) {
  return std::make_shared<QueryCache>(
      EncodedTable({columns.begin(), columns.end()}, num_rows),
      std::move(memos));
}

}  // namespace

Table::Table(RelationSchema schema)
    : schema_(std::move(schema)), columns_(EmptyColumns(schema_)) {}

const std::vector<ValueVector>& Table::rows() const {
  std::lock_guard<std::mutex> lock(g_query_cache_mutex);
  if (rows_view_ == nullptr) {
    if (cache_ == nullptr) cache_ = NewCache(columns_, num_rows_);
    auto view = std::make_shared<std::vector<ValueVector>>(num_rows_);
    EncodedTable::RowReader reader = cache_->ReadRows();
    for (size_t i = 0; i < num_rows_; ++i) reader.Read(i, &(*view)[i]);
    rows_view_ = std::move(view);
  }
  return *rows_view_;
}

Status Table::AdoptPagedExtension(
    std::shared_ptr<const PagedSource> source) {
  if (source == nullptr) {
    return InvalidArgumentError("AdoptPagedExtension: null source");
  }
  if (source->num_columns() != schema_.arity()) {
    return InvalidArgumentError(
        "arity mismatch adopting paged extension for " + schema_.name() +
        ": got " + std::to_string(source->num_columns()) + " columns, want " +
        std::to_string(schema_.arity()));
  }
  for (size_t c = 0; c < schema_.arity(); ++c) {
    const Attribute& attribute = schema_.attributes()[c];
    if (source->declared_type(c) != attribute.type) {
      return InvalidArgumentError("declared type mismatch for " +
                                  schema_.name() + "." + attribute.name +
                                  " adopting paged extension");
    }
  }
  std::vector<std::shared_ptr<EncodedColumn>> columns;
  columns.reserve(schema_.arity());
  for (size_t c = 0; c < schema_.arity(); ++c) {
    auto& column = columns.emplace_back(std::make_shared<EncodedColumn>());
    column->type = source->declared_type(c);
    column->has_null = source->has_null(c);
    column->typed = source->typed(c);
    column->source = source;
    column->source_column = static_cast<uint32_t>(c);
  }
  const size_t rows = source->num_rows();
  Install(std::move(columns), rows, std::move(source));
  return Status::Ok();
}

Status Table::AdoptColumns(std::vector<EncodedColumn> columns,
                           size_t num_rows) {
  if (columns.size() != schema_.arity()) {
    return InvalidArgumentError(
        "arity mismatch adopting extension for " + schema_.name() + ": got " +
        std::to_string(columns.size()) + ", want " +
        std::to_string(schema_.arity()));
  }
  std::vector<std::shared_ptr<EncodedColumn>> adopted;
  adopted.reserve(columns.size());
  for (EncodedColumn& column : columns) {
    if (column.paged() || column.codes.size() != num_rows ||
        column.type != schema_.attributes()[adopted.size()].type) {
      return InvalidArgumentError("column layout mismatch adopting extension "
                                  "for " + schema_.name());
    }
    adopted.push_back(std::make_shared<EncodedColumn>(std::move(column)));
  }
  Install(std::move(adopted), num_rows, nullptr);
  return Status::Ok();
}

void Table::Install(std::vector<std::shared_ptr<EncodedColumn>> columns,
                    size_t num_rows, std::shared_ptr<const PagedSource> paged) {
  std::lock_guard<std::mutex> lock(g_query_cache_mutex);
  DropCache();
  columns_ = std::move(columns);
  num_rows_ = num_rows;
  paged_ = std::move(paged);
}

Result<std::shared_ptr<QueryCache>> Table::query_cache() const {
  std::lock_guard<std::mutex> lock(g_query_cache_mutex);
  if (cache_ == nullptr) cache_ = NewCache(columns_, num_rows_);
  return cache_;
}

EncodedColumn& Table::MutableColumn(size_t c) {
  std::shared_ptr<EncodedColumn>& column = columns_[c];
  if (column.use_count() > 1) {
    column = std::make_shared<EncodedColumn>(*column);
  }
  if (column->paged()) column->MakeResident();
  return *column;
}

void Table::MakeResident() {
  if (paged_ == nullptr) return;
  for (size_t c = 0; c < columns_.size(); ++c) MutableColumn(c);
  paged_.reset();
}

void Table::DropCache() {
  cache_.reset();
  rows_view_.reset();
}

std::vector<size_t> Table::MatchingRows(const RowPredicate& predicate) const {
  std::vector<size_t> matched;
  Result<std::shared_ptr<QueryCache>> cache = query_cache();
  if (!cache.ok()) return matched;
  const EncodedTable& encoded = (*cache)->encoded();
  // Each conjunct's test evaluated once per dictionary code; the entry
  // past the dictionary is the NULL lane.
  std::vector<std::vector<uint8_t>> pass;
  std::vector<EncodedTable::CodeReader> readers;
  for (const ColumnTest& conjunct : predicate) {
    std::vector<uint8_t>& lane = pass.emplace_back(
        encoded.dict_size(conjunct.column) + 1, uint8_t{0});
    (void)encoded.ForEachDictValue(
        conjunct.column, [&](uint32_t code, const Value& value) {
          lane[code] = conjunct.test(value) ? 1 : 0;
        });
    if (encoded.has_null(conjunct.column)) {
      lane.back() = conjunct.test(Value::Null()) ? 1 : 0;
    }
    readers.push_back(encoded.codes_reader(conjunct.column));
  }
  batch::BatchIterator batches(num_rows_);
  size_t start = 0;
  size_t count = 0;
  std::vector<uint8_t> keep(batch::kBatchSize);
  while (batches.Next(&start, &count)) {
    std::fill(keep.begin(), keep.begin() + count, 1);
    for (size_t k = 0; k < pass.size(); ++k) {
      const uint32_t* codes = readers[k].Fetch(start, count);
      const uint8_t* lane = pass[k].data();
      const uint32_t null_lane = static_cast<uint32_t>(pass[k].size() - 1);
      for (size_t i = 0; i < count; ++i) {
        const uint32_t code = codes[i];
        keep[i] &= lane[code == EncodedTable::kNullCode ? null_lane : code];
      }
    }
    for (size_t i = 0; i < count; ++i) {
      if (keep[i]) matched.push_back(start + i);
    }
  }
  return matched;
}

Result<size_t> Table::UpdateRows(const std::vector<size_t>& columns,
                                 const ValueVector& values,
                                 const RowPredicate& predicate) {
  if (columns.empty() || columns.size() != values.size()) {
    return InvalidArgumentError("UpdateRows: column/value count mismatch");
  }
  std::optional<AttributeSet> not_null;
  for (size_t k = 0; k < columns.size(); ++k) {
    if (columns[k] >= schema_.arity()) {
      return InvalidArgumentError("UpdateRows: column index out of range");
    }
    DBRE_RETURN_IF_ERROR(CheckCell(columns[k], values[k], &not_null));
  }
  // Match first: a predicate hitting nothing must not detach shared
  // columns or invalidate the cache.
  const std::vector<size_t> matched = MatchingRows(predicate);
  if (matched.empty()) return size_t{0};

  std::vector<size_t> rewritten(columns);
  std::sort(rewritten.begin(), rewritten.end());
  rewritten.erase(std::unique(rewritten.begin(), rewritten.end()),
                  rewritten.end());
  // Row count and every other column's codes are unchanged, so memos
  // over other columns stay exact. Take them before dropping the cache:
  // the cache must let go of the rewritten columns or they would be copied.
  std::optional<QueryCache::Memos> memos;
  if (cache_ != nullptr) memos = cache_->MemosAvoiding(rewritten);
  DropCache();
  MakeResident();
  for (size_t k = 0; k < columns.size(); ++k) {
    EncodedColumn& column = MutableColumn(columns[k]);
    const uint32_t code = column.Intern(Value(values[k]));
    for (size_t row : matched) column.codes[row] = code;
    column.Canonicalize();
  }
  if (memos.has_value()) {
    std::lock_guard<std::mutex> lock(g_query_cache_mutex);
    cache_ = NewCache(columns_, num_rows_, std::move(*memos));
  }
  return matched.size();
}

Result<size_t> Table::DeleteRows(const RowPredicate& predicate) {
  const std::vector<size_t> matched = MatchingRows(predicate);
  if (matched.empty()) return size_t{0};
  DropCache();
  MakeResident();
  for (size_t c = 0; c < columns_.size(); ++c) {
    EncodedColumn& column = MutableColumn(c);
    size_t out = 0;
    size_t next = 0;  // index into matched
    for (size_t row = 0; row < column.codes.size(); ++row) {
      if (next < matched.size() && matched[next] == row) {
        ++next;
        continue;
      }
      column.codes[out++] = column.codes[row];
    }
    column.codes.resize(out);
    column.Canonicalize();
  }
  num_rows_ -= matched.size();
  return matched.size();
}

bool Table::AdoptSharedExtension(const Table& other) {
  if (&other == this) return true;
  const auto& ours = schema_.attributes();
  const auto& theirs = other.schema_.attributes();
  if (ours.size() != theirs.size()) return false;
  for (size_t i = 0; i < ours.size(); ++i) {
    if (ours[i].name != theirs[i].name || ours[i].type != theirs[i].type) {
      return false;
    }
  }
  if (num_rows_ != other.num_rows_ || paged_ != other.paged_) return false;
  // Columns are canonical, so equal codes and dictionaries mean equal
  // extensions; paged columns match only the very same source column.
  for (size_t c = 0; c < columns_.size(); ++c) {
    const EncodedColumn& ours = *columns_[c];
    const EncodedColumn& theirs = *other.columns_[c];
    if (ours.source != theirs.source ||
        ours.source_column != theirs.source_column ||
        ours.codes != theirs.codes || ours.dictionary != theirs.dictionary) {
      return false;
    }
  }
  std::lock_guard<std::mutex> lock(g_query_cache_mutex);
  columns_ = other.columns_;
  if (other.cache_ != nullptr) cache_ = other.cache_;
  if (other.rows_view_ != nullptr) rows_view_ = other.rows_view_;
  return true;
}

size_t Table::ApproximateBytes() const {
  size_t bytes = 0;
  for (const auto& column : columns_) bytes += column->ApproximateBytes();
  return bytes;
}

Status Table::CheckCell(size_t c, const Value& value,
                        std::optional<AttributeSet>* not_null) const {
  const Attribute& attribute = schema_.attributes()[c];
  if (!value.MatchesType(attribute.type)) {
    return InvalidArgumentError("type mismatch for " + schema_.name() + "." +
                                attribute.name + ": value " +
                                value.ToString());
  }
  if (!value.is_null()) return Status::Ok();
  if (!not_null->has_value()) *not_null = schema_.NotNullAttributes();
  if ((*not_null)->Contains(attribute.name)) {
    return InvalidArgumentError("NULL in not-null attribute " +
                                schema_.name() + "." + attribute.name);
  }
  return Status::Ok();
}

Status Table::Insert(ValueVector row) {
  if (row.size() != schema_.arity()) {
    return InvalidArgumentError(
        "arity mismatch inserting into " + schema_.name() + ": got " +
        std::to_string(row.size()) + ", want " +
        std::to_string(schema_.arity()));
  }
  std::optional<AttributeSet> not_null;
  for (size_t i = 0; i < row.size(); ++i) {
    DBRE_RETURN_IF_ERROR(CheckCell(i, row[i], &not_null));
  }
  if (num_rows_ + 1 >= EncodedTable::kNullCode) {
    return InternalError("extension too large to encode: " + schema_.name());
  }
  InsertUnchecked(std::move(row));
  return Status::Ok();
}

void Table::InsertUnchecked(ValueVector row) {
  DropCache();
  MakeResident();
  uint64_t small[16];
  std::vector<uint64_t> large;
  uint64_t* keys = small;
  if (columns_.size() > std::size(small)) {
    large.resize(columns_.size());
    keys = large.data();
  }
  for (size_t c = 0; c < columns_.size(); ++c) {
    keys[c] = MutableColumn(c).PrefetchKey(row[c]);
  }
  for (size_t c = 0; c < columns_.size(); ++c) {
    columns_[c]->Append(std::move(row[c]), keys[c]);
  }
  ++num_rows_;
}

void Table::Reserve(size_t additional_rows) {
  DropCache();
  MakeResident();
  for (size_t c = 0; c < columns_.size(); ++c) {
    EncodedColumn& column = MutableColumn(c);
    column.codes.reserve(column.codes.size() + additional_rows);
  }
}

void Table::Clear() {
  DropCache();
  columns_ = EmptyColumns(schema_);
  num_rows_ = 0;
  paged_.reset();
}

Status Table::ForEachRow(
    const std::function<void(const ValueVector&)>& fn) const {
  DBRE_ASSIGN_OR_RETURN(std::shared_ptr<QueryCache> cache, query_cache());
  EncodedTable::RowReader reader = cache->ReadRows();
  ValueVector row;
  for (size_t i = 0; i < num_rows_; ++i) {
    reader.Read(i, &row);
    fn(row);
  }
  return Status::Ok();
}

Status Table::DropAttribute(std::string_view name) {
  DBRE_ASSIGN_OR_RETURN(size_t index, schema_.AttributeIndex(name));
  DBRE_RETURN_IF_ERROR(schema_.RemoveAttribute(name));
  DropCache();
  columns_.erase(columns_.begin() + static_cast<ptrdiff_t>(index));
  return Status::Ok();
}

Result<std::vector<size_t>> Table::ProjectionIndexes(
    const AttributeSet& attributes) const {
  if (attributes.empty()) {
    return InvalidArgumentError("projection on empty attribute set");
  }
  std::vector<size_t> indexes;
  indexes.reserve(attributes.size());
  for (const std::string& name : attributes) {
    DBRE_ASSIGN_OR_RETURN(size_t index, schema_.AttributeIndex(name));
    indexes.push_back(index);
  }
  return indexes;
}

ValueVector Table::ProjectRow(const ValueVector& row,
                              const std::vector<size_t>& indexes) {
  ValueVector out;
  out.reserve(indexes.size());
  for (size_t index : indexes) out.push_back(row[index]);
  return out;
}

Result<size_t> Table::DistinctCount(const AttributeSet& attributes) const {
  DBRE_ASSIGN_OR_RETURN(std::vector<size_t> indexes,
                        ProjectionIndexes(attributes));
  DBRE_ASSIGN_OR_RETURN(std::shared_ptr<QueryCache> cache, query_cache());
  return cache->DistinctCount(indexes);
}

Status Table::VerifyUniqueConstraints() const {
  for (const AttributeSet& unique : schema_.unique_constraints()) {
    DBRE_ASSIGN_OR_RETURN(std::vector<size_t> indexes,
                          ProjectionIndexes(unique));
    DBRE_ASSIGN_OR_RETURN(std::shared_ptr<QueryCache> cache, query_cache());
    // Unique iff no two NULL-free sub-rows coincide: every included row is
    // its own partition group.
    std::shared_ptr<const CodePartition> partition =
        cache->Partition(indexes, NullPolicy::kSkipNullRows);
    if (partition->num_groups() != partition->included_rows) {
      return FailedPreconditionError("unique constraint " + schema_.name() +
                                     "." + unique.ToString() +
                                     " is violated");
    }
  }
  return Status::Ok();
}

Status Table::VerifyNotNullConstraints() const {
  for (const std::string& name : schema_.NotNullAttributes()) {
    DBRE_ASSIGN_OR_RETURN(size_t index, schema_.AttributeIndex(name));
    // has_null is exact in both residencies; no scan needed.
    if (columns_[index]->has_null) {
      return FailedPreconditionError("not-null attribute " + schema_.name() +
                                     "." + name + " contains NULL");
    }
  }
  return Status::Ok();
}

}  // namespace dbre
