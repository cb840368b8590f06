#include "relational/encoded_table.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string_view>
#include <utility>

#include "relational/column_batch.h"

namespace dbre {
namespace {

// Paged reads happen after the source verified clean at open; a failure
// here is a real environment fault and EnsureColumn/DecodeValue/
// MakeResident have no error channel (see relational/paged_source.h).
[[noreturn]] void DiePagedDict(const Status& status) {
  std::fprintf(stderr,
               "dbre: unrecoverable paged dictionary read failure: %s\n",
               status.ToString().c_str());
  std::abort();
}

// -0.0 and 0.0 compare equal but have distinct bit patterns; fold them.
uint64_t DoubleKey(double d) {
  return std::bit_cast<uint64_t>(d == 0.0 ? 0.0 : d);
}

// Rows a column must have seen, all distinct, before its index is sized
// for the whole reserved load.
constexpr size_t kPresizeAfterRows = 1024;

// NaN never equals anything (Value::operator== included), so every NaN
// occurrence is its own dictionary entry and never an index key.
bool AlwaysFresh(const Value& value) {
  return value.is_real() && std::isnan(value.as_real());
}

}  // namespace

// ---- DictionaryIndex ------------------------------------------------------

void DictionaryIndex::Reset() {
  slots_ = {};
  size_ = 0;
  shift_ = 64;
}

void DictionaryIndex::Reserve(size_t entries) {
  const size_t capacity = size_t{1}
                          << flat_hash_internal::CapacityBits(entries);
  if (capacity > slots_.size()) Grow(capacity);
}

void DictionaryIndex::Grow(size_t capacity) {
  std::vector<Slot> old = std::move(slots_);
  slots_.assign(capacity, Slot{});
  shift_ = 64 - std::countr_zero(capacity);
  const size_t mask = capacity - 1;
  for (const Slot& slot : old) {
    if (slot.code == kAbsent) continue;
    size_t i = Start(slot.key);
    while (slots_[i].code != kAbsent) i = (i + 1) & mask;
    slots_[i] = slot;
  }
}

// ---- EncodedColumn --------------------------------------------------------

void EncodedColumn::MakeResident() {
  const PagedSource& from = *source;
  const size_t rows = from.num_rows();
  std::unique_ptr<PagedCodeCursor> cursor = from.Codes(source_column);
  codes.resize(rows);
  batch::BatchIterator batches(rows);
  size_t start = 0;
  size_t count = 0;
  while (batches.Next(&start, &count)) {
    std::memcpy(codes.data() + start, cursor->Fetch(start, count),
                count * sizeof(uint32_t));
  }
  dictionary.clear();
  dictionary.reserve(from.dict_size(source_column));
  Status status = from.ForEachDictValue(
      source_column,
      [this](uint32_t, const Value& value) { dictionary.push_back(value); });
  if (!status.ok()) DiePagedDict(status);
  source.reset();
  source_column = 0;
  index.Reset();
}

uint64_t EncodedColumn::KeyOf(const Value& value) const {
  if (!typed) return value.Hash();
  switch (type) {
    case DataType::kInt64:
      return static_cast<uint64_t>(value.as_int());
    case DataType::kDouble:
      return DoubleKey(value.as_real());
    case DataType::kBool:
      return value.as_bool() ? 1 : 0;
    case DataType::kString:
      return std::hash<std::string_view>()(value.as_text());
  }
  return 0;
}

uint64_t EncodedColumn::PrefetchKey(const Value& value) const {
  // An off-type cell re-keys the column; Intern computes its key then.
  if (value.is_null() || (typed && !value.MatchesType(type))) return 0;
  const uint64_t key = KeyOf(value);
  index.Prefetch(key);
  return key;
}

void EncodedColumn::RebuildIndex() {
  index.Reserve(dictionary.size());
  const auto never = [](uint32_t) { return false; };
  for (uint32_t code = 0; code < dictionary.size(); ++code) {
    if (AlwaysFresh(dictionary[code])) continue;
    index.FindOrInsert(KeyOf(dictionary[code]), code, never);
  }
}

uint32_t EncodedColumn::Intern(Value&& value, const uint64_t* key) {
  if (value.is_null()) {
    has_null = true;
    return kNullCode;
  }
  if (typed && !value.MatchesType(type)) {
    // The first off-type cell: keys switch from typed to Value hashes.
    typed = false;
    index.Reset();
    key = nullptr;
  }
  const uint32_t fresh = static_cast<uint32_t>(dictionary.size());
  uint32_t code = fresh;
  if (!AlwaysFresh(value)) {
    EnsureIndex();
    // A column still all-distinct after a thousand rows is a key: size its
    // index for every row the load reserved (Table::Reserve) at once
    // instead of doubling through it. Columns that repeat keep doubling.
    if (index.full() && index.size() == codes.size() &&
        codes.size() >= kPresizeAfterRows) {
      index.Reserve(codes.capacity());
    }
    const bool exact = typed && type != DataType::kString;
    code = index.FindOrInsert(
        key != nullptr ? *key : KeyOf(value), fresh,
        [&](uint32_t candidate) {
          if (exact) return true;
          return typed ? dictionary[candidate].as_text() == value.as_text()
                       : dictionary[candidate] == value;
        });
  }
  if (code == fresh) dictionary.push_back(std::move(value));
  return code;
}

void EncodedColumn::Canonicalize() {
  const uint32_t entries = static_cast<uint32_t>(dictionary.size());
  std::vector<uint32_t> remap(entries, kNullCode);
  uint32_t next = 0;
  bool nulls = false;
  for (uint32_t& code : codes) {
    if (code == kNullCode) {
      nulls = true;
      continue;
    }
    uint32_t& renumbered = remap[code];
    if (renumbered == kNullCode) renumbered = next++;
    code = renumbered;
  }
  has_null = nulls;
  bool identity = next == entries;
  for (uint32_t code = 0; identity && code < entries; ++code) {
    identity = remap[code] == code;
  }
  if (!identity) {
    index.Reset();
    std::vector<Value> kept(next);
    for (uint32_t code = 0; code < entries; ++code) {
      if (remap[code] != kNullCode) {
        kept[remap[code]] = std::move(dictionary[code]);
      }
    }
    dictionary = std::move(kept);
  }
  const bool now_typed =
      std::all_of(dictionary.begin(), dictionary.end(),
                  [this](const Value& v) { return v.MatchesType(type); });
  if (now_typed != typed) index.Reset();  // keyed the other way
  typed = now_typed;
}

size_t EncodedColumn::ApproximateBytes() const {
  if (paged()) return sizeof(EncodedColumn);
  size_t bytes = sizeof(EncodedColumn) + codes.capacity() * sizeof(uint32_t) +
                 dictionary.capacity() * sizeof(Value) + index.bytes();
  for (const Value& value : dictionary) {
    if (value.is_text()) bytes += value.as_text().capacity();
  }
  return bytes;
}

// ---- EncodedTable ---------------------------------------------------------

EncodedTable::EncodedTable(
    std::vector<std::shared_ptr<const EncodedColumn>> columns,
    size_t num_rows)
    : columns_(std::move(columns)),
      num_rows_(num_rows),
      ready_(columns_.size(), 1),
      paged_dicts_(columns_.size()) {
  for (size_t c = 0; c < columns_.size(); ++c) {
    if (columns_[c]->paged()) ready_[c] = 0;
  }
}

void EncodedTable::EnsureColumn(size_t c) {
  if (ready_[c]) return;
  const uint32_t entries = dict_size(c);
  if (entries <= kPagedDictMaterializeLimit) {
    std::vector<Value>& dictionary = paged_dicts_[c];
    dictionary.reserve(entries);
    const EncodedColumn& column = *columns_[c];
    Status status = column.source->ForEachDictValue(
        column.source_column, [&dictionary](uint32_t, const Value& value) {
          dictionary.push_back(value);
        });
    if (!status.ok()) DiePagedDict(status);
  }
  ready_[c] = 1;
}

EncodedTable::CodeReader EncodedTable::codes_reader(size_t c) const {
  if (columns_[c]->paged()) {
    return CodeReader(columns_[c]->source->Codes(columns_[c]->source_column));
  }
  return CodeReader(columns_[c]->codes.data());
}

Value EncodedTable::DecodeValue(size_t c, uint32_t code) const {
  if (dict_resident(c)) return Decode(c, code);
  const EncodedColumn& column = *columns_[c];
  Result<Value> value = column.source->DictValueAt(column.source_column, code);
  if (!value.ok()) DiePagedDict(value.status());
  return *std::move(value);
}

Status EncodedTable::ForEachDictValue(
    size_t c,
    const std::function<void(uint32_t code, const Value& value)>& fn) const {
  if (dict_resident(c)) {
    const uint32_t entries = dict_size(c);
    for (uint32_t code = 0; code < entries; ++code) fn(code, Decode(c, code));
    return Status::Ok();
  }
  return columns_[c]->source->ForEachDictValue(columns_[c]->source_column, fn);
}

EncodedTable::RowReader::RowReader(const EncodedTable* encoded,
                                   std::vector<size_t> columns)
    : encoded_(encoded), columns_(std::move(columns)) {
  readers_.reserve(columns_.size());
  for (size_t c : columns_) {
    readers_.push_back(encoded_->codes_reader(c));
    dictionaries_.push_back(encoded_->dict_resident(c) &&
                                    encoded_->dict_size(c) > 0
                                ? &encoded_->Decode(c, 0)
                                : nullptr);
  }
}

void EncodedTable::RowReader::Read(size_t row, ValueVector* out) {
  // Assign in place: a reused row keeps its strings' buffers.
  out->resize(columns_.size());
  for (size_t k = 0; k < columns_.size(); ++k) {
    const uint32_t code = readers_[k].At(row);
    Value& cell = (*out)[k];
    if (code == kNullCode) {
      cell = Value::Null();
    } else if (dictionaries_[k] != nullptr) {
      cell = dictionaries_[k][code];
    } else {
      cell = encoded_->DecodeValue(columns_[k], code);
    }
  }
}

}  // namespace dbre
