#include "relational/value.h"

#include <charconv>
#include <cmath>
#include <functional>
#include <sstream>

#include "common/string_util.h"

namespace dbre {

const char* DataTypeName(DataType type) {
  switch (type) {
    case DataType::kInt64:
      return "int64";
    case DataType::kDouble:
      return "double";
    case DataType::kBool:
      return "bool";
    case DataType::kString:
      return "string";
  }
  return "unknown";
}

Result<DataType> DataTypeFromName(std::string_view name) {
  std::string lower = ToLower(name);
  if (lower == "int64" || lower == "int" || lower == "integer") {
    return DataType::kInt64;
  }
  if (lower == "double" || lower == "real" || lower == "float") {
    return DataType::kDouble;
  }
  if (lower == "bool" || lower == "boolean") return DataType::kBool;
  if (lower == "string" || lower == "text" || lower == "varchar") {
    return DataType::kString;
  }
  return InvalidArgumentError("unknown data type name: " + std::string(name));
}

std::string Value::ToString() const {
  if (is_null()) return "NULL";
  if (is_int()) return std::to_string(as_int());
  if (is_bool()) return as_bool() ? "true" : "false";
  if (is_real()) {
    std::ostringstream os;
    os << as_real();
    return os.str();
  }
  return as_text();
}

Result<Value> Value::Parse(std::string_view text, DataType type,
                           NullHandling nulls) {
  std::string_view trimmed = TrimWhitespace(text);
  if (nulls == NullHandling::kLenient &&
      (trimmed.empty() || EqualsIgnoreCase(trimmed, "null"))) {
    return Value::Null();
  }
  switch (type) {
    case DataType::kInt64: {
      int64_t parsed = 0;
      auto [ptr, ec] =
          std::from_chars(trimmed.data(), trimmed.data() + trimmed.size(),
                          parsed);
      if (ec != std::errc() || ptr != trimmed.data() + trimmed.size()) {
        return ParseError("not an int64: '" + std::string(trimmed) + "'");
      }
      return Value::Int(parsed);
    }
    case DataType::kDouble: {
      // std::from_chars for double is unreliable across libstdc++ versions;
      // use strtod on a NUL-terminated copy.
      std::string copy(trimmed);
      char* end = nullptr;
      double parsed = std::strtod(copy.c_str(), &end);
      if (end != copy.c_str() + copy.size()) {
        return ParseError("not a double: '" + copy + "'");
      }
      return Value::Real(parsed);
    }
    case DataType::kBool: {
      if (EqualsIgnoreCase(trimmed, "true") || trimmed == "1") {
        return Value::Boolean(true);
      }
      if (EqualsIgnoreCase(trimmed, "false") || trimmed == "0") {
        return Value::Boolean(false);
      }
      return ParseError("not a bool: '" + std::string(trimmed) + "'");
    }
    case DataType::kString:
      return Value::Text(std::string(trimmed));
  }
  return InternalError("unhandled data type in Value::Parse");
}

size_t Value::Hash() const {
  size_t tag = data_.index();
  size_t payload = 0;
  if (is_int()) {
    payload = std::hash<int64_t>()(as_int());
  } else if (is_real()) {
    payload = std::hash<double>()(as_real());
  } else if (is_bool()) {
    payload = std::hash<bool>()(as_bool());
  } else if (is_text()) {
    payload = std::hash<std::string>()(as_text());
  }
  return payload * 1099511628211ULL + tag;
}

std::ostream& operator<<(std::ostream& os, const Value& value) {
  return os << value.ToString();
}

size_t ValueVectorHash::operator()(const ValueVector& values) const {
  size_t h = 14695981039346656037ULL;
  for (const Value& v : values) {
    h ^= v.Hash();
    h *= 1099511628211ULL;
  }
  return h;
}

}  // namespace dbre
