#include "sql/ddl_writer.h"

#include <cstdio>

namespace dbre::sql {
namespace {

const char* TypeKeyword(DataType type) {
  switch (type) {
    case DataType::kInt64:
      return "INT";
    case DataType::kDouble:
      return "FLOAT";
    case DataType::kBool:
      return "BOOLEAN";
    case DataType::kString:
      return "TEXT";
  }
  return "TEXT";
}

// Renders a value as a literal ExecuteDdlScript can parse back.
std::string Literal(const Value& value) {
  if (value.is_null()) return "NULL";
  if (value.is_text()) {
    std::string out = "'";
    for (char c : value.as_text()) {
      if (c == '\'') out += '\'';
      out += c;
    }
    out += "'";
    return out;
  }
  if (value.is_real()) {
    char buffer[32];
    std::snprintf(buffer, sizeof(buffer), "%.17g", value.as_real());
    std::string out = buffer;
    // Bare integers would parse as INT literals; that is fine for FLOAT
    // columns (Value::Parse accepts them), so no decoration needed.
    return out;
  }
  if (value.is_bool()) return value.as_bool() ? "TRUE" : "FALSE";
  return value.ToString();
}

}  // namespace

std::string WriteCreateTable(const RelationSchema& schema) {
  std::string out = "CREATE TABLE " + schema.name() + " (\n";
  const auto& uniques = schema.unique_constraints();
  for (size_t i = 0; i < schema.attributes().size(); ++i) {
    const Attribute& attribute = schema.attributes()[i];
    out += "  " + attribute.name + " " + TypeKeyword(attribute.type);
    if (attribute.not_null) out += " NOT NULL";
    if (i + 1 < schema.attributes().size() || !uniques.empty()) out += ",";
    out += "\n";
  }
  for (size_t i = 0; i < uniques.size(); ++i) {
    out += i == 0 ? "  PRIMARY KEY (" : "  UNIQUE (";
    const auto& names = uniques[i].names();
    for (size_t j = 0; j < names.size(); ++j) {
      if (j > 0) out += ", ";
      out += names[j];
    }
    out += ")";
    if (i + 1 < uniques.size()) out += ",";
    out += "\n";
  }
  out += ");\n";
  return out;
}

std::string WriteInserts(const Table& table, size_t batch_size) {
  if (table.num_rows() == 0) return "";
  if (batch_size == 0) batch_size = 1;
  std::string out;
  // Stream rows in order (works for both resident and paged
  // extensions), opening a new INSERT batch every batch_size rows.
  size_t index = 0;
  (void)table.ForEachRow([&](const ValueVector& row) {
    const size_t offset = index % batch_size;
    if (offset == 0) {
      if (index > 0) out += ";\n";
      out += "INSERT INTO " + table.schema().name() + " VALUES\n  (";
    } else {
      out += ",\n  (";
    }
    for (size_t c = 0; c < row.size(); ++c) {
      if (c > 0) out += ", ";
      out += Literal(row[c]);
    }
    out += ")";
    ++index;
  });
  out += ";\n";
  return out;
}

std::string WriteDdl(const Database& database,
                     const DdlWriterOptions& options) {
  std::string out;
  for (const std::string& relation : database.RelationNames()) {
    const Table& table = **database.GetTable(relation);
    out += WriteCreateTable(table.schema());
  }
  if (options.include_inserts) {
    for (const std::string& relation : database.RelationNames()) {
      const Table& table = **database.GetTable(relation);
      out += WriteInserts(table, options.insert_batch_size);
    }
  }
  return out;
}

}  // namespace dbre::sql
