#include "util/csv.h"

#include <fstream>
#include <sstream>

#include "util/check.h"
#include "util/strings.h"

namespace dash {

Status WriteTextFile(const std::string& path, std::string_view text) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return IoError("cannot open '" + path + "' for writing");
  out.write(text.data(), static_cast<std::streamsize>(text.size()));
  out.close();
  if (!out) return IoError("write to '" + path + "' failed");
  return Status::Ok();
}

void CsvTable::AddRow(std::vector<std::string> row) {
  DASH_CHECK_EQ(row.size(), header_.size());
  rows_.push_back(std::move(row));
}

Result<size_t> CsvTable::ColumnIndex(const std::string& name) const {
  for (size_t i = 0; i < header_.size(); ++i) {
    if (header_[i] == name) return i;
  }
  return NotFoundError("no column named '" + name + "'");
}

Result<double> CsvTable::DoubleAt(size_t row, size_t col) const {
  if (row >= rows_.size() || col >= header_.size()) {
    return OutOfRangeError("cell out of range");
  }
  return ParseDouble(rows_[row][col]);
}

std::string CsvTable::ToString(char sep) const {
  std::ostringstream os;
  for (size_t i = 0; i < header_.size(); ++i) {
    if (i > 0) os << sep;
    os << header_[i];
  }
  os << '\n';
  for (const auto& row : rows_) {
    for (size_t i = 0; i < row.size(); ++i) {
      if (i > 0) os << sep;
      os << row[i];
    }
    os << '\n';
  }
  return os.str();
}

Status CsvTable::WriteFile(const std::string& path, char sep) const {
  return WriteTextFile(path, ToString(sep));
}

Result<CsvTable> CsvTable::Parse(const std::string& text, char sep) {
  std::istringstream in(text);
  std::string line;
  if (!std::getline(in, line)) {
    return InvalidArgumentError("empty table: missing header");
  }
  CsvTable table(StrSplit(std::string(StripWhitespace(line)), sep));
  size_t line_no = 1;
  while (std::getline(in, line)) {
    ++line_no;
    const std::string_view stripped = StripWhitespace(line);
    if (stripped.empty()) continue;
    auto row = StrSplit(std::string(stripped), sep);
    if (row.size() != table.header_.size()) {
      return InvalidArgumentError("row " + std::to_string(line_no) + " has " +
                                  std::to_string(row.size()) +
                                  " fields; header has " +
                                  std::to_string(table.header_.size()));
    }
    table.rows_.push_back(std::move(row));
  }
  return table;
}

Result<CsvTable> CsvTable::ReadFile(const std::string& path, char sep) {
  std::ifstream in(path);
  if (!in) return IoError("cannot open '" + path + "' for reading");
  std::ostringstream buf;
  buf << in.rdbuf();
  return Parse(buf.str(), sep);
}

}  // namespace dash
