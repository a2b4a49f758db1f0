// Minimal delimited-table I/O for writing scan results and bench series
// and for loading small fixtures. Handles plain (unquoted) fields, which
// is all this library emits.

#ifndef DASH_UTIL_CSV_H_
#define DASH_UTIL_CSV_H_

#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace dash {

// Writes `text` to `path`, replacing its contents. The file is closed
// before returning, so a failed final flush (a full disk) is an IoError
// too, not an error the stream's destructor drops.
Status WriteTextFile(const std::string& path, std::string_view text);

// An in-memory delimited table: a header row plus data rows of equal width.
class CsvTable {
 public:
  CsvTable() = default;
  explicit CsvTable(std::vector<std::string> header)
      : header_(std::move(header)) {}

  const std::vector<std::string>& header() const { return header_; }
  const std::vector<std::vector<std::string>>& rows() const { return rows_; }
  size_t num_rows() const { return rows_.size(); }
  size_t num_cols() const { return header_.size(); }

  // Appends a row; width must match the header (checked).
  void AddRow(std::vector<std::string> row);

  // Column index by header name.
  Result<size_t> ColumnIndex(const std::string& name) const;

  // Typed cell access.
  Result<double> DoubleAt(size_t row, size_t col) const;

  // Serializes to delimiter-separated text (header first).
  std::string ToString(char sep = ',') const;

  // Writes to a file, replacing its contents.
  Status WriteFile(const std::string& path, char sep = ',') const;

  // Parses text whose first line is a header.
  static Result<CsvTable> Parse(const std::string& text, char sep = ',');

  // Reads and parses a file.
  static Result<CsvTable> ReadFile(const std::string& path, char sep = ',');

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace dash

#endif  // DASH_UTIL_CSV_H_
