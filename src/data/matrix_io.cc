#include "data/matrix_io.h"

#include <fstream>
#include <sstream>

#include "util/strings.h"

namespace dash {
namespace {

Result<std::string> ReadFileToString(const std::string& path) {
  std::ifstream in(path);
  if (!in) return IoError("cannot open '" + path + "' for reading");
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

}  // namespace

Result<Matrix> ReadMatrixCsv(const std::string& path) {
  DASH_ASSIGN_OR_RETURN(std::string text, ReadFileToString(path));
  std::istringstream in(text);
  std::string line;
  std::vector<Vector> rows;
  int64_t cols = -1;
  int64_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const std::string_view stripped = StripWhitespace(line);
    if (stripped.empty()) continue;
    const auto fields = StrSplit(std::string(stripped), ',');
    if (cols < 0) {
      cols = static_cast<int64_t>(fields.size());
    } else if (static_cast<int64_t>(fields.size()) != cols) {
      return InvalidArgumentError(path + ":" + std::to_string(line_no) +
                                  ": expected " + std::to_string(cols) +
                                  " fields, got " +
                                  std::to_string(fields.size()));
    }
    Vector row(fields.size());
    for (size_t i = 0; i < fields.size(); ++i) {
      auto value = ParseDouble(fields[i]);
      if (!value.ok()) {
        return InvalidArgumentError(path + ":" + std::to_string(line_no) +
                                    ": " + value.status().message());
      }
      row[i] = value.value();
    }
    rows.push_back(std::move(row));
  }
  if (rows.empty()) return InvalidArgumentError(path + ": empty matrix file");
  Matrix m(static_cast<int64_t>(rows.size()), cols);
  for (size_t i = 0; i < rows.size(); ++i) {
    for (int64_t j = 0; j < cols; ++j) {
      m(static_cast<int64_t>(i), j) = rows[i][static_cast<size_t>(j)];
    }
  }
  return m;
}

Result<Vector> ReadVectorCsv(const std::string& path) {
  DASH_ASSIGN_OR_RETURN(Matrix m, ReadMatrixCsv(path));
  if (m.cols() != 1) {
    return InvalidArgumentError(path + ": expected a single column, got " +
                                std::to_string(m.cols()));
  }
  return m.Col(0);
}

Status WriteMatrixCsv(const Matrix& m, const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return IoError("cannot open '" + path + "' for writing");
  for (int64_t i = 0; i < m.rows(); ++i) {
    for (int64_t j = 0; j < m.cols(); ++j) {
      if (j > 0) out << ',';
      out << DoubleToString(m(i, j));
    }
    out << '\n';
  }
  out.close();  // flushes; an error here would otherwise be dropped
  if (!out) return IoError("write to '" + path + "' failed");
  return Status::Ok();
}

Status WriteVectorCsv(const Vector& v, const std::string& path) {
  return WriteMatrixCsv(Matrix::ColumnVector(v), path);
}

Result<PartyData> ReadPartyCsv(const std::string& x_path,
                               const std::string& y_path,
                               const std::string& c_path) {
  PartyData p;
  DASH_ASSIGN_OR_RETURN(p.x, ReadMatrixCsv(x_path));
  DASH_ASSIGN_OR_RETURN(p.y, ReadVectorCsv(y_path));
  if (!c_path.empty()) {
    DASH_ASSIGN_OR_RETURN(p.c, ReadMatrixCsv(c_path));
  } else {
    p.c = Matrix(p.x.rows(), 0);
  }
  const int64_t n = p.x.rows();
  if (static_cast<int64_t>(p.y.size()) != n || p.c.rows() != n) {
    return InvalidArgumentError("party files disagree on sample count (x: " +
                                std::to_string(n) + ", y: " +
                                std::to_string(p.y.size()) + ", c: " +
                                std::to_string(p.c.rows()) + ")");
  }
  return p;
}

}  // namespace dash
