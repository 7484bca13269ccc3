#include "util/table.h"

#include <algorithm>
#include <cstdio>
#include <ostream>

#include "util/check.h"

namespace aqo {

void TextTable::AddRow(std::vector<std::string> row) {
  if (!header_.empty()) {
    AQO_CHECK_EQ(row.size(), header_.size());
  }
  rows_.push_back(std::move(row));
}

void TextTable::Print(std::ostream& os) const {
  std::vector<size_t> widths;
  auto widen = [&widths](const std::vector<std::string>& row) {
    if (widths.size() < row.size()) widths.resize(row.size(), 0);
    for (size_t i = 0; i < row.size(); ++i)
      widths[i] = std::max(widths[i], row[i].size());
  };
  if (!header_.empty()) widen(header_);
  for (const auto& row : rows_) widen(row);

  auto print_row = [&](const std::vector<std::string>& row) {
    os << "|";
    for (size_t i = 0; i < widths.size(); ++i) {
      const std::string& cell = i < row.size() ? row[i] : std::string();
      os << " " << cell << std::string(widths[i] - cell.size(), ' ') << " |";
    }
    os << "\n";
  };
  auto print_rule = [&]() {
    os << "+";
    for (size_t w : widths) os << std::string(w + 2, '-') << "+";
    os << "\n";
  };

  if (!title_.empty()) os << "== " << title_ << " ==\n";
  print_rule();
  if (!header_.empty()) {
    print_row(header_);
    print_rule();
  }
  for (const auto& row : rows_) print_row(row);
  print_rule();
}

std::string FormatDouble(double v, int digits) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*g", digits, v);
  return buf;
}

}  // namespace aqo
