#ifndef AQO_UTIL_TABLE_H_
#define AQO_UTIL_TABLE_H_

// TextTable: aligned ASCII table output for the experiment harness. Every
// bench binary prints its results through this so EXPERIMENTS.md rows can be
// pasted directly from bench output.

#include <iosfwd>
#include <string>
#include <vector>

namespace aqo {

class TextTable {
 public:
  void SetTitle(std::string title) { title_ = std::move(title); }
  void SetHeader(std::vector<std::string> header) { header_ = std::move(header); }
  void AddRow(std::vector<std::string> row);

  void Print(std::ostream& os) const;

 private:
  std::string title_;
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

// Formats `v` with `digits` significant digits (general format).
std::string FormatDouble(double v, int digits = 4);

}  // namespace aqo

#endif  // AQO_UTIL_TABLE_H_
