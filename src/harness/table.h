// ASCII table / series printing for the bench binaries that regenerate the
// paper's figures.
#pragma once

#include <ostream>
#include <string>
#include <vector>

namespace essat::harness {

class Table {
 public:
  explicit Table(std::vector<std::string> headers);
  void add_row(std::vector<std::string> cells);
  void print(std::ostream& os) const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

// Formats a double with exactly `precision` decimals; trailing zeros are
// kept (fmt(10.0, 1) is "10.0").
std::string fmt(double value, int precision = 3);
// Percentage with one decimal, e.g. 0.1234 -> "12.3".
std::string fmt_pct(double fraction, int precision = 1);

}  // namespace essat::harness
