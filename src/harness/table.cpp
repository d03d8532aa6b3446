#include "src/harness/table.h"

#include <algorithm>
#include <cstdio>

namespace essat::harness {

Table::Table(std::vector<std::string> headers) : headers_{std::move(headers)} {}

void Table::add_row(std::vector<std::string> cells) {
  rows_.push_back(std::move(cells));
}

void Table::print(std::ostream& os) const {
  std::vector<std::size_t> widths(headers_.size(), 0);
  for (std::size_t c = 0; c < headers_.size(); ++c) widths[c] = headers_[c].size();
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size() && c < widths.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  auto print_row = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < widths.size(); ++c) {
      const std::string& cell = c < row.size() ? row[c] : std::string{};
      os << (c == 0 ? "" : "  ") << cell
         << std::string(widths[c] - std::min(widths[c], cell.size()), ' ');
    }
    os << '\n';
  };
  print_row(headers_);
  std::size_t total = 0;
  for (std::size_t c = 0; c < widths.size(); ++c) total += widths[c] + (c ? 2 : 0);
  os << std::string(total, '-') << '\n';
  for (const auto& row : rows_) print_row(row);
}

std::string fmt(double value, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", precision, value);
  return buf;
}

std::string fmt_pct(double fraction, int precision) {
  return fmt(fraction * 100.0, precision);
}

}  // namespace essat::harness
