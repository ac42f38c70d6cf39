#include "utils/table.h"

#include <algorithm>
#include <iomanip>
#include <sstream>

namespace focus {

Table::Table(std::vector<std::string> header) : header_(std::move(header)) {}

void Table::AddRow(std::vector<std::string> row) {
  row.resize(header_.size());
  rows_.push_back(std::move(row));
}

std::string Table::Num(double v, int precision) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(precision) << v;
  return os.str();
}

std::string Table::ToAscii() const {
  std::vector<size_t> width(header_.size());
  for (size_t c = 0; c < header_.size(); ++c) width[c] = header_[c].size();
  for (const auto& row : rows_) {
    for (size_t c = 0; c < row.size(); ++c) {
      width[c] = std::max(width[c], row[c].size());
    }
  }

  auto rule = [&] {
    std::string s = "+";
    for (size_t w : width) s += std::string(w + 2, '-') + "+";
    return s + "\n";
  };
  auto line = [&](const std::vector<std::string>& cells) {
    std::string s = "|";
    for (size_t c = 0; c < width.size(); ++c) {
      const std::string& cell = c < cells.size() ? cells[c] : std::string();
      s += " " + cell + std::string(width[c] - cell.size(), ' ') + " |";
    }
    return s + "\n";
  };

  std::string out = rule() + line(header_) + rule();
  for (const auto& row : rows_) out += line(row);
  out += rule();
  return out;
}

}  // namespace focus
