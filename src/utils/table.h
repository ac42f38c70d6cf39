// ASCII table rendering for benchmark harness output.
//
// Every bench binary prints its paper table / figure series through this
// class so the output format is uniform and easy to diff against
// EXPERIMENTS.md.
#ifndef FOCUS_UTILS_TABLE_H_
#define FOCUS_UTILS_TABLE_H_

#include <string>
#include <vector>

namespace focus {

class Table {
 public:
  explicit Table(std::vector<std::string> header);

  // Appends a row; the row is padded or truncated to the header width.
  void AddRow(std::vector<std::string> row);

  // Renders with aligned columns and +---+ rules.
  std::string ToAscii() const;

  size_t num_rows() const { return rows_.size(); }

  // Formats a double with the given precision, trimming trailing zeros is
  // intentionally NOT done so columns stay aligned.
  static std::string Num(double v, int precision = 4);

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace focus

#endif  // FOCUS_UTILS_TABLE_H_
