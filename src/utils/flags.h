// Minimal command-line flag parsing for the example tools.
// Accepts --name=value and --name value; bare --name is a boolean true.
// Everything else is collected as positional arguments.
//
// Binaries that want span tracing follow a shared convention: pass the
// parsed flags to obs::ApplyTraceFlag(), which wires `--trace[=FILE]` into
// the obs::Tracer (see obs/trace.h).
#ifndef FOCUS_UTILS_FLAGS_H_
#define FOCUS_UTILS_FLAGS_H_

#include <map>
#include <string>
#include <vector>

namespace focus {

class FlagParser {
 public:
  FlagParser(int argc, const char* const* argv);

  bool Has(const std::string& name) const;
  std::string GetString(const std::string& name,
                        const std::string& fallback) const;
  long GetInt(const std::string& name, long fallback) const;
  double GetDouble(const std::string& name, double fallback) const;
  bool GetBool(const std::string& name, bool fallback) const;

  // Non-flag arguments in order (e.g. the subcommand).
  const std::vector<std::string>& positional() const { return positional_; }

 private:
  std::map<std::string, std::string> flags_;
  std::vector<std::string> positional_;
};

}  // namespace focus

#endif  // FOCUS_UTILS_FLAGS_H_
