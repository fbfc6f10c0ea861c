#ifndef WSD_UTIL_FLAGS_H_
#define WSD_UTIL_FLAGS_H_

#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "util/statusor.h"

namespace wsd {

/// Minimal command-line parser used by the tools: accepts
/// `--name=value`, `--name value` and bare `--name` (value "true");
/// everything else is positional. No registration step — callers query
/// by name, which fits single-binary drivers.
class FlagParser {
 public:
  FlagParser(int argc, char* const* argv);

  /// Value of --name, or nullopt when absent.
  std::optional<std::string> Get(const std::string& name) const;

  /// Value of --name or `fallback`.
  std::string GetOr(const std::string& name,
                    const std::string& fallback) const;

  /// Parsed numeric flags; nullopt when absent or unparseable.
  std::optional<uint64_t> GetUint(const std::string& name) const;
  std::optional<double> GetDouble(const std::string& name) const;

  /// Value of --name as a decimal integer in [lo, hi], or `fallback` when
  /// the flag is absent. A malformed or out-of-range value is
  /// InvalidArgument "invalid --name value 'v' (want an integer from lo
  /// to hi)"; the tools exit 2 on it.
  [[nodiscard]] StatusOr<uint64_t> GetUintInRange(const std::string& name,
                                                  uint64_t fallback,
                                                  uint64_t lo,
                                                  uint64_t hi) const;

  bool Has(const std::string& name) const;

  const std::vector<std::string>& positional() const { return positional_; }

 private:
  std::map<std::string, std::string> flags_;
  std::vector<std::string> positional_;
};

}  // namespace wsd

#endif  // WSD_UTIL_FLAGS_H_
