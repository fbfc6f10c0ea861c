#include "util/flags.h"

#include "util/string_util.h"

namespace wsd {

FlagParser::FlagParser(int argc, char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    if (!StartsWith(arg, "--")) {
      positional_.push_back(std::string(arg));
      continue;
    }
    arg.remove_prefix(2);
    const size_t eq = arg.find('=');
    if (eq != std::string_view::npos) {
      flags_[std::string(arg.substr(0, eq))] =
          std::string(arg.substr(eq + 1));
    } else if (i + 1 < argc && argv[i + 1][0] != '-') {
      flags_[std::string(arg)] = argv[++i];
    } else {
      flags_[std::string(arg)] = "true";
    }
  }
}

std::optional<std::string> FlagParser::Get(const std::string& name) const {
  auto it = flags_.find(name);
  if (it == flags_.end()) return std::nullopt;
  return it->second;
}

std::string FlagParser::GetOr(const std::string& name,
                              const std::string& fallback) const {
  return Get(name).value_or(fallback);
}

std::optional<uint64_t> FlagParser::GetUint(const std::string& name) const {
  auto raw = Get(name);
  if (!raw.has_value()) return std::nullopt;
  return ParseUint64(*raw);
}

std::optional<double> FlagParser::GetDouble(const std::string& name) const {
  auto raw = Get(name);
  if (!raw.has_value()) return std::nullopt;
  return ParseDouble(*raw);
}

StatusOr<uint64_t> FlagParser::GetUintInRange(const std::string& name,
                                              uint64_t fallback, uint64_t lo,
                                              uint64_t hi) const {
  const auto raw = Get(name);
  if (!raw.has_value()) return fallback;
  const auto value = ParseUint64(*raw);
  if (!value.has_value() || *value < lo || *value > hi) {
    return Status::InvalidArgument(StrFormat(
        "invalid --%s value '%s' (want an integer from %llu to %llu)",
        name.c_str(), raw->c_str(), static_cast<unsigned long long>(lo),
        static_cast<unsigned long long>(hi)));
  }
  return *value;
}

bool FlagParser::Has(const std::string& name) const {
  return flags_.contains(name);
}

}  // namespace wsd
