#include "util/cli.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>

namespace tmprof::util {

ArgParser::ArgParser(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) continue;
    const auto eq = arg.find('=');
    if (eq == std::string::npos) {
      options_[arg.substr(2)] = "true";
    } else {
      options_[arg.substr(2, eq - 2)] = arg.substr(eq + 1);
    }
  }
}

bool ArgParser::has(const std::string& key) const {
  return options_.count(key) != 0;
}

std::string ArgParser::get(const std::string& key,
                           const std::string& fallback) const {
  const auto it = options_.find(key);
  return it == options_.end() ? fallback : it->second;
}

std::uint64_t ArgParser::get_u64(const std::string& key,
                                 std::uint64_t fallback) const {
  const auto it = options_.find(key);
  if (it == options_.end()) return fallback;
  const std::string& v = it->second;
  // stoull accepts "-3" and wraps it silently; reject it explicitly.
  if (v.empty() || v[0] == '-') {
    throw std::invalid_argument("--" + key +
                                " expects an unsigned integer, got '" + v +
                                "'");
  }
  try {
    std::size_t pos = 0;
    const std::uint64_t parsed = std::stoull(v, &pos);
    if (pos != v.size()) throw std::invalid_argument(v);
    return parsed;
  } catch (const std::exception&) {
    throw std::invalid_argument("--" + key +
                                " expects an unsigned integer, got '" + v +
                                "'");
  }
}

std::uint32_t ArgParser::get_u32(const std::string& key,
                                 std::uint32_t fallback) const {
  const std::uint64_t value = get_u64(key, fallback);
  if (value > std::numeric_limits<std::uint32_t>::max()) {
    throw std::invalid_argument("--" + key + " must be <= 4294967295, got " +
                                std::to_string(value));
  }
  return static_cast<std::uint32_t>(value);
}

double ArgParser::get_double(const std::string& key, double fallback) const {
  const auto it = options_.find(key);
  if (it == options_.end()) return fallback;
  const std::string& v = it->second;
  double parsed = 0.0;
  try {
    std::size_t pos = 0;
    parsed = std::stod(v, &pos);
    if (pos != v.size()) throw std::invalid_argument(v);
  } catch (const std::exception&) {
    throw std::invalid_argument("--" + key + " expects a number, got '" + v +
                                "'");
  }
  // stod accepts "nan" and "inf"; NaN slips past every range comparison.
  if (!std::isfinite(parsed)) {
    throw std::invalid_argument("--" + key + " expects a finite number, got '" +
                                v + "'");
  }
  return parsed;
}

double ArgParser::get_checked_double(const std::string& key, double fallback,
                                     double lo, double hi) const {
  const double value = get_double(key, fallback);
  if (value < lo || value > hi) {
    throw std::invalid_argument("--" + key + " must be in [" +
                                std::to_string(lo) + ", " +
                                std::to_string(hi) + "], got " +
                                std::to_string(value));
  }
  return value;
}

bool ArgParser::get_bool(const std::string& key, bool fallback) const {
  const auto it = options_.find(key);
  if (it == options_.end()) return fallback;
  const std::string& v = it->second;
  if (v == "true" || v == "1" || v == "yes" || v == "on") return true;
  if (v == "false" || v == "0" || v == "no" || v == "off") return false;
  throw std::invalid_argument("ArgParser: bad boolean for --" + key + ": " + v);
}

}  // namespace tmprof::util
