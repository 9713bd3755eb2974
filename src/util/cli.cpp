#include "util/cli.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace tmprof::util {

namespace {

/// The key of a `--key[=value]` argument; empty for anything else.
std::string key_of(const std::string& arg) {
  if (arg.rfind("--", 0) != 0) return "";
  return arg.substr(2, arg.find('=') - 2);
}

}  // namespace

ArgParser::ArgParser(int argc, const char* const* argv)
    : args_(argv + std::min(argc, 1), argv + argc) {
  for (const std::string& arg : args_) {
    const std::string key = key_of(arg);
    if (key.empty()) continue;
    const auto eq = arg.find('=');
    options_[key].text = eq == std::string::npos ? "true" : arg.substr(eq + 1);
  }
}

const std::string* ArgParser::find(const std::string& key) const {
  const auto it = options_.find(key);
  if (it == options_.end()) return nullptr;
  it->second.read = true;
  return &it->second.text;
}

void ArgParser::reject_unread() const {
  for (const std::string& arg : args_) {
    const std::string key = key_of(arg);
    if (key.empty()) {
      throw std::invalid_argument("unexpected argument '" + arg +
                                  "' (flags are --key or --key=value)");
    }
    if (!options_.at(key).read) {
      throw std::invalid_argument("--" + key + ": unknown flag");
    }
  }
}

bool ArgParser::has(const std::string& key) const {
  return find(key) != nullptr;
}

std::string ArgParser::get(const std::string& key,
                           const std::string& fallback) const {
  const std::string* v = find(key);
  return v == nullptr ? fallback : *v;
}

std::uint64_t ArgParser::get_u64(const std::string& key,
                                 std::uint64_t fallback) const {
  const std::string* found = find(key);
  if (found == nullptr) return fallback;
  const std::string& v = *found;
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
  const std::string* found = find(key);
  if (found == nullptr) return fallback;
  const std::string& v = *found;
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
  const std::string* found = find(key);
  if (found == nullptr) return fallback;
  const std::string& v = *found;
  if (v == "true" || v == "1" || v == "yes" || v == "on") return true;
  if (v == "false" || v == "0" || v == "no" || v == "off") return false;
  throw std::invalid_argument("ArgParser: bad boolean for --" + key + ": " + v);
}

}  // namespace tmprof::util
