#pragma once
/// \file cli.hpp
/// Tiny `--key=value` / `--flag` argument parser for benches and examples.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace tmprof::util {

/// Parses `--key=value` and bare `--flag` arguments. Every getter and has()
/// records the key it reads, so the reads are the program's flag list:
/// after reading its flags a program calls reject_unread(), which rejects
/// a key nothing read (a typo such as --thread=8) and any argument that is
/// not a flag. Recording makes the getters unsafe to call concurrently.
class ArgParser {
 public:
  ArgParser(int argc, const char* const* argv);

  [[nodiscard]] bool has(const std::string& key) const;
  [[nodiscard]] std::string get(const std::string& key,
                                const std::string& fallback) const;
  /// Throws std::invalid_argument naming the flag on malformed or negative
  /// input (std::stoull would silently wrap "-3" to a huge value).
  [[nodiscard]] std::uint64_t get_u64(const std::string& key,
                                      std::uint64_t fallback) const;
  /// get_u64 restricted to u32: values above UINT32_MAX throw
  /// std::invalid_argument naming the flag instead of wrapping.
  [[nodiscard]] std::uint32_t get_u32(const std::string& key,
                                      std::uint32_t fallback) const;
  /// Throws std::invalid_argument naming the flag on malformed or
  /// non-finite input (nan, inf).
  [[nodiscard]] double get_double(const std::string& key,
                                  double fallback) const;
  /// get_double restricted to [lo, hi]; out-of-range values (e.g. a
  /// negative --fault-rate) throw std::invalid_argument naming the flag.
  [[nodiscard]] double get_checked_double(const std::string& key,
                                          double fallback, double lo,
                                          double hi) const;
  /// Probability flag: a double in [0, 1].
  [[nodiscard]] double get_rate(const std::string& key, double fallback) const {
    return get_checked_double(key, fallback, 0.0, 1.0);
  }
  [[nodiscard]] bool get_bool(const std::string& key, bool fallback) const;

  /// Throws std::invalid_argument naming the first argument that is not
  /// `--key[=value]` or whose key no getter or has() has read.
  void reject_unread() const;

 private:
  struct Value {
    std::string text;
    mutable bool read = false;
  };
  /// The value given for `key` (marked read), or null when absent.
  [[nodiscard]] const std::string* find(const std::string& key) const;

  std::map<std::string, Value> options_;
  std::vector<std::string> args_;  ///< argv[1..], in order
};

}  // namespace tmprof::util
