#pragma once
/// \file log.hpp
/// Leveled logging to stderr. Defaults to Warn so benches stay clean;
/// examples raise it to Info for narration.

#include <sstream>
#include <string_view>

namespace tmprof::util {

enum class LogLevel : int { Debug = 0, Info = 1, Warn = 2, Error = 3 };

/// Global log threshold (process-wide; the simulator is single-threaded per
/// experiment, so plain state is fine).
LogLevel log_level() noexcept;
void set_log_level(LogLevel level) noexcept;

namespace detail {
void log_write(LogLevel level, std::string_view msg);
}

/// Stream-style one-shot logger: LogLine(LogLevel::Info) << "x=" << x;
class LogLine {
 public:
  explicit LogLine(LogLevel level) : level_(level) {}
  LogLine(const LogLine&) = delete;
  LogLine& operator=(const LogLine&) = delete;
  ~LogLine();

  template <typename T>
  LogLine& operator<<(const T& value) {
    if (level_ >= log_level()) buffer_ << value;
    return *this;
  }

 private:
  LogLevel level_;
  std::ostringstream buffer_;
};

}  // namespace tmprof::util

#define TMPROF_LOG_DEBUG ::tmprof::util::LogLine(::tmprof::util::LogLevel::Debug)
#define TMPROF_LOG_INFO ::tmprof::util::LogLine(::tmprof::util::LogLevel::Info)
#define TMPROF_LOG_WARN ::tmprof::util::LogLine(::tmprof::util::LogLevel::Warn)
