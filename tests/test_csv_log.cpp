#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "util/csv.hpp"
#include "util/log.hpp"

namespace tmprof::util {
namespace {

/// A file private to the running test: ctest runs each test in its own
/// process, concurrently, so a shared path would race.
std::string test_path() {
  return ::testing::TempDir() + "tmprof_csv_" +
         ::testing::UnitTest::GetInstance()->current_test_info()->name() +
         ".csv";
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

TEST(Csv, WritesRows) {
  const std::string path = test_path();
  {
    CsvWriter csv(path);
    csv.write_row({"a", "b", "c"});
    csv.write_row({"1", "2", "3"});
    EXPECT_EQ(csv.rows_written(), 2U);
  }
  EXPECT_EQ(slurp(path), "a,b,c\n1,2,3\n");
}

TEST(Csv, EscapesSpecialCharacters) {
  const std::string path = test_path();
  {
    CsvWriter csv(path);
    csv.write_row({"plain", "with,comma", "with\"quote", "with\nnewline"});
  }
  EXPECT_EQ(slurp(path),
            "plain,\"with,comma\",\"with\"\"quote\",\"with\nnewline\"\n");
}

TEST(Csv, ThrowsOnBadPath) {
  EXPECT_THROW(CsvWriter("/nonexistent/dir/x.csv"), std::runtime_error);
}

TEST(Log, ThresholdFilters) {
  const LogLevel old_level = log_level();
  set_log_level(LogLevel::Error);
  // Below-threshold lines must not be formatted (cheap no-op); we can only
  // observe the level state here, but the guard is the contract.
  EXPECT_EQ(log_level(), LogLevel::Error);
  TMPROF_LOG_DEBUG << "suppressed " << 42;
  TMPROF_LOG_INFO << "suppressed";
  set_log_level(LogLevel::Debug);
  EXPECT_EQ(log_level(), LogLevel::Debug);
  TMPROF_LOG_DEBUG << "emitted to stderr";
  set_log_level(old_level);
}

TEST(Log, LevelsAreOrdered) {
  EXPECT_LT(static_cast<int>(LogLevel::Debug),
            static_cast<int>(LogLevel::Info));
  EXPECT_LT(static_cast<int>(LogLevel::Info),
            static_cast<int>(LogLevel::Warn));
  EXPECT_LT(static_cast<int>(LogLevel::Warn),
            static_cast<int>(LogLevel::Error));
}

}  // namespace
}  // namespace tmprof::util
