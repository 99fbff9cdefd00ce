#include "common/logging.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <thread>
#include <vector>

namespace myproxy::log {
namespace {

/// RAII capture of logger output; restores defaults on scope exit.
class CapturedLog {
 public:
  CapturedLog() {
    Logger::instance().set_sink(&stream_);
    previous_level_ = Logger::instance().level();
  }
  ~CapturedLog() {
    Logger::instance().set_sink(nullptr);
    Logger::instance().set_level(previous_level_);
  }
  [[nodiscard]] std::string text() const { return stream_.str(); }

 private:
  std::ostringstream stream_;
  Level previous_level_;
};

TEST(Logging, WritesFormattedMessage) {
  CapturedLog capture;
  Logger::instance().set_level(Level::kInfo);
  info("test", "hello {} number {}", "world", 42);
  const std::string out = capture.text();
  EXPECT_NE(out.find("INFO"), std::string::npos);
  EXPECT_NE(out.find("[test]"), std::string::npos);
  EXPECT_NE(out.find("hello world number 42"), std::string::npos);
}

TEST(Logging, LevelFiltering) {
  CapturedLog capture;
  Logger::instance().set_level(Level::kWarn);
  debug("test", "invisible debug");
  info("test", "invisible info");
  warn("test", "visible warn");
  const std::string out = capture.text();
  EXPECT_EQ(out.find("invisible"), std::string::npos);
  EXPECT_NE(out.find("visible warn"), std::string::npos);
}

TEST(Logging, OffSilencesEverything) {
  CapturedLog capture;
  Logger::instance().set_level(Level::kOff);
  error("test", "even errors");
  EXPECT_TRUE(capture.text().empty());
}

TEST(Logging, WarningCounterAdvances) {
  CapturedLog capture;
  Logger::instance().set_level(Level::kWarn);
  const auto before = Logger::instance().warning_count();
  warn("test", "one");
  error("test", "two");
  EXPECT_EQ(Logger::instance().warning_count(), before + 2);
}

TEST(Logging, LevelChangesRaceWithLogging) {
  // The level is read without the logger's lock; flipping it while other
  // threads log must neither race (TSan) nor tear a line, and every line
  // that made it out was counted.
  CapturedLog capture;
  const auto before = Logger::instance().warning_count();
  std::vector<std::thread> threads;
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([] {
      for (int i = 0; i < 500; ++i) {
        Logger::instance().set_level(i % 2 == 0 ? Level::kDebug : Level::kOff);
      }
    });
    threads.emplace_back([] {
      for (int i = 0; i < 500; ++i) warn("race", "line {}", i);
    });
  }
  for (auto& thread : threads) thread.join();
  std::istringstream lines(capture.text());
  std::uint64_t written = 0;
  for (std::string line; std::getline(lines, line); ++written) {
    EXPECT_NE(line.find(" WARN [race] line "), std::string::npos) << line;
  }
  EXPECT_EQ(Logger::instance().warning_count() - before, written);
}

TEST(Logging, FormatEdgeCases) {
  EXPECT_EQ(fmt::format("no placeholders"), "no placeholders");
  EXPECT_EQ(fmt::format("{} and {}", 1, 2), "1 and 2");
  EXPECT_EQ(fmt::format("escaped {{}} brace"), "escaped {} brace");
  EXPECT_EQ(fmt::format("extra {} {}", "one"), "extra one {}");  // missing arg
  EXPECT_EQ(fmt::format("surplus {}", 1, 2), "surplus 1");  // extra arg
  EXPECT_EQ(fmt::format("bool {}", true), "bool true");
  EXPECT_EQ(fmt::format("{}", std::string_view("sv")), "sv");
}

}  // namespace
}  // namespace myproxy::log
