#include "common/logging.hpp"

#include <chrono>
#include <cstdio>
#include <ctime>
#include <iostream>

namespace myproxy::log {

namespace {

std::string timestamp_now() {
  const auto now = std::chrono::system_clock::now();
  const std::time_t secs = std::chrono::system_clock::to_time_t(now);
  const auto millis = std::chrono::duration_cast<std::chrono::milliseconds>(
                          now.time_since_epoch())
                          .count() %
                      1000;
  std::tm tm{};
  gmtime_r(&secs, &tm);
  char buf[40];
  const std::size_t n = std::strftime(buf, sizeof(buf), "%FT%T", &tm);
  char out[48];
  std::snprintf(out, sizeof(out), "%.*s.%03lld", static_cast<int>(n), buf,
                static_cast<long long>(millis));
  return out;
}

}  // namespace

std::string_view to_string(Level level) noexcept {
  switch (level) {
    case Level::kDebug:
      return "DEBUG";
    case Level::kInfo:
      return "INFO";
    case Level::kWarn:
      return "WARN";
    case Level::kError:
      return "ERROR";
    case Level::kOff:
      return "OFF";
  }
  return "?";
}

Logger& Logger::instance() {
  static Logger logger;
  return logger;
}

void Logger::set_level(Level level) noexcept {
  level_.store(level, std::memory_order_relaxed);
}

Level Logger::level() const noexcept {
  return level_.load(std::memory_order_relaxed);
}

void Logger::set_sink(std::ostream* sink) noexcept {
  const std::scoped_lock lock(mutex_);
  sink_ = sink;
}

void Logger::write(Level level, std::string_view component,
                   std::string_view text) {
  const std::string stamp = timestamp_now();
  const std::scoped_lock lock(mutex_);
  if (level >= Level::kWarn) ++warnings_;
  std::ostream& out = sink_ != nullptr ? *sink_ : std::clog;
  out << stamp << ' ' << to_string(level) << " [" << component << "] " << text
      << '\n';
}

std::uint64_t Logger::warning_count() const noexcept {
  const std::scoped_lock lock(mutex_);
  return warnings_;
}

}  // namespace myproxy::log
