// Minimal thread-safe leveled logger. The MyProxy server logs every
// authentication and authorization decision (paper §5.1 relies on intrusion
// *detection* as part of the threat model, so an audit trail is load-bearing,
// not cosmetic).
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <ostream>
#include <string>
#include <string_view>

#include "common/format.hpp"

namespace myproxy::log {

enum class Level { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3, kOff = 4 };

std::string_view to_string(Level level) noexcept;

class Logger {
 public:
  static Logger& instance();

  /// Lock-free: level() runs on every log call, before any formatting.
  void set_level(Level level) noexcept;
  [[nodiscard]] Level level() const noexcept;

  /// Redirect output (default: std::clog). The stream must outlive the
  /// logger's use; passing nullptr restores the default sink.
  void set_sink(std::ostream* sink) noexcept;

  void write(Level level, std::string_view component, std::string_view text);

  /// Number of messages written at >= warn since process start; handy for
  /// tests asserting that an operation stayed quiet.
  [[nodiscard]] std::uint64_t warning_count() const noexcept;

 private:
  Logger() = default;

  std::atomic<Level> level_{Level::kInfo};
  mutable std::mutex mutex_;  ///< guards the sink and the warning counter
  std::ostream* sink_ = nullptr;
  std::uint64_t warnings_ = 0;
};

template <typename... Args>
void debug(std::string_view component, std::string_view format,
           const Args&... args) {
  auto& logger = Logger::instance();
  if (logger.level() <= Level::kDebug) {
    logger.write(Level::kDebug, component, fmt::format(format, args...));
  }
}

template <typename... Args>
void info(std::string_view component, std::string_view format,
          const Args&... args) {
  auto& logger = Logger::instance();
  if (logger.level() <= Level::kInfo) {
    logger.write(Level::kInfo, component, fmt::format(format, args...));
  }
}

template <typename... Args>
void warn(std::string_view component, std::string_view format,
          const Args&... args) {
  auto& logger = Logger::instance();
  if (logger.level() <= Level::kWarn) {
    logger.write(Level::kWarn, component, fmt::format(format, args...));
  }
}

template <typename... Args>
void error(std::string_view component, std::string_view format,
           const Args&... args) {
  auto& logger = Logger::instance();
  if (logger.level() <= Level::kError) {
    logger.write(Level::kError, component, fmt::format(format, args...));
  }
}

}  // namespace myproxy::log
