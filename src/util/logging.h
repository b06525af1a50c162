// cmtos/util/logging.h
//
// Minimal leveled logger.  Protocol modules log through this so tests and
// benches can silence or capture output.  Thread-safe: the level is atomic,
// the sink is swapped under a mutex and invoked via a snapshot (so it can
// be replaced while another thread logs), and each line is written to
// stderr with a single call so concurrent lines never interleave.

#pragma once

#include <cstdarg>
#include <functional>
#include <string>

namespace cmtos {

enum class LogLevel { kTrace = 0, kDebug, kInfo, kWarn, kError, kOff };

/// Sets the global threshold; messages below it are dropped.
void set_log_level(LogLevel level);
LogLevel log_level();

/// Optional observer for formatted log lines.  When set, every emitted line
/// (those at or above the threshold) is also handed to the sink as
/// (level, tag, formatted message).  The obs tracer installs one to route
/// log lines into the event trace; stderr output is unaffected.  Pass
/// nullptr to uninstall.
using LogSink = std::function<void(LogLevel, const char* tag, const char* msg)>;
void set_log_sink(LogSink sink);

/// Parks this thread's stderr lines in `buf` instead of writing them
/// (nullptr writes directly again); the sink still sees every line at once.
/// The sharded executor points each shard of a parallel round at its own
/// buffer and writes the buffers out in shard order at the round barrier,
/// so log output is byte-identical at every worker count.
void set_thread_log_buffer(std::string* buf);
/// Writes the lines parked in `buf` to stderr with one call and clears it.
void flush_log_buffer(std::string& buf);

/// printf-style log statement.  `tag` names the subsystem ("transport",
/// "llo", ...).
void log(LogLevel level, const char* tag, const char* fmt, ...)
#if defined(__GNUC__)
    __attribute__((format(printf, 3, 4)))
#endif
    ;

#define CMTOS_LOG(level, tag, ...)                                  \
  do {                                                              \
    if (static_cast<int>(level) >= static_cast<int>(::cmtos::log_level())) \
      ::cmtos::log(level, tag, __VA_ARGS__);                        \
  } while (0)

#define CMTOS_TRACE(tag, ...) CMTOS_LOG(::cmtos::LogLevel::kTrace, tag, __VA_ARGS__)
#define CMTOS_DEBUG(tag, ...) CMTOS_LOG(::cmtos::LogLevel::kDebug, tag, __VA_ARGS__)
#define CMTOS_INFO(tag, ...) CMTOS_LOG(::cmtos::LogLevel::kInfo, tag, __VA_ARGS__)
#define CMTOS_WARN(tag, ...) CMTOS_LOG(::cmtos::LogLevel::kWarn, tag, __VA_ARGS__)
#define CMTOS_ERROR(tag, ...) CMTOS_LOG(::cmtos::LogLevel::kError, tag, __VA_ARGS__)

}  // namespace cmtos
