#include "util/logging.h"

#include <atomic>
#include <cstdio>
#include <memory>

#include "util/sync.h"

namespace cmtos {
namespace {

// The threaded buffer benchmarks and the contract layer may log from a
// second thread, so the level is atomic and the sink is reference-counted
// behind a mutex: log() takes a shared_ptr snapshot and invokes it outside
// the lock, so set_log_sink(nullptr) from one thread cannot destroy a
// std::function another thread is executing.
std::atomic<LogLevel> g_level{LogLevel::kWarn};
Mutex g_sink_mu;
std::shared_ptr<const LogSink> g_sink CMTOS_GUARDED_BY(g_sink_mu);
thread_local std::string* t_buffer = nullptr;

const char* level_name(LogLevel l) {
  switch (l) {
    case LogLevel::kTrace: return "TRACE";
    case LogLevel::kDebug: return "DEBUG";
    case LogLevel::kInfo: return "INFO";
    case LogLevel::kWarn: return "WARN";
    case LogLevel::kError: return "ERROR";
    case LogLevel::kOff: return "OFF";
  }
  return "?";
}

}  // namespace

void set_log_level(LogLevel level) { g_level.store(level, std::memory_order_relaxed); }
LogLevel log_level() { return g_level.load(std::memory_order_relaxed); }

void set_log_sink(LogSink sink) {
  auto next = sink ? std::make_shared<const LogSink>(std::move(sink)) : nullptr;
  const MutexLock lock(g_sink_mu);
  g_sink = std::move(next);
}

void set_thread_log_buffer(std::string* buf) { t_buffer = buf; }

void flush_log_buffer(std::string& buf) {
  if (buf.empty()) return;
  std::fputs(buf.c_str(), stderr);
  buf.clear();
}

void log(LogLevel level, const char* tag, const char* fmt, ...) {
  if (static_cast<int>(level) < static_cast<int>(log_level())) return;
  // Format into one buffer and write the line with a single fputs so
  // concurrent loggers cannot interleave mid-line.
  char msg[512];
  va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(msg, sizeof msg, fmt, ap);
  va_end(ap);

  std::shared_ptr<const LogSink> sink;
  {
    const MutexLock lock(g_sink_mu);
    sink = g_sink;
  }
  if (sink && *sink) (*sink)(level, tag, msg);

  char line[600];
  std::snprintf(line, sizeof line, "[%s] %s: %s\n", level_name(level), tag, msg);
  if (t_buffer != nullptr) {
    *t_buffer += line;
  } else {
    std::fputs(line, stderr);
  }
}

}  // namespace cmtos
