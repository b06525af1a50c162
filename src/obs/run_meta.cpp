#include "obs/run_meta.h"

#include <cstdio>
#include <fstream>
#include <string>
#include <thread>

namespace cmtos::obs {

namespace {

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("model name", 0) != 0) continue;
    const auto colon = line.find(':');
    if (colon != std::string::npos && colon + 2 <= line.size()) return line.substr(colon + 2);
  }
  return "unknown";
}

std::string git_sha() {
  std::FILE* p =
      ::popen("git -C \"" CMTOS_SOURCE_DIR "\" describe --always --dirty 2>/dev/null", "r");
  if (p == nullptr) return "unknown";
  char buf[128] = {};
  std::string out = std::fgets(buf, sizeof buf, p) != nullptr ? buf : "";
  ::pclose(p);
  while (!out.empty() && (out.back() == '\n' || out.back() == '\r')) out.pop_back();
  return out.empty() ? "unknown" : out;
}

}  // namespace

Labels run_meta() {
  return {{"cpu", cpu_model()},
          {"hw_threads", std::to_string(std::thread::hardware_concurrency())},
          {"build_type", CMTOS_BUILD_TYPE},
          {"git_sha", git_sha()}};
}

}  // namespace cmtos::obs
