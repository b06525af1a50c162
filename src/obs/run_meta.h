// cmtos/obs/run_meta.h
//
// Where a measurement was taken: the metadata every committed BENCH_*.json
// carries next to its numbers, so a figure is always tied to hardware, a
// build type and a source revision.

#pragma once

#include "obs/metrics.h"

namespace cmtos::obs {

/// {cpu, hw_threads, build_type, git_sha}.  `cpu` is /proc/cpuinfo's model
/// name; `git_sha` is `git describe --always --dirty` of the source tree
/// this library was built from.  Either reads "unknown" when unavailable.
Labels run_meta();

}  // namespace cmtos::obs
