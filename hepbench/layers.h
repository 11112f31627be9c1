#ifndef HEPBENCH_LAYERS_H_
#define HEPBENCH_LAYERS_H_

// The traced run: per-layer metrics timed around each module's public
// functions from the benchmark's own code (no span inside the program).

#include <memory>
#include <string>
#include <vector>

#include "harness.h"

namespace hepbench {

/// Everything a run has after set-up.
struct RunContext {
  const Workload* workload = nullptr;
  uint64_t seed = 0;
  Dataset dataset;
  std::string self_exe;
  /// Directory under the data root for the traced run's scratch files.
  std::string scratch_dir;
  std::shared_ptr<hepq::cache::ChunkCache> cache;
  ExecuteFn execute;
  Oracle* oracle = nullptr;
};

/// Runs one untraced and one traced pass plus the layer replays, and
/// returns every per-layer metric. Spans go to `spans_path` as JSON.
std::vector<Metric> RunTraced(const RunContext& context,
                              const std::string& spans_path);

}  // namespace hepbench

#endif  // HEPBENCH_LAYERS_H_
