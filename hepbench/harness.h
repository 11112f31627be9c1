#ifndef HEPBENCH_HARNESS_H_
#define HEPBENCH_HARNESS_H_

// Shared machinery of the end-to-end benchmark: the workload table, the
// seeded dataset set-up, one timed pass over a workload's (query,
// frontend) list, the histogram oracle, and OS-level cost probes. Every
// number comes from outside the program: wall time is taken around the
// public entry points (queries::RunAdlQuery, scatter::RunScattered), CPU
// and peak memory from getrusage of this process and its children.

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cache/cache.h"
#include "core/histogram.h"
#include "core/status.h"
#include "queries/adl.h"

namespace hepbench {

using hepq::queries::EngineKind;
using hepq::queries::QueryRunOutput;

/// The four frontends in the order every pass runs them.
inline constexpr EngineKind kFrontends[] = {
    EngineKind::kRdf, EngineKind::kBigQueryShape, EngineKind::kPrestoShape,
    EngineKind::kDoc};
inline constexpr int kNumFrontends = 4;

/// Short metric-name spelling of a frontend: rdf, bigquery, presto, doc.
const char* FrontendName(EngineKind engine);
int FrontendIndex(EngineKind engine);
bool ParseFrontend(const std::string& name, EngineKind* out);
/// "Q<query>/<frontend>", the name of one execution in output and spans.
std::string ExecutionName(int query, EngineKind engine);

/// One workload: a dataset shape and the way the (query, frontend) list
/// is executed over it. See README.md for why each one exists.
struct Workload {
  std::string name;
  std::vector<int> queries;
  int num_shards = 1;
  int64_t events_per_shard = 0;
  int64_t row_group_size = 0;
  /// Threads per process for every execution of a timed pass.
  int threads = 1;
  /// A shared ChunkCache, filled by one untimed pass during set-up.
  bool warm_chunk_cache = false;
  /// Executions go through scatter::RunScattered with `procs` workers.
  bool scatter = false;
  int procs = 1;

  int64_t total_events() const { return num_shards * events_per_shard; }
  /// Dataset label used by the committed digests, e.g. "8x25000ev_25000rg".
  std::string DatasetLabel() const;
};

/// min(4, number of online CPUs): the parallel width of the mt workloads.
int ParallelWidth();

/// The workload table; nullptr for an unknown name.
const Workload* FindWorkload(const std::string& name);
std::vector<std::string> WorkloadNames();

/// A generated dataset: its directory, the path every execution receives
/// (the shard file of a one-shard dataset, else the directory) and its
/// files.
struct Dataset {
  std::string dir;
  std::string path;
  std::vector<std::string> files;
};

/// Generates the workload's dataset for `seed` under `data_root`,
/// removing any previous copy first so it is always written in full.
/// `write_s`, when set, receives the time spent generating and writing,
/// without the removal.
hepq::Result<Dataset> GenerateDataset(const Workload& workload, uint64_t seed,
                                      const std::string& data_root,
                                      double* write_s = nullptr);

// ---------------------------------------------------------------------------
// Oracle
// ---------------------------------------------------------------------------

/// Digest of what every frontend must agree on: bin contents, under- and
/// overflow, entry count and sum of weights of every histogram. Moments
/// are left out; frontends may round them differently.
uint64_t BinsDigest(const std::vector<hepq::Histogram1D>& histograms);

/// Digest of every accumulator (moments included, raw IEEE-754 bits). One
/// frontend must reproduce it exactly across threads, processes and
/// cache states.
uint64_t FullDigest(const std::vector<hepq::Histogram1D>& histograms);

/// Committed bins digests: "<seed> <dataset label> <query> <hex digest>"
/// lines, '#' comments. Returns the digests of (seed, label) keyed by
/// query; a missing file or seed yields an empty map.
std::map<int, uint64_t> LoadDigests(const std::string& path, uint64_t seed,
                                    const std::string& label);

/// Judges every execution of a run. An execution fails when it returns an
/// error, when its bins digest differs from the reference for its query
/// (the committed digest, or for a seed without one the first successful
/// execution of the query, so frontends are checked against each other),
/// or when its full digest differs from the first execution of the same
/// (query, frontend) — a change across passes, thread counts, processes
/// or cache states.
class Oracle {
 public:
  explicit Oracle(std::map<int, uint64_t> committed)
      : committed_(std::move(committed)) {}

  /// Records one execution and returns true when it passed.
  bool Check(int query, EngineKind engine,
             const hepq::Result<QueryRunOutput>& result);

  /// Counts a failed call that is not a query execution (a layer probe
  /// of the traced run) as one attempted, failed operation.
  void RecordFailure(std::string why);

  int64_t attempted() const { return attempted_; }
  int64_t failed() const { return failed_; }
  bool has_committed() const { return !committed_.empty(); }
  /// The first message explaining a failure ("" when none failed).
  const std::string& first_failure() const { return first_failure_; }

 private:
  void Fail(std::string why);

  std::map<int, uint64_t> committed_;
  std::map<int, uint64_t> bins_reference_;
  std::map<std::pair<int, int>, uint64_t> full_reference_;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
  std::string first_failure_;
};

// ---------------------------------------------------------------------------
// Passes
// ---------------------------------------------------------------------------

/// CPU seconds (user + system) and peak RSS of this process plus every
/// child it has waited for, from getrusage.
struct OsUsage {
  double cpu_s = 0.0;
  double peak_rss_mb = 0.0;
};
OsUsage ReadOsUsage();

double NowSeconds();

/// One execution of a pass, timed from outside the call.
struct Execution {
  int query = 0;
  EngineKind engine = EngineKind::kRdf;
  double wall_s = 0.0;
  bool passed = false;
  /// The call's output (empty when it returned an error).
  QueryRunOutput output;
};

struct PassResult {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::vector<Execution> executions;
};

/// Per-frontend sums over one pass: execution wall and events scanned.
struct FrontendTotals {
  double wall_s[kNumFrontends] = {};
  double events[kNumFrontends] = {};
};
FrontendTotals Totals(const PassResult& pass);

/// Runs one (query, frontend) execution; the pass times it.
using ExecuteFn =
    std::function<hepq::Result<QueryRunOutput>(int query, EngineKind engine)>;

/// Runs every query of `queries` on every frontend, checking each result
/// with `oracle`.
PassResult RunPass(const std::vector<int>& queries, const ExecuteFn& execute,
                   Oracle* oracle);

/// In-process execution through queries::RunAdlQuery.
ExecuteFn InProcessExecutor(const std::string& path, int threads,
                            std::shared_ptr<hepq::cache::ChunkCache> cache);

/// Multi-process execution through scatter::RunScattered, spawning
/// `self_exe --scatter-worker ...` (see RunScatterWorker).
ExecuteFn ScatterExecutor(const std::string& self_exe, const Dataset& dataset,
                          int procs);

/// Worker half of ScatterExecutor: runs the shards the flags name and
/// streams frames to stdout. Returns the process exit code.
int RunScatterWorker(std::map<std::string, std::string> flags);

/// Command-line flags as name -> value. Both "--name value" and
/// "--name=value" are accepted; a flag followed by another flag (or by
/// nothing) maps to "".
std::map<std::string, std::string> ParseFlags(int argc, char** argv);

// ---------------------------------------------------------------------------
// Statistics and output
// ---------------------------------------------------------------------------

double Median(std::vector<double> values);
double Max(const std::vector<double>& values);

/// One named metric of the final JSON line.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// The benchmark's last stdout line: exactly the keys correct, attempted,
/// failed and metrics.
std::string ResultJson(const Oracle& oracle,
                       const std::vector<Metric>& metrics);

}  // namespace hepbench

#endif  // HEPBENCH_HARNESS_H_
