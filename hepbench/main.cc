// End-to-end benchmark of the four ADL frontends. One invocation runs one
// workload in one process:
//
//   hepbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//            [--events-per-shard <n>] [--data-dir <dir>] [--digests <file>]
//            [--commit <id>] [--source-digest <hex>] [--emit-digests]
//
// Set-up generates the seeded dataset (five times; the median is
// setup_s) and, on the warm workload, fills the chunk cache with one
// untimed pass. Untraced runs then repeat timed passes over the
// workload's (query, frontend) list until --seconds have elapsed and
// report the end-to-end metrics; traced runs report the per-layer ones
// (layers.cc). The last stdout line is the JSON result.

#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "cache/cache.h"
#include "harness.h"
#include "layers.h"

#ifndef HEPBENCH_BUILD_TYPE
#define HEPBENCH_BUILD_TYPE "unknown"
#endif

namespace hepbench {
namespace {

constexpr uint64_t kDefaultSeed = 20120601;
constexpr int kSetupRepeats = 5;

std::string SelfExe() {
  char buf[PATH_MAX];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n <= 0) return "";
  buf[n] = '\0';
  return buf;
}

/// Runs leave no dataset behind: every run regenerates its own.
void RemoveDataset(const Dataset& dataset) {
  std::error_code ec;
  std::filesystem::remove_all(dataset.dir, ec);
}

int Usage(const char* why) {
  std::fprintf(stderr, "hepbench: %s\nworkloads:", why);
  for (const std::string& name : WorkloadNames()) {
    std::fprintf(stderr, " %s", name.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

/// Per-pass figures the end-to-end metrics are medians of.
struct PassFigures {
  double ns_per_event[kNumFrontends] = {};
  double storage_bytes_per_event = 0.0;
  double decoded_bytes_per_event = 0.0;
};

PassFigures Figures(const PassResult& pass) {
  double storage = 0.0, decoded = 0.0, all_events = 0.0;
  for (const Execution& e : pass.executions) {
    storage += static_cast<double>(e.output.scan.storage_bytes);
    decoded += static_cast<double>(e.output.scan.decoded_bytes);
    all_events += static_cast<double>(e.output.events_processed);
  }
  const FrontendTotals totals = Totals(pass);
  PassFigures figures;
  for (int f = 0; f < kNumFrontends; ++f) {
    figures.ns_per_event[f] =
        totals.events[f] > 0 ? 1e9 * totals.wall_s[f] / totals.events[f] : 0.0;
  }
  if (all_events > 0) {
    figures.storage_bytes_per_event = storage / all_events;
    figures.decoded_bytes_per_event = decoded / all_events;
  }
  return figures;
}

void PrintPass(const char* label, const PassResult& pass,
               const PassFigures& figures) {
  std::printf("%s: wall %.4f s  cpu %.4f s |", label, pass.wall_s, pass.cpu_s);
  for (int f = 0; f < kNumFrontends; ++f) {
    std::printf(" %s %.1f", FrontendName(kFrontends[f]),
                figures.ns_per_event[f]);
  }
  std::printf(" ns/event | decoded %.1f B/event\n",
              figures.decoded_bytes_per_event);
}

/// Median wall of one (query, frontend) over the timed passes.
double MedianWall(const std::vector<PassResult>& passes, int query,
                  EngineKind engine) {
  std::vector<double> walls;
  for (const PassResult& pass : passes) {
    for (const Execution& e : pass.executions) {
      if (e.query == query && e.engine == engine) walls.push_back(e.wall_s);
    }
  }
  return Median(walls);
}

/// A frontend's summed wall in a typical pass over the events it scanned.
/// Summing per-query medians keeps one slow execution (a descheduled
/// worker thread, say) out of the figure, where a median of per-pass sums
/// would carry one such outlier per pass.
double NsPerEvent(const std::vector<PassResult>& passes,
                  const Workload& workload, EngineKind engine) {
  double wall = 0.0;
  for (int query : workload.queries) wall += MedianWall(passes, query, engine);
  const double events = Totals(passes.front()).events[FrontendIndex(engine)];
  return events > 0 ? 1e9 * wall / events : 0.0;
}

/// Median wall per (query, frontend): where the pass time goes.
void PrintExecutionTable(const Workload& workload,
                         const std::vector<PassResult>& passes) {
  for (int query : workload.queries) {
    std::printf("Q%d:", query);
    for (EngineKind engine : kFrontends) {
      std::printf("  %s %.2f ms", FrontendName(engine),
                  1e3 * MedianWall(passes, query, engine));
    }
    std::printf("\n");
  }
}

int Main(int argc, char** argv) {
  std::map<std::string, std::string> flags = ParseFlags(argc, argv);
  if (flags.count("scatter-worker") != 0) return RunScatterWorker(flags);

  const Workload* known = FindWorkload(flags["workload"]);
  if (known == nullptr) return Usage("unknown or missing --workload");
  // The event count is an argument like the seed; a count other than the
  // workload's own has no committed digests, so frontends are checked
  // against each other.
  Workload sized = *known;
  const std::string& events_flag = flags["events-per-shard"];
  if (!events_flag.empty()) {
    const long long events = std::atoll(events_flag.c_str());
    if (events_flag.find_first_not_of("0123456789") != std::string::npos ||
        events <= 0) {
      return Usage("--events-per-shard must be a positive integer");
    }
    sized.events_per_shard = events;
    sized.row_group_size = std::min<int64_t>(sized.row_group_size, events);
  }
  const Workload* workload = &sized;
  const std::string& seed_flag = flags["seed"];
  if (seed_flag.find_first_not_of("0123456789") != std::string::npos) {
    return Usage("--seed must be a non-negative integer");
  }
  const uint64_t seed = seed_flag.empty()
                            ? kDefaultSeed
                            : std::strtoull(seed_flag.c_str(), nullptr, 10);
  const double seconds =
      flags["seconds"].empty() ? 10.0 : std::atof(flags["seconds"].c_str());
  if (!(seconds > 0)) return Usage("--seconds must be positive");
  const std::string& trace_flag = flags["trace"];
  if (trace_flag != "" && trace_flag != "0" && trace_flag != "1") {
    return Usage("--trace must be 0 or 1");
  }
  const bool traced = trace_flag == "1";
  const std::string data_root =
      flags["data-dir"].empty() ? ".bench_build/data" : flags["data-dir"];
  const std::string digests_path =
      flags["digests"].empty() ? "hepbench/digests.txt" : flags["digests"];

  RunContext context;
  context.workload = workload;
  context.seed = seed;
  context.self_exe = SelfExe();
  context.scratch_dir = data_root + "/scratch";

  // Set-up: generate and write the dataset several times; the last copy
  // is the one the passes read.
  std::vector<double> generate_s;
  for (int i = 0; i < kSetupRepeats; ++i) {
    double write_s = 0.0;
    hepq::Result<Dataset> dataset =
        GenerateDataset(*workload, seed, data_root, &write_s);
    generate_s.push_back(write_s);
    if (!dataset.ok()) {
      std::fprintf(stderr, "hepbench: dataset generation failed: %s\n",
                   dataset.status().ToString().c_str());
      return 1;
    }
    context.dataset = std::move(*dataset);
  }
  const std::string label = workload->DatasetLabel();
  Oracle oracle(LoadDigests(digests_path, seed, label));
  context.oracle = &oracle;

  if (flags.count("emit-digests") != 0) {
    // Refreshes hepbench/digests.txt: every frontend must agree first.
    Oracle agreement({});
    const PassResult pass = RunPass(
        workload->queries, InProcessExecutor(context.dataset.path, 1, nullptr),
        &agreement);
    RemoveDataset(context.dataset);
    if (agreement.failed() != 0) return 1;
    for (const Execution& e : pass.executions) {
      if (e.engine != EngineKind::kRdf) continue;
      std::printf("%" PRIu64 " %s %d %016" PRIx64 "\n", seed, label.c_str(),
                  e.query, BinsDigest(e.output.histograms));
    }
    return 0;
  }

  if (workload->warm_chunk_cache) {
    context.cache = std::make_shared<hepq::cache::ChunkCache>();
  }
  context.execute =
      workload->scatter
          ? ScatterExecutor(context.self_exe, context.dataset, workload->procs)
          : InProcessExecutor(context.dataset.path, workload->threads,
                              context.cache);

  double fill_s = 0.0;
  PassResult fill;
  if (workload->warm_chunk_cache) {
    fill = RunPass(workload->queries, context.execute, &oracle);
    fill_s = fill.wall_s;
  }
  const double setup_s = Median(generate_s) + fill_s;

  const auto version = hepq::cache::DatasetVersion(context.dataset.path);
  std::printf(
      "facts: {\"workload\": \"%s\", \"seed\": %" PRIu64
      ", \"nproc\": %ld, \"parallel_width\": %d, \"compiler\": \"%s\", "
      "\"build_type\": \"%s\", \"commit\": \"%s\", \"source_digest\": "
      "\"%s\", \"dataset\": \"%s\", \"dataset_version\": \"%016" PRIx64
      "\", \"committed_digests\": %s, \"traced\": %s}\n",
      workload->name.c_str(), seed, ::sysconf(_SC_NPROCESSORS_ONLN),
      ParallelWidth(), __VERSION__, HEPBENCH_BUILD_TYPE,
      flags["commit"].empty() ? "unknown" : flags["commit"].c_str(),
      flags["source-digest"].empty() ? "unknown"
                                     : flags["source-digest"].c_str(),
      label.c_str(), version.ok() ? *version : 0,
      oracle.has_committed() ? "true" : "false", traced ? "true" : "false");
  std::printf("setup: generate %.4f s (median of %d), cache fill %.4f s\n",
              Median(generate_s), kSetupRepeats, fill_s);
  if (context.cache) {
    const hepq::cache::CacheCounters counters = context.cache->counters();
    std::printf("chunk cache after fill: %.1f MB decoded in %" PRIu64
                " entries, budget %.0f MB, %" PRIu64 " evictions\n",
                static_cast<double>(counters.bytes_held) / 1e6,
                counters.entries,
                static_cast<double>(context.cache->budget_bytes()) / 1e6,
                counters.evictions);
  }

  if (traced) {
    const std::vector<Metric> metrics = RunTraced(
        context, data_root + "/spans_" + workload->name + ".json");
    RemoveDataset(context.dataset);
    std::printf("%s\n", ResultJson(oracle, metrics).c_str());
    return 0;
  }

  std::vector<PassResult> passes;
  const double start = NowSeconds();
  do {
    passes.push_back(RunPass(workload->queries, context.execute, &oracle));
    char pass_label[32];
    std::snprintf(pass_label, sizeof(pass_label), "pass %zu", passes.size());
    PrintPass(pass_label, passes.back(), Figures(passes.back()));
  } while (NowSeconds() - start < seconds);
  PrintExecutionTable(*workload, passes);

  std::vector<double> walls, cpus, storage, decoded, timed_decoded;
  for (const PassResult& pass : passes) {
    const PassFigures figures = Figures(pass);
    walls.push_back(pass.wall_s);
    cpus.push_back(pass.cpu_s);
    timed_decoded.push_back(figures.decoded_bytes_per_event);
    if (!workload->warm_chunk_cache) {
      storage.push_back(figures.storage_bytes_per_event);
      decoded.push_back(figures.decoded_bytes_per_event);
    }
  }
  if (workload->warm_chunk_cache) {
    // Timed passes are served from the cache and decode nothing; the byte
    // metrics describe the cold fill pass over the same list.
    const PassFigures figures = Figures(fill);
    storage.push_back(figures.storage_bytes_per_event);
    decoded.push_back(figures.decoded_bytes_per_event);
    std::printf("timed passes decoded %.1f B/event (cache-served)\n",
                Max(timed_decoded));
  }
  std::printf("samples: %zu passes; wall_s_max is the highest percentile "
              "they support (the maximum)\n",
              passes.size());

  RemoveDataset(context.dataset);
  const double attempted = static_cast<double>(oracle.attempted());
  std::vector<Metric> metrics = {
      {"setup_s", setup_s, "s"},
      {"wall_s", Median(walls), "s"},
      {"wall_s_max", Max(walls), "s"},
      {"rdf_ns_per_event", NsPerEvent(passes, *workload, kFrontends[0]),
       "ns"},
      {"bigquery_ns_per_event", NsPerEvent(passes, *workload, kFrontends[1]),
       "ns"},
      {"presto_ns_per_event", NsPerEvent(passes, *workload, kFrontends[2]),
       "ns"},
      {"doc_ns_per_event", NsPerEvent(passes, *workload, kFrontends[3]),
       "ns"},
      {"cpu_s", Median(cpus), "s"},
      {"storage_bytes_per_event", Median(storage), "B"},
      {"decoded_bytes_per_event", Median(decoded), "B"},
      {"peak_rss_mb", ReadOsUsage().peak_rss_mb, "MB"},
      {"correct_fraction",
       (attempted - static_cast<double>(oracle.failed())) / attempted,
       "fraction"},
  };
  std::printf("%s\n", ResultJson(oracle, metrics).c_str());
  return 0;
}

}  // namespace
}  // namespace hepbench

int main(int argc, char** argv) { return hepbench::Main(argc, argv); }
