#include "harness.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "datagen/dataset.h"
#include "fileio/dataset_reader.h"
#include "scatter/scatter.h"

namespace hepbench {

const char* FrontendName(EngineKind engine) {
  switch (engine) {
    case EngineKind::kRdf:
      return "rdf";
    case EngineKind::kBigQueryShape:
      return "bigquery";
    case EngineKind::kPrestoShape:
      return "presto";
    case EngineKind::kDoc:
      return "doc";
  }
  return "?";
}

int FrontendIndex(EngineKind engine) {
  for (int i = 0; i < kNumFrontends; ++i) {
    if (kFrontends[i] == engine) return i;
  }
  return 0;
}

bool ParseFrontend(const std::string& name, EngineKind* out) {
  for (EngineKind engine : kFrontends) {
    if (name == FrontendName(engine)) {
      *out = engine;
      return true;
    }
  }
  return false;
}

std::string ExecutionName(int query, EngineKind engine) {
  std::string name = "Q";
  name += std::to_string(query);
  name += '/';
  name += FrontendName(engine);
  return name;
}

std::string Workload::DatasetLabel() const {
  return std::to_string(num_shards) + "x" + std::to_string(events_per_shard) +
         "ev_" + std::to_string(row_group_size) + "rg";
}

int ParallelWidth() {
  const long cpus = ::sysconf(_SC_NPROCESSORS_ONLN);
  return static_cast<int>(std::clamp<long>(cpus, 1, 4));
}

namespace {

std::vector<Workload> MakeWorkloads() {
  const std::vector<int> scan_queries = {1, 2, 3, 4, 5, 7, 8};
  std::vector<Workload> table;

  Workload scan_cold;
  scan_cold.name = "scan_cold";
  scan_cold.queries = scan_queries;
  scan_cold.events_per_shard = 100000;
  scan_cold.row_group_size = 25000;
  table.push_back(scan_cold);

  Workload combinatoric;
  combinatoric.name = "combinatoric";
  combinatoric.queries = {6, 8};
  combinatoric.events_per_shard = 20000;
  combinatoric.row_group_size = 5000;
  table.push_back(combinatoric);

  Workload warm;
  warm.name = "sharded_warm_mt";
  warm.queries = scan_queries;
  warm.num_shards = 8;
  warm.events_per_shard = 25000;
  warm.row_group_size = 25000;
  warm.threads = ParallelWidth();
  warm.warm_chunk_cache = true;
  table.push_back(warm);

  Workload scatter = warm;
  scatter.name = "scatter";
  scatter.threads = 1;
  scatter.warm_chunk_cache = false;
  scatter.scatter = true;
  scatter.procs = ParallelWidth();
  table.push_back(scatter);
  return table;
}

const std::vector<Workload>& Table() {
  static const std::vector<Workload> table = MakeWorkloads();
  return table;
}

/// FNV-1a over raw bytes; stable across builds and hosts.
class Fnv {
 public:
  void Bytes(const void* data, size_t size) {
    const auto* p = static_cast<const uint8_t*>(data);
    for (size_t i = 0; i < size; ++i) {
      hash_ = (hash_ ^ p[i]) * 0x100000001b3ull;
    }
  }
  void Double(double v) {
    uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    Bytes(&bits, sizeof(bits));
  }
  void U64(uint64_t v) { Bytes(&v, sizeof(v)); }
  uint64_t hash() const { return hash_; }

 private:
  uint64_t hash_ = 0xcbf29ce484222325ull;
};

void HashBins(const hepq::HistogramParts& parts, Fnv* fnv) {
  fnv->U64(parts.bins.size());
  for (double bin : parts.bins) fnv->Double(bin);
  fnv->Double(parts.underflow);
  fnv->Double(parts.overflow);
  fnv->U64(parts.num_entries);
  fnv->Double(parts.sum_w);
}

double Seconds(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) +
         1e-6 * static_cast<double>(tv.tv_usec);
}

}  // namespace

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& workload : Table()) {
    if (workload.name == name) return &workload;
  }
  return nullptr;
}

std::vector<std::string> WorkloadNames() {
  std::vector<std::string> names;
  for (const Workload& workload : Table()) names.push_back(workload.name);
  return names;
}

hepq::Result<Dataset> GenerateDataset(const Workload& workload, uint64_t seed,
                                      const std::string& data_root,
                                      double* write_s) {
  hepq::ShardedDatasetSpec spec;
  spec.num_shards = workload.num_shards;
  spec.events_per_shard = workload.events_per_shard;
  spec.row_group_size = workload.row_group_size;
  spec.seed = seed;
  std::error_code ec;
  std::filesystem::create_directories(data_root, ec);
  std::filesystem::remove_all(data_root + "/" + spec.DirName(), ec);
  Dataset dataset;
  const double start = NowSeconds();
  HEPQ_ASSIGN_OR_RETURN(dataset.dir,
                        hepq::EnsureShardedDataset(data_root, spec));
  if (write_s != nullptr) *write_s = NowSeconds() - start;
  HEPQ_ASSIGN_OR_RETURN(dataset.files, hepq::ListLaqFiles(dataset.dir));
  dataset.path = dataset.files.size() == 1 ? dataset.files[0] : dataset.dir;
  return dataset;
}

uint64_t BinsDigest(const std::vector<hepq::Histogram1D>& histograms) {
  Fnv fnv;
  fnv.U64(histograms.size());
  for (const hepq::Histogram1D& h : histograms) HashBins(h.ToParts(), &fnv);
  return fnv.hash();
}

uint64_t FullDigest(const std::vector<hepq::Histogram1D>& histograms) {
  Fnv fnv;
  fnv.U64(histograms.size());
  for (const hepq::Histogram1D& h : histograms) {
    const hepq::HistogramParts parts = h.ToParts();
    HashBins(parts, &fnv);
    fnv.Double(parts.sum_wx);
    fnv.Double(parts.sum_wx2);
    fnv.Double(parts.spec.lo);
    fnv.Double(parts.spec.hi);
  }
  return fnv.hash();
}

std::map<int, uint64_t> LoadDigests(const std::string& path, uint64_t seed,
                                    const std::string& label) {
  std::map<int, uint64_t> digests;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    uint64_t line_seed = 0;
    std::string line_label, hex;
    int query = 0;
    if (!(fields >> line_seed >> line_label >> query >> hex)) continue;
    if (line_seed != seed || line_label != label) continue;
    digests[query] = std::stoull(hex, nullptr, 16);
  }
  return digests;
}

bool Oracle::Check(int query, EngineKind engine,
                   const hepq::Result<QueryRunOutput>& result) {
  ++attempted_;
  const std::string who = ExecutionName(query, engine);
  if (!result.ok()) {
    Fail(who + " returned an error: " + result.status().ToString());
    return false;
  }
  const uint64_t bins = BinsDigest(result->histograms);
  const auto committed = committed_.find(query);
  const uint64_t expected =
      committed != committed_.end()
          ? committed->second
          : bins_reference_.emplace(query, bins).first->second;
  if (bins != expected) {
    Fail(who + " histogram bins differ from the oracle");
    return false;
  }
  const uint64_t full = FullDigest(result->histograms);
  const auto key = std::make_pair(query, FrontendIndex(engine));
  if (full_reference_.emplace(key, full).first->second != full) {
    Fail(who + " is not bit-identical to its first execution");
    return false;
  }
  return true;
}

void Oracle::RecordFailure(std::string why) {
  ++attempted_;
  Fail(std::move(why));
}

void Oracle::Fail(std::string why) {
  ++failed_;
  std::fprintf(stderr, "hepbench: FAILED %s\n", why.c_str());
  if (first_failure_.empty()) first_failure_ = std::move(why);
}

OsUsage ReadOsUsage() {
  rusage self{};
  rusage children{};
  ::getrusage(RUSAGE_SELF, &self);
  ::getrusage(RUSAGE_CHILDREN, &children);
  OsUsage usage;
  usage.cpu_s = Seconds(self.ru_utime) + Seconds(self.ru_stime) +
                Seconds(children.ru_utime) + Seconds(children.ru_stime);
  // ru_maxrss is in KiB on Linux; for children it is the largest child.
  usage.peak_rss_mb =
      static_cast<double>(self.ru_maxrss + children.ru_maxrss) / 1024.0;
  return usage;
}

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

PassResult RunPass(const std::vector<int>& queries, const ExecuteFn& execute,
                   Oracle* oracle) {
  PassResult pass;
  const double cpu_before = ReadOsUsage().cpu_s;
  const double start = NowSeconds();
  for (int query : queries) {
    for (EngineKind engine : kFrontends) {
      Execution execution;
      execution.query = query;
      execution.engine = engine;
      const double t0 = NowSeconds();
      hepq::Result<QueryRunOutput> result = execute(query, engine);
      execution.wall_s = NowSeconds() - t0;
      execution.passed = oracle->Check(query, engine, result);
      if (result.ok()) execution.output = std::move(*result);
      pass.executions.push_back(std::move(execution));
    }
  }
  pass.wall_s = NowSeconds() - start;
  pass.cpu_s = ReadOsUsage().cpu_s - cpu_before;
  return pass;
}

FrontendTotals Totals(const PassResult& pass) {
  FrontendTotals totals;
  for (const Execution& e : pass.executions) {
    const int f = FrontendIndex(e.engine);
    totals.wall_s[f] += e.wall_s;
    totals.events[f] += static_cast<double>(e.output.events_processed);
  }
  return totals;
}

ExecuteFn InProcessExecutor(const std::string& path, int threads,
                            std::shared_ptr<hepq::cache::ChunkCache> cache) {
  hepq::queries::RunOptions options;
  options.num_threads = threads;
  options.validate_checksums = true;
  options.chunk_cache = std::move(cache);
  return [path, options](int query, EngineKind engine) {
    return hepq::queries::RunAdlQuery(engine, query, path, options);
  };
}

ExecuteFn ScatterExecutor(const std::string& self_exe, const Dataset& dataset,
                          int procs) {
  return [self_exe, dataset, procs](int query, EngineKind engine) {
    auto make_argv = [&](hepq::scatter::ShardRange range) {
      return std::vector<std::string>{
          self_exe,
          "--scatter-worker",
          "--query=" + std::to_string(query),
          std::string("--frontend=") + FrontendName(engine),
          "--data=" + dataset.path,
          "--shards=" + std::to_string(range.begin) + ":" +
              std::to_string(range.end)};
    };
    return hepq::scatter::RunScattered(dataset.files, procs, make_argv);
  };
}

int RunScatterWorker(std::map<std::string, std::string> flags) {
  EngineKind engine = EngineKind::kRdf;
  const int query = std::atoi(flags["query"].c_str());
  const std::string& data = flags["data"];
  const std::string& shards = flags["shards"];
  const size_t colon = shards.find(':');
  if (!ParseFrontend(flags["frontend"], &engine) || data.empty() ||
      colon == std::string::npos) {
    std::fprintf(stderr, "hepbench worker: bad flags\n");
    return 2;
  }
  hepq::scatter::ShardRange range;
  range.begin = std::atoi(shards.substr(0, colon).c_str());
  range.end = std::atoi(shards.substr(colon + 1).c_str());
  std::vector<std::string> files;
  if (hepq::IsDirectory(data)) {
    auto listed = hepq::ListLaqFiles(data);
    if (!listed.ok()) {
      std::fprintf(stderr, "hepbench worker: %s\n",
                   listed.status().ToString().c_str());
      return 1;
    }
    files = std::move(*listed);
  } else {
    files = {data};
  }
  if (range.begin < 0 || range.end > static_cast<int>(files.size()) ||
      range.begin >= range.end) {
    std::fprintf(stderr, "hepbench worker: shard range out of bounds\n");
    return 2;
  }
  hepq::queries::RunOptions options;
  options.num_threads = 1;
  options.validate_checksums = true;
  const hepq::Status status = hepq::scatter::RunWorker(
      files, range,
      [&](const std::string& shard) {
        return hepq::queries::RunAdlQuery(engine, query, shard, options);
      },
      STDOUT_FILENO);
  if (!status.ok()) {
    std::fprintf(stderr, "hepbench worker: %s\n", status.ToString().c_str());
    return 1;
  }
  return 0;
}

std::map<std::string, std::string> ParseFlags(int argc, char** argv) {
  std::map<std::string, std::string> flags;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) continue;
    arg = arg.substr(2);
    const size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      flags[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0) {
      flags[arg] = argv[++i];
    } else {
      flags[arg] = "";
    }
  }
  return flags;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double Max(const std::vector<double>& values) {
  return values.empty() ? 0.0 : *std::max_element(values.begin(), values.end());
}

std::string ResultJson(const Oracle& oracle,
                       const std::vector<Metric>& metrics) {
  std::string json = "{\"correct\": ";
  json += oracle.failed() == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(oracle.attempted());
  json += ", \"failed\": " + std::to_string(oracle.failed());
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    double value = metrics[i].value;
    if (!std::isfinite(value)) {
      std::fprintf(stderr, "hepbench: metric %s is not finite; reporting 0\n",
                   metrics[i].name.c_str());
      value = 0.0;
    }
    char number[64];
    std::snprintf(number, sizeof(number), "%.17g", value);
    if (i > 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " + number +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  return json;
}

}  // namespace hepbench
