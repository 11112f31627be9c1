#include "layers.h"

#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <map>
#include <set>
#include <tuple>

#include "core/histogram.h"
#include "datagen/generator.h"
#include "doc/convert.h"
#include "exec/exec.h"
#include "fileio/compression.h"
#include "fileio/crc32.h"
#include "fileio/encoding.h"
#include "fileio/reader.h"
#include "fileio/writer.h"
#include "scatter/scatter.h"

namespace hepbench {
namespace {

/// In-memory spans recorded around the calls the benchmark makes into
/// each layer; written out as JSON when the run ends.
class Tracer {
 public:
  int Begin(std::string name, int parent) {
    spans_.push_back({std::move(name), parent, NowSeconds(), 0.0});
    return static_cast<int>(spans_.size()) - 1;
  }
  double End(int id) {
    Span& span = spans_[static_cast<size_t>(id)];
    span.end = NowSeconds();
    return span.end - span.start;
  }
  void Write(const std::string& path) const {
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) return;
    const double origin = spans_.empty() ? 0.0 : spans_[0].start;
    std::fprintf(out, "[\n");
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(out,
                   "  {\"id\": %zu, \"parent\": %d, \"name\": \"%s\", "
                   "\"start_us\": %.3f, \"dur_us\": %.3f}%s\n",
                   i, s.parent, s.name.c_str(), 1e6 * (s.start - origin),
                   1e6 * (s.end - s.start), i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(out, "]\n");
    std::fclose(out);
  }

 private:
  struct Span {
    std::string name;
    int parent = -1;
    double start = 0.0;
    double end = 0.0;
  };
  std::vector<Span> spans_;
};

/// Wraps an executor so each call is a span under `parent`.
ExecuteFn Traced(const ExecuteFn& execute, Tracer* tracer, int parent) {
  return [execute, tracer, parent](int query, EngineKind engine) {
    const int span = tracer->Begin(ExecutionName(query, engine), parent);
    hepq::Result<QueryRunOutput> result = execute(query, engine);
    tracer->End(span);
    return result;
  };
}

PassResult TracedPass(const char* name, const Workload& workload,
                      const ExecuteFn& execute, Oracle* oracle,
                      Tracer* tracer) {
  const int span = tracer->Begin(name, -1);
  PassResult pass =
      RunPass(workload.queries, Traced(execute, tracer, span), oracle);
  tracer->End(span);
  std::printf("%s pass: wall %.4f s  cpu %.4f s\n", name, pass.wall_s,
              pass.cpu_s);
  return pass;
}

/// The reader options each frontend uses (queries/*_queries.cc): struct
/// projection pushdown is off only for the Presto shape.
hepq::ReaderOptions FrontendReaderOptions(
    EngineKind engine, std::shared_ptr<hepq::cache::ChunkCache> cache) {
  hepq::ReaderOptions options;
  options.struct_projection_pushdown = engine != EngineKind::kPrestoShape;
  options.validate_checksums = true;
  options.chunk_cache = std::move(cache);
  return options;
}

/// Leaf indices an execution consumed: read from storage or served by the
/// chunk cache, as its ScanStats report.
std::vector<int> ConsumedLeaves(const hepq::ScanStats& scan,
                                const hepq::FileMetadata& meta) {
  std::vector<int> leaves;
  for (const hepq::LeafScanStats& leaf : scan.leaves) {
    if (leaf.chunks_read == 0 && leaf.cache_bytes_served == 0) continue;
    const int index = meta.LeafIndex(leaf.path);
    if (index >= 0) leaves.push_back(index);
  }
  std::sort(leaves.begin(), leaves.end());
  return leaves;
}

/// The ReadRowGroup projection that reads exactly `leaves`: whole columns
/// for top-level primitives, "Column.member" for struct members; a list's
/// lengths leaf comes with any of its members.
std::vector<std::string> ProjectionFor(const std::vector<int>& leaves,
                                       const hepq::FileMetadata& meta) {
  std::vector<std::string> projection;
  std::set<int> fields_with_member;
  for (int index : leaves) {
    const hepq::LeafDesc& leaf = meta.layout[static_cast<size_t>(index)];
    if (!leaf.is_lengths) fields_with_member.insert(leaf.field_index);
  }
  for (int index : leaves) {
    const hepq::LeafDesc& leaf = meta.layout[static_cast<size_t>(index)];
    const std::string& column =
        meta.schema.field(leaf.field_index).name;
    if (leaf.is_lengths) {
      if (fields_with_member.count(leaf.field_index) == 0) {
        projection.push_back(column);
      }
    } else if (leaf.member_index < 0) {
      projection.push_back(column);
    } else {
      projection.push_back(leaf.path);
    }
  }
  return projection;
}

/// Replay of one execution's storage reads (and, for doc, its boxing).
struct Replay {
  double read_s = 0.0;
  double box_s = 0.0;
  uint64_t decoded_bytes = 0;
};

struct ChunkId {
  int file = 0;
  int group = 0;
  int leaf = 0;
  bool operator<(const ChunkId& o) const {
    return std::tie(file, group, leaf) < std::tie(o.file, o.group, o.leaf);
  }
};

hepq::Result<Replay> ReplayExecution(const Execution& execution,
                                     const RunContext& context,
                                     Tracer* tracer, int parent,
                                     std::set<ChunkId>* chunks) {
  Replay replay;
  hepq::ScratchBuffers scratch;
  const hepq::ReaderOptions options =
      FrontendReaderOptions(execution.engine, context.cache);
  for (size_t file = 0; file < context.dataset.files.size(); ++file) {
    std::unique_ptr<hepq::LaqReader> reader;
    HEPQ_ASSIGN_OR_RETURN(
        reader, hepq::LaqReader::Open(context.dataset.files[file], options));
    const hepq::FileMetadata& meta = reader->metadata();
    const std::vector<int> leaves = ConsumedLeaves(execution.output.scan, meta);
    const std::vector<std::string> projection = ProjectionFor(leaves, meta);
    for (int group = 0; group < reader->num_row_groups(); ++group) {
      for (int leaf : leaves) {
        chunks->insert({static_cast<int>(file), group, leaf});
      }
      const int read_span = tracer->Begin("fileio.read", parent);
      hepq::RecordBatchPtr batch;
      HEPQ_ASSIGN_OR_RETURN(batch,
                            reader->ReadRowGroup(group, projection, &scratch));
      replay.read_s += tracer->End(read_span);
      if (execution.engine != EngineKind::kDoc) continue;
      const int box_span = tracer->Begin("doc.box", parent);
      for (int64_t row = 0; row < batch->num_rows(); ++row) {
        hepq::doc::ItemPtr item = hepq::doc::EventToItem(*batch, row);
      }
      replay.box_s += tracer->End(box_span);
    }
    replay.decoded_bytes += reader->scan_stats().decoded_bytes;
  }
  return replay;
}

/// Throughput of the storage decode path, stage by stage, over the stored
/// bytes of every replayed chunk: Crc32 over each page's stored bytes,
/// Decompress to its encoded bytes, DecodeValues to physical values.
struct DecodeStages {
  double crc_s = 0.0, crc_bytes = 0.0;
  double decompress_s = 0.0, decompress_bytes = 0.0;
  std::map<std::string, std::pair<double, double>> decode;  // s, bytes
  /// Decoded chunks with their ids, for the cache probe.
  std::vector<std::pair<ChunkId, std::vector<uint8_t>>> decoded;
  int crc_mismatches = 0;
};

hepq::Status MeasureDecodeStages(const RunContext& context,
                                 const std::set<ChunkId>& chunks,
                                 DecodeStages* stages) {
  std::vector<uint8_t> stored, encoded;
  for (size_t file = 0; file < context.dataset.files.size(); ++file) {
    hepq::ReaderOptions options;
    std::unique_ptr<hepq::LaqReader> reader;
    HEPQ_ASSIGN_OR_RETURN(
        reader, hepq::LaqReader::Open(context.dataset.files[file], options));
    const hepq::FileMetadata& meta = reader->metadata();
    std::unique_ptr<std::FILE, int (*)(std::FILE*)> in(
        std::fopen(context.dataset.files[file].c_str(), "rb"), &std::fclose);
    if (in == nullptr) return hepq::Status::IoError("cannot reopen shard");
    for (const ChunkId& id : chunks) {
      if (id.file != static_cast<int>(file)) continue;
      const hepq::ChunkMeta& chunk =
          meta.row_groups[static_cast<size_t>(id.group)]
              .chunks[static_cast<size_t>(id.leaf)];
      const hepq::LeafDesc& leaf = meta.layout[static_cast<size_t>(id.leaf)];
      stored.resize(chunk.compressed_size);
      if (std::fseek(in.get(), static_cast<long>(chunk.file_offset),
                     SEEK_SET) != 0 ||
          std::fread(stored.data(), 1, stored.size(), in.get()) !=
              stored.size()) {
        return hepq::Status::IoError("short chunk read");
      }
      std::vector<hepq::PageMeta> pages = chunk.pages;
      if (pages.empty()) {
        hepq::PageMeta whole;
        whole.num_values = chunk.num_values;
        whole.compressed_size = chunk.compressed_size;
        whole.encoded_size = chunk.encoded_size;
        whole.crc32 = chunk.crc32;
        pages.push_back(whole);
      }
      const int width = hepq::PrimitiveWidth(leaf.physical);
      std::vector<uint8_t> values(chunk.num_values *
                                  static_cast<size_t>(width));
      auto& decode = stages->decode[hepq::EncodingName(chunk.encoding)];
      uint64_t offset = 0, value_offset = 0;
      for (const hepq::PageMeta& page : pages) {
        const uint8_t* bytes = stored.data() + offset;
        double t0 = NowSeconds();
        const uint32_t crc = hepq::Crc32(bytes, page.compressed_size);
        stages->crc_s += NowSeconds() - t0;
        stages->crc_bytes += static_cast<double>(page.compressed_size);
        if (crc != page.crc32) ++stages->crc_mismatches;

        t0 = NowSeconds();
        HEPQ_RETURN_NOT_OK(hepq::Decompress(chunk.codec, bytes,
                                            page.compressed_size,
                                            page.encoded_size, &encoded));
        stages->decompress_s += NowSeconds() - t0;
        stages->decompress_bytes += static_cast<double>(page.encoded_size);

        t0 = NowSeconds();
        HEPQ_RETURN_NOT_OK(hepq::DecodeValues(
            leaf.physical, chunk.encoding, encoded.data(), page.encoded_size,
            page.num_values, values.data() + value_offset * width));
        decode.first += NowSeconds() - t0;
        decode.second += static_cast<double>(page.num_values * width);
        offset += page.compressed_size;
        value_offset += page.num_values;
      }
      stages->decoded.emplace_back(id, std::move(values));
    }
  }
  return hepq::Status::OK();
}

/// ChunkCache::Get throughput over resident entries: a cache filled with
/// the replayed decoded chunks, every key fetched once.
double CacheGetMbPerS(const DecodeStages& stages) {
  hepq::cache::ChunkCache cache;
  auto key_of = [](const ChunkId& id) {
    hepq::cache::ChunkKey key;
    key.file_id = static_cast<uint64_t>(id.file) + 1;
    key.leaf = id.leaf;
    key.group = id.group;
    return key;
  };
  for (const auto& [id, bytes] : stages.decoded) {
    cache.Insert(key_of(id), bytes.data(), bytes.size());
  }
  std::vector<uint8_t> out;
  double seconds = 0.0, bytes = 0.0;
  for (const auto& entry : stages.decoded) {
    const double t0 = NowSeconds();
    const bool hit = cache.Get(key_of(entry.first), &out);
    seconds += NowSeconds() - t0;
    if (hit) bytes += static_cast<double>(out.size());
  }
  return seconds > 0 ? bytes / 1e6 / seconds : 0.0;
}

/// Median cold LaqReader::Open per file (footer cache bypassed, as in a
/// freshly spawned scatter worker), in microseconds.
double OpenMicros(const Dataset& dataset) {
  std::vector<double> samples;
  hepq::ReaderOptions options;
  options.footer_cache = false;
  for (int rep = 0; rep < 5; ++rep) {
    for (const std::string& file : dataset.files) {
      const double t0 = NowSeconds();
      auto reader = hepq::LaqReader::Open(file, options);
      samples.push_back(1e6 * (NowSeconds() - t0));
      if (!reader.ok()) return 0.0;
    }
  }
  return Median(samples);
}

/// Median ThreadPool::ParallelFor over one empty task per worker, in
/// microseconds.
double DispatchMicros(int width) {
  hepq::exec::ThreadPool& pool = hepq::exec::ThreadPool::Shared(width);
  std::vector<double> samples;
  for (int rep = 0; rep < 2000; ++rep) {
    const double t0 = NowSeconds();
    pool.ParallelFor(width, width, [](int, int) {});
    samples.push_back(1e6 * (NowSeconds() - t0));
  }
  return Median(samples);
}

/// Histogram1D::Fill cost: every histogram of every execution refilled
/// with as many values as it holds entries, spread over its axis.
double HistFillNs(const PassResult& pass) {
  double seconds = 0.0, fills = 0.0;
  std::vector<double> values;
  for (const Execution& e : pass.executions) {
    for (const hepq::Histogram1D& h : e.output.histograms) {
      const hepq::HistogramSpec& spec = h.spec();
      const uint64_t n = h.num_entries();
      values.resize(n);
      const double span = 1.2 * (spec.hi - spec.lo);
      for (uint64_t i = 0; i < n; ++i) {
        values[i] = spec.lo - 0.1 * (spec.hi - spec.lo) +
                    span * static_cast<double>((i * 2654435761u) % 1000003) /
                        1000003.0;
      }
      hepq::Histogram1D fresh(spec);
      const double t0 = NowSeconds();
      for (double v : values) fresh.Fill(v);
      seconds += NowSeconds() - t0;
      fills += static_cast<double>(n);
    }
  }
  return fills > 0 ? 1e9 * seconds / fills : 0.0;
}

/// Generation rate of EventGenerator and write rate of LaqWriter, timed
/// separately over the workload's event count.
hepq::Status MeasureDatagen(const RunContext& context, double* generate_eps,
                            double* write_eps) {
  const Workload& workload = *context.workload;
  std::error_code ec;
  std::filesystem::create_directories(context.scratch_dir, ec);
  const std::string path = context.scratch_dir + "/write_probe.laq";
  hepq::GeneratorConfig config;
  config.seed = context.seed;
  hepq::EventGenerator generator(config);
  hepq::WriterOptions options;
  options.row_group_size = workload.row_group_size;
  std::unique_ptr<hepq::LaqWriter> writer;
  HEPQ_ASSIGN_OR_RETURN(
      writer, hepq::LaqWriter::Open(path, hepq::EventGenerator::CmsSchema(),
                                    options));
  double generate_s = 0.0, write_s = 0.0;
  for (int64_t done = 0; done < workload.total_events();) {
    const int64_t n =
        std::min(workload.row_group_size, workload.total_events() - done);
    double t0 = NowSeconds();
    hepq::RecordBatchPtr batch = generator.GenerateBatch(n);
    generate_s += NowSeconds() - t0;
    t0 = NowSeconds();
    HEPQ_RETURN_NOT_OK(writer->WriteBatch(*batch));
    write_s += NowSeconds() - t0;
    done += n;
  }
  const double t0 = NowSeconds();
  HEPQ_RETURN_NOT_OK(writer->Close());
  write_s += NowSeconds() - t0;
  std::filesystem::remove(path, ec);
  const double events = static_cast<double>(workload.total_events());
  *generate_eps = events / generate_s;
  *write_eps = events / write_s;
  return hepq::Status::OK();
}

/// scatter.merge_us: RunWorker streams written in-process (one memfd per
/// worker) for each query on the bigquery frontend, then the coordinator's
/// gather path — ParseWorkerStream, CombineWorkerStreams,
/// MergeShardOutputs — timed per query. Merged results go to the oracle.
hepq::Status MeasureMerge(const RunContext& context, int procs,
                          Oracle* oracle, double* merge_us) {
  const std::vector<std::string>& files = context.dataset.files;
  const EngineKind engine = EngineKind::kBigQueryShape;
  hepq::queries::RunOptions options;
  options.num_threads = 1;
  std::vector<double> samples;
  for (int query : context.workload->queries) {
    std::map<std::string, QueryRunOutput> per_shard;
    for (const std::string& file : files) {
      QueryRunOutput out;
      HEPQ_ASSIGN_OR_RETURN(
          out, hepq::queries::RunAdlQuery(engine, query, file, options));
      per_shard[file] = std::move(out);
    }
    std::vector<std::vector<uint8_t>> bytes;
    std::vector<hepq::scatter::ShardRange> ranges;
    for (int w = 0; w < procs; ++w) {
      const hepq::scatter::ShardRange range = hepq::scatter::ShardRangeFor(
          static_cast<int>(files.size()), procs, w);
      if (range.size() == 0) continue;
      const int fd = ::memfd_create("hepbench_stream", 0);
      if (fd < 0) return hepq::Status::IoError("memfd_create failed");
      hepq::Status status = hepq::scatter::RunWorker(
          files, range,
          [&](const std::string& shard) -> hepq::Result<QueryRunOutput> {
            return per_shard[shard];
          },
          fd);
      const off_t size = ::lseek(fd, 0, SEEK_END);
      std::vector<uint8_t> stream(size > 0 ? static_cast<size_t>(size) : 0);
      if (status.ok() &&
          (size <= 0 || ::pread(fd, stream.data(), stream.size(), 0) != size)) {
        status = hepq::Status::IoError("short stream read");
      }
      ::close(fd);
      HEPQ_RETURN_NOT_OK(status);
      bytes.push_back(std::move(stream));
      ranges.push_back(range);
    }
    const double t0 = NowSeconds();
    std::vector<hepq::scatter::WorkerStream> streams;
    for (size_t w = 0; w < bytes.size(); ++w) {
      streams.push_back(
          hepq::scatter::ParseWorkerStream(bytes[w].data(), bytes[w].size()));
      streams.back().range = ranges[w];
    }
    auto merge = [&]() -> hepq::Result<QueryRunOutput> {
      std::vector<hepq::scatter::ShardFragment> fragments;
      HEPQ_ASSIGN_OR_RETURN(
          fragments, hepq::scatter::CombineWorkerStreams(streams, files));
      return hepq::scatter::MergeShardOutputs(fragments);
    };
    const hepq::Result<QueryRunOutput> merged = merge();
    samples.push_back(1e6 * (NowSeconds() - t0));
    oracle->Check(query, engine, merged);
  }
  *merge_us = Median(samples);
  return hepq::Status::OK();
}

/// scatter.overhead_ms: coordinator wall (timed outside RunScattered)
/// minus the slowest fragment's wall, which is all the engine reports.
double ScatterOverheadMs(const PassResult& pass) {
  std::vector<double> samples;
  for (const Execution& e : pass.executions) {
    samples.push_back(1e3 * (e.wall_s - e.output.wall_seconds));
  }
  return Median(samples);
}

}  // namespace

std::vector<Metric> RunTraced(const RunContext& context,
                              const std::string& spans_path) {
  const Workload& workload = *context.workload;
  Oracle* oracle = context.oracle;
  const int width = ParallelWidth();
  Tracer tracer;

  // End-to-end wall with and without spans: the tracing overhead.
  const PassResult untraced =
      RunPass(workload.queries, context.execute, oracle);
  std::printf("untraced pass: wall %.4f s\n", untraced.wall_s);
  const PassResult traced =
      TracedPass("traced", workload, context.execute, oracle, &tracer);

  // In-process passes at 1 and at `width` threads over the same dataset
  // and cache: the parallel efficiency, and the 1-thread walls that the
  // serial replays are subtracted from. A pass the workload already ran
  // in that shape is reused. Replaying inside the 1-thread pass would
  // pair each subtraction in time, but it changes the heap the next
  // execution starts from and slows the doc frontend by about a third, so
  // the replays run afterwards and drift shows up in the sanity check.
  const bool in_process = !workload.scatter;
  PassResult serial_owned, parallel_owned;
  const PassResult* serial = &traced;
  const PassResult* parallel = &traced;
  if (!in_process || workload.threads != 1) {
    serial_owned = TracedPass(
        "serial", workload,
        InProcessExecutor(context.dataset.path, 1, context.cache), oracle,
        &tracer);
    serial = &serial_owned;
  }
  if (!in_process || workload.threads != width) {
    parallel_owned = TracedPass(
        "parallel", workload,
        InProcessExecutor(context.dataset.path, width, context.cache), oracle,
        &tracer);
    parallel = &parallel_owned;
  }

  // Replay every serial execution's reads (and doc boxing).
  double read_s[kNumFrontends] = {}, box_s = 0.0;
  double replay_decoded[kNumFrontends] = {}, run_decoded[kNumFrontends] = {};
  std::set<ChunkId> chunks;
  const int replay_span = tracer.Begin("replay", -1);
  for (const Execution& e : serial->executions) {
    const int f = FrontendIndex(e.engine);
    hepq::Result<Replay> replay = ReplayExecution(
        e, context, &tracer,
        tracer.Begin("replay " + ExecutionName(e.query, e.engine), replay_span),
        &chunks);
    if (!replay.ok()) {
      oracle->RecordFailure("replay of " + ExecutionName(e.query, e.engine) +
                            ": " + replay.status().ToString());
      continue;
    }
    read_s[f] += replay->read_s;
    box_s += replay->box_s;
    replay_decoded[f] += static_cast<double>(replay->decoded_bytes);
    run_decoded[f] += static_cast<double>(e.output.scan.decoded_bytes);
  }
  tracer.End(replay_span);
  for (int f = 0; f < kNumFrontends; ++f) {
    std::printf(
        "replay %s: read %.4f s, decoded %.0f B (the run decoded %.0f B)\n",
        FrontendName(kFrontends[f]), read_s[f], replay_decoded[f],
        run_decoded[f]);
  }

  DecodeStages stages;
  const hepq::Status decode_status =
      MeasureDecodeStages(context, chunks, &stages);
  if (!decode_status.ok()) {
    oracle->RecordFailure("decode stages: " + decode_status.ToString());
  }
  if (stages.crc_mismatches != 0) {
    oracle->RecordFailure(std::to_string(stages.crc_mismatches) +
                          " page checksums did not match");
  }

  double generate_eps = 0.0, write_eps = 0.0;
  const hepq::Status datagen_status =
      MeasureDatagen(context, &generate_eps, &write_eps);
  if (!datagen_status.ok()) {
    oracle->RecordFailure("datagen probe: " + datagen_status.ToString());
  }

  // Scatter: the workload's own multi-process pass, or else one
  // bigquery-frontend RunScattered per query over this dataset.
  const int procs =
      std::min<int>(width, static_cast<int>(context.dataset.files.size()));
  PassResult scatter_pass;
  if (workload.scatter) {
    scatter_pass = traced;
  } else {
    const ExecuteFn scatter =
        ScatterExecutor(context.self_exe, context.dataset, procs);
    const int span = tracer.Begin("scatter", -1);
    for (int query : workload.queries) {
      Execution e;
      e.query = query;
      e.engine = EngineKind::kBigQueryShape;
      const double t0 = NowSeconds();
      hepq::Result<QueryRunOutput> result = scatter(query, e.engine);
      e.wall_s = NowSeconds() - t0;
      e.passed = oracle->Check(query, e.engine, result);
      if (result.ok()) e.output = std::move(*result);
      scatter_pass.executions.push_back(std::move(e));
    }
    tracer.End(span);
  }
  double merge_us = 0.0;
  const hepq::Status merge_status =
      MeasureMerge(context, procs, oracle, &merge_us);
  if (!merge_status.ok()) {
    oracle->RecordFailure("merge probe: " + merge_status.ToString());
  }

  // Subtraction-derived self times, from the 1-thread walls.
  const FrontendTotals serial_sums = Totals(*serial);
  const FrontendTotals parallel_sums = Totals(*parallel);
  auto per_event = [&](double seconds, int f) {
    return serial_sums.events[f] > 0 ? 1e9 * seconds / serial_sums.events[f]
                                     : 0.0;
  };
  const int rdf = 0, bq = 1, presto = 2, doc = 3;
  const double rdf_self = per_event(serial_sums.wall_s[rdf] - read_s[rdf], rdf);
  const double bq_self = per_event(serial_sums.wall_s[bq] - read_s[bq], bq);
  const double presto_self =
      per_event(serial_sums.wall_s[presto] - read_s[presto], presto);
  const double doc_box = per_event(box_s, doc);
  const double doc_flwor =
      per_event(serial_sums.wall_s[doc] - read_s[doc] - box_s, doc);
  int untrusted = 0;
  auto sanity = [&](const char* name, double self_ns, int f) {
    const double wall_ns = per_event(serial_sums.wall_s[f], f);
    if (self_ns < 0 || self_ns > wall_ns) {
      ++untrusted;
      std::printf("UNTRUSTED %s = %.1f ns/event (frontend wall %.1f ns/event): "
                  "the replay does not match the frontend's read\n",
                  name, self_ns, wall_ns);
    }
  };
  sanity("rdf.self_ns_per_event", rdf_self, rdf);
  sanity("engine.bigquery_self_ns_per_event", bq_self, bq);
  sanity("engine.presto_self_ns_per_event", presto_self, presto);
  sanity("doc.flwor_ns_per_event", doc_flwor, doc);

  hepq::ScanStats scan;
  for (const Execution& e : traced.executions) scan.Add(e.output.scan);
  auto ratio = [](double part, double whole) {
    return whole > 0 ? part / whole : 0.0;
  };
  double all_read_s = 0.0, all_events = 0.0;
  for (int f = 0; f < kNumFrontends; ++f) {
    all_read_s += read_s[f];
    all_events += serial_sums.events[f];
  }

  std::vector<Metric> metrics = {
      {"fileio.open_us", OpenMicros(context.dataset), "us"},
      {"fileio.read_ns_per_event",
       all_events > 0 ? 1e9 * all_read_s / all_events : 0.0, "ns"},
      {"fileio.crc_mb_per_s", ratio(stages.crc_bytes / 1e6, stages.crc_s),
       "MB/s"},
      {"fileio.decompress_mb_per_s",
       ratio(stages.decompress_bytes / 1e6, stages.decompress_s), "MB/s"},
  };
  for (const char* encoding : {"plain", "rle", "bitpack", "delta"}) {
    const auto it = stages.decode.find(encoding);
    if (it == stages.decode.end()) {
      std::printf("no %s-encoded chunk was replayed\n", encoding);
    }
    metrics.push_back(
        {std::string("fileio.decode_mb_per_s.") + encoding,
         it == stages.decode.end()
             ? 0.0
             : ratio(it->second.second / 1e6, it->second.first),
         "MB/s"});
  }
  const auto count = [](uint64_t n) { return static_cast<double>(n); };
  metrics.push_back(
      {"fileio.rows_pruned_ratio",
       ratio(count(scan.rows_pruned), count(scan.rows_pruned + scan.rows_read)),
       "fraction"});
  metrics.push_back({"fileio.pages_pruned_ratio",
                     ratio(count(scan.pages_pruned),
                           count(scan.pages_pruned + scan.pages_read)),
                     "fraction"});
  metrics.push_back({"fileio.write_events_per_s", write_eps, "1/s"});
  metrics.push_back(
      {"cache.chunk_hit_ratio",
       ratio(count(scan.chunk_cache_hits),
             count(scan.chunk_cache_hits + scan.chunk_cache_misses)),
       "fraction"});
  metrics.push_back({"cache.get_mb_per_s", CacheGetMbPerS(stages), "MB/s"});
  for (int f = 0; f < kNumFrontends; ++f) {
    metrics.push_back(
        {std::string("exec.parallel_efficiency.") + FrontendName(kFrontends[f]),
         ratio(serial_sums.wall_s[f], width * parallel_sums.wall_s[f]),
         "fraction"});
  }
  metrics.push_back({"exec.dispatch_us", DispatchMicros(width), "us"});
  metrics.push_back({"engine.bigquery_self_ns_per_event", bq_self, "ns"});
  metrics.push_back({"engine.presto_self_ns_per_event", presto_self, "ns"});
  metrics.push_back({"rdf.self_ns_per_event", rdf_self, "ns"});
  metrics.push_back({"doc.box_ns_per_event", doc_box, "ns"});
  metrics.push_back({"doc.flwor_ns_per_event", doc_flwor, "ns"});
  metrics.push_back({"core.hist_fill_ns", HistFillNs(*serial), "ns"});
  metrics.push_back(
      {"scatter.overhead_ms", ScatterOverheadMs(scatter_pass), "ms"});
  metrics.push_back({"scatter.merge_us", merge_us, "us"});
  metrics.push_back({"datagen.events_per_s", generate_eps, "1/s"});
  metrics.push_back(
      {"trace.overhead_s", traced.wall_s - untraced.wall_s, "s"});
  metrics.push_back({"trace.untrusted_self_count",
                     static_cast<double>(untrusted), "count"});
  tracer.Write(spans_path);
  return metrics;
}

}  // namespace hepbench
