// Negative controls for the benchmark's correctness oracle: a wrong
// histogram and an erroring query must each count as a failed execution,
// for seeds with committed digests and for seeds that fall back to
// cross-frontend agreement.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "harness.h"

namespace hepbench {
namespace {

using hepq::Histogram1D;
using hepq::queries::RunAdlQuery;

constexpr char kDataDir[] = "hepbench_test_data";

/// Removes the generated dataset when the test program ends.
class RemoveTestData : public ::testing::Environment {
 public:
  void TearDown() override { std::filesystem::remove_all(kDataDir); }
};
::testing::Environment* const kRemoveTestData =
    ::testing::AddGlobalTestEnvironment(new RemoveTestData);

/// A small seeded dataset in the test's working directory.
const Dataset& TinyDataset() {
  static const Dataset dataset = [] {
    Workload workload;
    workload.num_shards = 1;
    workload.events_per_shard = 2000;
    workload.row_group_size = 500;
    auto generated = GenerateDataset(workload, 7, kDataDir);
    generated.status().Check();
    return *generated;
  }();
  return dataset;
}

QueryRunOutput RunQuery(EngineKind engine, int query) {
  auto result = RunAdlQuery(engine, query, TinyDataset().path);
  result.status().Check();
  return *result;
}

/// `output` with one unit added to bin `bin` of its first histogram.
QueryRunOutput PerturbBin(QueryRunOutput output, int bin) {
  hepq::HistogramParts parts = output.histograms[0].ToParts();
  parts.bins[static_cast<size_t>(bin)] += 1.0;
  output.histograms[0] = *Histogram1D::FromParts(parts);
  return output;
}

TEST(OracleTest, CommittedDigestAcceptsTheRightHistogram) {
  const QueryRunOutput rdf = RunQuery(EngineKind::kRdf, 1);
  Oracle oracle({{1, BinsDigest(rdf.histograms)}});
  EXPECT_TRUE(oracle.Check(1, EngineKind::kRdf, rdf));
  EXPECT_TRUE(oracle.Check(1, EngineKind::kDoc, RunQuery(EngineKind::kDoc, 1)));
  EXPECT_EQ(oracle.attempted(), 2);
  EXPECT_EQ(oracle.failed(), 0);
}

TEST(OracleTest, PerturbedBinCountsAsFailed) {
  const QueryRunOutput rdf = RunQuery(EngineKind::kRdf, 1);
  Oracle oracle({{1, BinsDigest(rdf.histograms)}});
  EXPECT_FALSE(oracle.Check(1, EngineKind::kRdf, PerturbBin(rdf, 10)));
  EXPECT_EQ(oracle.attempted(), 1);
  EXPECT_EQ(oracle.failed(), 1);
}

TEST(OracleTest, ErroringQueryCountsAsFailed) {
  Oracle oracle({});
  const auto invalid = RunAdlQuery(EngineKind::kRdf, 9, TinyDataset().path);
  ASSERT_FALSE(invalid.ok());
  EXPECT_FALSE(oracle.Check(9, EngineKind::kRdf, invalid));
  const auto missing = RunAdlQuery(EngineKind::kBigQueryShape, 1,
                                   std::string(kDataDir) + "/none.laq");
  EXPECT_FALSE(oracle.Check(1, EngineKind::kBigQueryShape, missing));
  EXPECT_EQ(oracle.failed(), 2);
  EXPECT_NE(oracle.first_failure().find("returned an error"),
            std::string::npos);
}

TEST(OracleTest, WithoutDigestsFrontendsAreCheckedAgainstEachOther) {
  Oracle oracle({});
  EXPECT_FALSE(oracle.has_committed());
  EXPECT_TRUE(oracle.Check(3, EngineKind::kRdf, RunQuery(EngineKind::kRdf, 3)));
  EXPECT_TRUE(oracle.Check(3, EngineKind::kPrestoShape,
                           RunQuery(EngineKind::kPrestoShape, 3)));
  EXPECT_FALSE(oracle.Check(
      3, EngineKind::kBigQueryShape,
      PerturbBin(RunQuery(EngineKind::kBigQueryShape, 3), 0)));
  EXPECT_EQ(oracle.failed(), 1);
}

TEST(OracleTest, SameFrontendMustRepeatEveryBit) {
  const QueryRunOutput first = RunQuery(EngineKind::kBigQueryShape, 2);
  Oracle oracle({});
  EXPECT_TRUE(oracle.Check(2, EngineKind::kBigQueryShape, first));
  // Same bins, different first moment: another frontend may round its
  // moments differently, the same frontend may not.
  QueryRunOutput moved = first;
  hepq::HistogramParts parts = moved.histograms[0].ToParts();
  parts.sum_wx = std::nextafter(parts.sum_wx, 0.0);
  moved.histograms[0] = *Histogram1D::FromParts(parts);
  EXPECT_TRUE(oracle.Check(2, EngineKind::kRdf, moved));
  EXPECT_FALSE(oracle.Check(2, EngineKind::kBigQueryShape, moved));
  EXPECT_EQ(oracle.failed(), 1);
}

TEST(OracleTest, PassCountsFailuresAgainstAttempts) {
  const QueryRunOutput reference = RunQuery(EngineKind::kRdf, 1);
  Oracle oracle({{1, BinsDigest(reference.histograms)}});
  const ExecuteFn real =
      InProcessExecutor(TinyDataset().path, 1, /*cache=*/nullptr);
  const ExecuteFn faulty = [&](int query, EngineKind engine)
      -> hepq::Result<QueryRunOutput> {
    if (engine == EngineKind::kPrestoShape) {
      return hepq::Status::IoError("injected failure");
    }
    if (engine == EngineKind::kDoc) return PerturbBin(reference, 42);
    return real(query, engine);
  };
  const PassResult pass = RunPass({1}, faulty, &oracle);
  ASSERT_EQ(pass.executions.size(), 4u);
  EXPECT_EQ(oracle.attempted(), 4);
  EXPECT_EQ(oracle.failed(), 2);
  EXPECT_TRUE(pass.executions[0].passed);
  EXPECT_TRUE(pass.executions[1].passed);
  EXPECT_FALSE(pass.executions[2].passed);
  EXPECT_FALSE(pass.executions[3].passed);
  EXPECT_NE(ResultJson(oracle, {}).find("\"correct\": false"),
            std::string::npos);
}

TEST(OracleTest, FailedLayerProbeCountsAsFailed) {
  Oracle oracle({});
  EXPECT_TRUE(oracle.Check(1, EngineKind::kRdf, RunQuery(EngineKind::kRdf, 1)));
  oracle.RecordFailure("merge probe: injected");
  EXPECT_EQ(oracle.attempted(), 2);
  EXPECT_EQ(oracle.failed(), 1);
  EXPECT_EQ(oracle.first_failure(), "merge probe: injected");
}

TEST(OracleTest, LoadsOnlyTheMatchingSeedAndDataset) {
  const std::string path = "hepbench_test_digests.txt";
  {
    std::ofstream out(path);
    out << "# seed dataset query digest\n"
        << "7 1x2000ev_500rg 1 00000000000000ab\n"
        << "7 1x2000ev_500rg 2 00000000000000cd\n"
        << "8 1x2000ev_500rg 1 00000000000000ef\n"
        << "7 8x25000ev_25000rg 1 0000000000000011\n";
  }
  const auto digests = LoadDigests(path, 7, "1x2000ev_500rg");
  ASSERT_EQ(digests.size(), 2u);
  EXPECT_EQ(digests.at(1), 0xabu);
  EXPECT_EQ(digests.at(2), 0xcdu);
  EXPECT_TRUE(LoadDigests(path, 9, "1x2000ev_500rg").empty());
  EXPECT_TRUE(LoadDigests("no_such_file.txt", 7, "1x2000ev_500rg").empty());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace hepbench
