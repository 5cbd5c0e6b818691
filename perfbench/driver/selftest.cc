// Faithfulness tests for the benchmark's composed workloads: each must
// reproduce the repository's own reference path for the same
// configuration, with and without the probes, so the decorators and the
// event hook provably leave the simulation unchanged. They run a short
// mode on the held-out seeds (see Workloads()), so later claims can be
// checked on seeds the benchmark was not tuned on.

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bench_util.h"
#include "probes.h"
#include "workloads.h"

namespace perfbench {
namespace {

uint64_t HeldOutSeed(const char* workload) {
  const WorkloadInfo* info = FindWorkload(workload);
  EXPECT_NE(info, nullptr);
  return info == nullptr ? 0 : info->heldout_seed;
}

uint64_t BaselineSeed(const char* workload) {
  const WorkloadInfo* info = FindWorkload(workload);
  EXPECT_NE(info, nullptr);
  return info == nullptr ? 0 : info->baseline_seed;
}

std::string Dirname(const std::string& path) {
  return path.substr(0, path.find_last_of('/'));
}

// Runs `command` and returns its stdout.
std::string Capture(const std::string& command) {
  std::string out;
  FILE* pipe = popen(command.c_str(), "r");
  EXPECT_NE(pipe, nullptr) << command;
  if (pipe == nullptr) return out;
  char buffer[4096];
  size_t n = 0;
  while ((n = fread(buffer, 1, sizeof(buffer), pipe)) > 0) out.append(buffer, n);
  EXPECT_EQ(pclose(pipe), 0) << command;
  return out;
}

pstore::bench::EngineRunConfig ReferenceConfig(const EngineConfig& config) {
  // The reference ties the trace seed to the transaction-stream seed.
  EXPECT_EQ(config.trace_seed, config.seed);
  pstore::bench::EngineRunConfig reference;
  reference.spec.seed = config.seed;
  reference.training_days = kEngineTrainingDays;
  reference.replay_days = config.replay_days;
  reference.nodes = kEngineInitialNodes;
  reference.scale = config.scale;
  reference.black_friday_day = config.black_friday_day;
  reference.faults = config.faults;
  return reference;
}

void ExpectMatchesReference(const EngineConfig& config) {
  const pstore::bench::EngineRunResult reference =
      pstore::bench::RunEngineExperiment(ReferenceConfig(config));
  const Outcome untraced = RunEngine(config, Mode::kUntraced);
  const Outcome traced = RunEngine(config, Mode::kTraced);
  EXPECT_TRUE(untraced.failures.empty());
  EXPECT_TRUE(traced.failures.empty());
  EXPECT_EQ(untraced.digest.Hex(), traced.digest.Hex());
  for (const Outcome* run : {&untraced, &traced}) {
    const EngineSummary& got = run->engine;
    EXPECT_EQ(got.committed, reference.committed);
    EXPECT_EQ(got.aborted, reference.aborted);
    EXPECT_EQ(got.unavailable, reference.unavailable);
    EXPECT_EQ(got.violations.p50, reference.violations.p50);
    EXPECT_EQ(got.violations.p95, reference.violations.p95);
    EXPECT_EQ(got.violations.p99, reference.violations.p99);
    EXPECT_EQ(got.avg_machines, reference.avg_machines);
    EXPECT_EQ(got.reconfigurations, reference.reconfigurations);
    EXPECT_EQ(got.failed_reconfigurations, reference.failed_reconfigurations);
    EXPECT_EQ(got.chunk_retries, reference.chunk_retries);
  }
}

// The engine workloads at the held-out seed, with the trace generated
// from that seed as well so the reference can express the run.
EngineConfig OnHeldOutTrace(EngineConfig config) {
  config.trace_seed = config.seed;
  return config;
}

TEST(Faithfulness, B2wReplayMatchesRunEngineExperiment) {
  // One replayed day, the length the benchmark runs.
  EngineConfig config = B2wReplayConfig(HeldOutSeed("b2w_replay"));
  ExpectMatchesReference(OnHeldOutTrace(config));
}

TEST(Faithfulness, B2wReplayBaselineSeedIsFig09Run) {
  // At the baseline seed the benchmark's own configuration is the
  // reference's (trace and stream both from seed 42).
  const EngineConfig config = B2wReplayConfig(BaselineSeed("b2w_replay"));
  ASSERT_EQ(config.trace_seed, config.seed);
  ExpectMatchesReference(config);
}

TEST(Faithfulness, CrashDrillMatchesRunEngineExperiment) {
  ExpectMatchesReference(
      OnHeldOutTrace(CrashDrillConfig(HeldOutSeed("bf_crash_drill"))));
}

TEST(Faithfulness, CrashDrillBenchmarkRunIsUnchangedByProbes) {
  // The benchmark's own configuration at the held-out seed: fixed trace,
  // held-out transaction stream.
  const EngineConfig config = CrashDrillConfig(HeldOutSeed("bf_crash_drill"));
  const Outcome untraced = RunEngine(config, Mode::kUntraced);
  const Outcome traced = RunEngine(config, Mode::kTraced);
  EXPECT_TRUE(untraced.failures.empty());
  EXPECT_TRUE(traced.failures.empty());
  EXPECT_EQ(untraced.digest.Hex(), traced.digest.Hex());
  EXPECT_GT(traced.layers.at("migration.chunk_retries"), 0.0);
  EXPECT_GT(traced.layers.at("fault.unavailable_txns"), 0.0);
}

TEST(Faithfulness, FleetMatchesPstoreFleetCsv) {
  // Short mode: 200 tenants over 3 days.
  FleetConfig config;
  config.seed = HeldOutSeed("fleet_1000");
  config.tenants = 200;
  config.days = 3;
  const Outcome untraced = RunFleet(config, Mode::kUntraced);
  const Outcome traced = RunFleet(config, Mode::kTraced);
  EXPECT_TRUE(untraced.failures.empty());
  EXPECT_TRUE(traced.failures.empty());

  const std::string csv_path =
      Dirname(PERFBENCH_REF_FLEET) + "/selftest_fleet.csv";
  Capture(std::string(PERFBENCH_REF_FLEET) + " --tenants=200 --days=3" +
          " --threads=1 --seed=" + std::to_string(config.seed) +
          " --csv-out=" + csv_path);
  std::ifstream file(csv_path);
  std::stringstream reference;
  reference << file.rdbuf();
  ASSERT_FALSE(reference.str().empty());
  EXPECT_EQ(untraced.csv, reference.str());
  EXPECT_EQ(traced.csv, reference.str());
}

TEST(Faithfulness, CapacitySweepMatchesFig12) {
  // fig12 runs the baseline seed only; it prints one line per spec:
  //   <strategy> <knob> cost=<%12.0f>  insufficient=<%7.3f>%
  const Outcome traced =
      RunCapacity(BaselineSeed("capacity_sweep"), Mode::kTraced);
  EXPECT_TRUE(traced.failures.empty());
  const std::string out =
      Capture("cd " + Dirname(PERFBENCH_REF_FIG12) + " && " +
              PERFBENCH_REF_FIG12 + " --threads=1");
  std::vector<std::string> reference;
  std::istringstream lines(out);
  for (std::string line; std::getline(lines, line);) {
    if (line.find(" cost=") != std::string::npos) reference.push_back(line);
  }
  ASSERT_EQ(reference.size(), traced.sweep_labels.size());
  for (size_t i = 0; i < reference.size(); ++i) {
    char expected[128];
    std::snprintf(expected, sizeof(expected), "cost=%12.0f  insufficient=%7.3f%%",
                  traced.sweep_cost[i],
                  100.0 * traced.sweep_insufficient_fraction[i]);
    EXPECT_NE(reference[i].find(traced.sweep_labels[i]), std::string::npos)
        << reference[i];
    EXPECT_NE(reference[i].find(expected), std::string::npos)
        << reference[i] << " vs " << expected;
  }
}

TEST(Faithfulness, CapacitySweepTracedMatchesUntracedOnHeldOutSeed) {
  const uint64_t seed = HeldOutSeed("capacity_sweep");
  const Outcome untraced = RunCapacity(seed, Mode::kUntraced);
  const Outcome traced = RunCapacity(seed, Mode::kTraced);
  EXPECT_TRUE(untraced.failures.empty());
  EXPECT_TRUE(traced.failures.empty());
  EXPECT_EQ(untraced.csv, traced.csv);
  EXPECT_EQ(untraced.digest.Hex(), traced.digest.Hex());
  EXPECT_GT(traced.layers.at("planner.plans"), 0.0);
  EXPECT_GT(traced.layers.at("prediction.forecast_calls"), 0.0);
}

TEST(Probes, TailLeavesTenSamplesAbove) {
  std::vector<double> values;
  for (int i = 1; i <= 100; ++i) values.push_back(i);
  const Tail tail = TailOf(values);
  EXPECT_EQ(tail.percentile, 90.0);
  EXPECT_EQ(tail.value, 90.0);
  EXPECT_EQ(tail.n, 100);
  EXPECT_EQ(TailOf({1.0, 2.0}).percentile, 0.0);
  EXPECT_EQ(Median({3.0, 1.0, 2.0}), 2.0);
}

TEST(Probes, SelfTimeSubtractsChildren) {
  Spans spans;
  const int parent = spans.Begin("parent");
  const int child = spans.Begin("child");
  spans.End(child);
  spans.End(parent);
  const auto& all = spans.spans();
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(all[child].parent, parent);
  const double parent_s = (all[parent].end_ns - all[parent].start_ns) * 1e-9;
  const double child_s = (all[child].end_ns - all[child].start_ns) * 1e-9;
  EXPECT_NEAR(spans.TotalSelfSeconds("parent"), parent_s - child_s, 1e-12);
}

}  // namespace
}  // namespace perfbench
