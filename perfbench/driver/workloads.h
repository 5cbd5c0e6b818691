#ifndef PERFBENCH_DRIVER_WORKLOADS_H_
#define PERFBENCH_DRIVER_WORKLOADS_H_

// The benchmark's four workloads, each composed from the public classes
// in src/ the way the repository's own benches and tools compose them:
//
//   b2w_replay      fig09's P-Store (SPAR) engine replay of B2W
//   bf_crash_drill  ext_chaos_drill's crash+recover Black-Friday replay
//   fleet_1000      pstore_fleet --tenants=1000 --mode=both, serial
//   capacity_sweep  fig12's 26-spec strategy sweep over 77 days, serial
//
// Every run is one process, one thread. A run is split into set-up (all
// host work before the first simulated event) and the run proper (until
// the results are in hand). Untraced runs hand the program exactly what
// the reference composition hands it; traced runs add the outside-in
// probes of probes.h and report per-layer metrics.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "engine/metrics.h"
#include "fault/fault_schedule.h"
#include "probes.h"

namespace perfbench {

enum class Mode {
  kUntraced,   // set-up + run, no probes
  kTraced,     // set-up + run with probes and per-layer metrics
  kSetupOnly,  // set-up only (extra set-up samples)
};

struct WorkloadInfo {
  const char* name;
  // What one unit of work_per_s counts on this workload.
  const char* work_unit;
  // The seed the workload's reference run uses, and a held-out seed the
  // benchmark was not tuned on (the self-test runs on it).
  uint64_t baseline_seed;
  uint64_t heldout_seed;
};

const std::vector<WorkloadInfo>& Workloads();
const WorkloadInfo* FindWorkload(const std::string& name);

// Headline numbers of an engine run, as bench::EngineRunResult reports
// them, for the faithfulness tests.
struct EngineSummary {
  int64_t committed = 0;
  int64_t aborted = 0;
  int64_t unavailable = 0;
  pstore::SlaViolations violations;
  double avg_machines = 0.0;
  int reconfigurations = 0;
  int failed_reconfigurations = 0;
  int64_t chunk_retries = 0;
};

// One repetition of a workload.
struct Outcome {
  double setup_s = 0.0;
  double run_s = 0.0;
  // Simulated work done during run_s, in the workload's work_unit.
  double work = 0.0;
  double sim_machine_hours = 0.0;
  double sim_sla_violations = 0.0;
  double sim_unavailable_frac = 0.0;
  // Digest of every simulated output of the run.
  Digest digest;
  // Output checks that failed (empty = the run is correct).
  std::vector<std::string> failures;
  // Traced runs only: per-layer metrics by name, and the span tree.
  std::map<std::string, double> layers;
  std::string spans_jsonl;
  // For the faithfulness tests.
  EngineSummary engine;
  std::string csv;  // FleetCsvRows (fleet) or SweepCsvRows (capacity)
  std::vector<std::string> sweep_labels;  // capacity: by spec index
  std::vector<double> sweep_cost;
  std::vector<double> sweep_insufficient_fraction;
};

// ---- Workload configurations --------------------------------------------

// The engine workloads replay one fixed trace (the reference run's,
// trace_seed 42) and take the benchmark seed as the seed of the
// transaction stream: arrivals and the transaction mix. A seed thus
// varies the inputs without varying the scenario's size, so run-to-run
// spread measures the host and not the day-to-day load. With
// trace_seed == seed the configuration is exactly
// bench::EngineRunConfig's for that seed.
struct EngineConfig {
  uint64_t trace_seed = 42;
  uint64_t seed = 42;
  int replay_days = 1;
  double scale = 1.0;
  int black_friday_day = -1;
  std::vector<pstore::FaultEvent> faults;
};

// Both engine workloads train on 28 days and start on 4 nodes, as
// bench::EngineRunConfig does by default.
constexpr int kEngineTrainingDays = 28;
constexpr int kEngineInitialNodes = 4;

// fig09's P-Store (SPAR) run with transaction-stream seed `seed`, one
// replayed day.
EngineConfig B2wReplayConfig(uint64_t seed);
// ext_chaos_drill's crash+recover run with transaction-stream seed
// `seed`: 2 replay days at half scale, Black Friday on the second, node 5
// down at t=12240 s for 600 s.
EngineConfig CrashDrillConfig(uint64_t seed);

struct FleetConfig {
  uint64_t seed = 17;
  int tenants = 1000;
  int days = 4;
};

Outcome RunEngine(const EngineConfig& config, Mode mode);
Outcome RunFleet(const FleetConfig& config, Mode mode);
// fig12's sweep: 77 days from trace seed `seed`, 28 of them training,
// Black Friday on day 70.
Outcome RunCapacity(uint64_t seed, Mode mode);

// The benchmark's size of workload `name` at `seed`.
Outcome RunWorkload(const std::string& name, uint64_t seed, Mode mode);

}  // namespace perfbench

#endif  // PERFBENCH_DRIVER_WORKLOADS_H_
