// perfbench_driver: runs one benchmark workload for a fixed host-time
// budget and prints its metrics.
//
//   perfbench_driver --workload=b2w_replay [--seed=42] --seconds=10
//       --trace=0 [--out-dir=DIR]
//   perfbench_driver --list
//
// --seed defaults to the workload's baseline seed. --list prints one line
// per workload: name, baseline seed, held-out seed.
//
// --trace=0 repeats untraced runs until --seconds have passed and reports
// the end-to-end metrics (medians over the repetitions; set-up is sampled
// in batches between them, at least kMinSetupBatches times). --trace=1
// spends half the budget on untraced and half on traced repetitions and reports the per-layer
// metrics of the traced ones, plus the tracing overhead. Every
// repetition is checked; the simulated-output digest must agree across
// all of them, traced or not. The last line of stdout is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/flags.h"
#include "common/status.h"
#include "probes.h"
#include "workloads.h"

namespace {

using perfbench::Median;
using perfbench::Mode;
using perfbench::Outcome;

// Set-up sampling (--trace=0): after each repetition, batches of
// set-up-only runs for about kSetupSliceSeconds, each batch lasting about
// kSetupBatchSeconds (and holding at least one run); at least
// kMinSetupBatches batches per invocation.
constexpr double kSetupSliceSeconds = 0.05;
constexpr double kSetupBatchSeconds = 0.00625;
constexpr size_t kMinSetupBatches = 5;

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Reported with --trace=0 (BENCHMARK.json "end_to_end").
const MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"run_s", "s"},
    {"work_per_s", "1/s"},
    {"peak_rss_mb", "MB"},
    {"sim_machine_hours", "h"},
};

// Reported with --trace=1 (BENCHMARK.json "per_layer"). The last three
// are simulated outcomes that can be zero on some workloads, which the
// end-to-end set may not hold; the --trace=0 table prints them as well.
const MetricSpec kPerLayer[] = {
    {"trace.build_s", "s"},
    {"b2w.load_s", "s"},
    {"b2w.rows_loaded", "count"},
    {"b2w.next_txn_ns", "ns"},
    {"b2w.next_txn_calls", "count"},
    {"engine.tick_s", "s"},
    {"engine.submit_ns", "ns"},
    {"engine.partition_get_ns", "ns"},
    {"engine.partition_get_hit_frac", "frac"},
    {"engine.finalize_s", "s"},
    {"engine.events", "count"},
    {"engine.tick_events", "count"},
    {"engine.txn_submitted", "count"},
    {"engine.txn_committed", "count"},
    {"engine.txn_aborted", "count"},
    {"engine.txn_unavailable", "count"},
    {"engine.partition_util_mean", "frac"},
    {"engine.partition_util_max", "frac"},
    {"migration.event_s", "s"},
    {"migration.chunks", "count"},
    {"migration.chunk_retries", "count"},
    {"migration.bytes_moved", "B"},
    {"migration.reconfigs_completed", "count"},
    {"migration.reconfigs_failed", "count"},
    {"migration.reconfig_success_frac", "frac"},
    {"fault.events", "count"},
    {"fault.unavailable_txns", "count"},
    {"controller.cycle_s", "s"},
    {"controller.cycles", "count"},
    {"controller.plans", "count"},
    {"prediction.fit_s", "s"},
    {"prediction.fit_calls", "count"},
    {"prediction.forecast_us.p50", "us"},
    {"prediction.forecast_us.tail", "us"},
    {"prediction.forecast_us.tail_pct", "pct"},
    {"prediction.forecast_us.tail_n", "count"},
    {"prediction.forecast_calls", "count"},
    {"prediction.update_s", "s"},
    {"planner.plan_us.p50", "us"},
    {"planner.plan_us.tail", "us"},
    {"planner.plan_us.tail_pct", "pct"},
    {"planner.plan_us.tail_n", "count"},
    {"planner.plans", "count"},
    {"planner.infeasible_frac", "frac"},
    {"sim.self_s", "s"},
    {"sim.cycles", "count"},
    {"fleet.setup_s", "s"},
    {"fleet.simulate_fleet_s", "s"},
    {"fleet.simulate_dedicated_s", "s"},
    {"fleet.cycles", "count"},
    {"fleet.packs", "count"},
    {"fleet.repacks", "count"},
    {"fleet.spike_replans", "count"},
    {"fleet.partition_moves", "count"},
    {"obs.trace_events", "count"},
    {"obs.trace_overhead_frac", "frac"},
    {"sim_sla_violations", "count"},
    {"sim_unavailable_frac", "frac"},
    {"check_fail_frac", "frac"},
};

int Fail(const std::string& message) {
  std::fprintf(stderr, "perfbench: error: %s\n", message.c_str());
  return 2;
}

bool Optimized() {
#if defined(__OPTIMIZE__)
  return true;
#else
  return false;
#endif
}

bool Ndebug() {
#if defined(NDEBUG)
  return true;
#else
  return false;
#endif
}

// Hardware threads, compiler, effective build type (read from this
// binary's own compile flags) and the load average at start.
std::string HostFingerprint() {
  double load[3] = {-1.0, -1.0, -1.0};
  if (getloadavg(load, 3) != 3) load[0] = load[1] = load[2] = -1.0;
#if defined(__clang__)
  const char* compiler = "clang";
#elif defined(__GNUC__)
  const char* compiler = "gcc";
#else
  const char* compiler = "unknown";
#endif
  char text[512];
  std::snprintf(text, sizeof(text),
                "{\"hardware_threads\":%u,\"compiler\":\"%s %s\","
                "\"optimized\":%s,\"ndebug\":%s,\"loadavg\":[%.2f,%.2f,%.2f]}",
                std::thread::hardware_concurrency(), compiler, __VERSION__,
                Optimized() ? "true" : "false", Ndebug() ? "true" : "false",
                load[0], load[1], load[2]);
  return text;
}

double PeakRssMb() {
  struct rusage usage;
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// Returns the heap's free memory to the system, so that the next
// allocations land on freshly mapped pages. A run's speed depends on the
// physical pages its heap was given (fleet_1000's ~70 us set-up runs at
// either ~65 or ~95 us; its repetitions differ by up to ~10% between
// processes), and a heap keeps its pages for as long as it keeps its free
// memory. Calling this before every repetition and set-up batch makes one
// invocation sample many placements instead of the one its process drew.
void FreshHeapPages() {
#if defined(__GLIBC__)
  malloc_trim(0);
#endif
}

// The median of set-up-only runs repeated for about `seconds` (at least
// one), on fresh heap pages.
double SetupBatchMedian(const std::string& name, uint64_t seed,
                        double seconds) {
  FreshHeapPages();
  std::vector<double> samples;
  double total = 0.0;
  do {
    samples.push_back(
        perfbench::RunWorkload(name, seed, Mode::kSetupOnly).setup_s);
    total += samples.back();
  } while (total < seconds);
  return Median(samples);
}

void AppendMetric(std::string* json, const char* name, double value,
                  const char* unit) {
  char text[256];
  std::snprintf(text, sizeof(text), "%s\"%s\":{\"value\":%.17g,\"unit\":\"%s\"}",
                json->empty() ? "" : ",", name, value, unit);
  *json += text;
}

}  // namespace

int main(int argc, char** argv) {
  pstore::FlagParser flags;
  const pstore::Status parsed = flags.Parse(argc - 1, argv + 1);
  if (!parsed.ok()) return Fail(parsed.ToString());
  if (flags.GetBool("list", false)) {
    for (const perfbench::WorkloadInfo& info : perfbench::Workloads()) {
      std::printf("%s %llu %llu\n", info.name,
                  static_cast<unsigned long long>(info.baseline_seed),
                  static_cast<unsigned long long>(info.heldout_seed));
    }
    return 0;
  }
  const std::string name = flags.GetString("workload", "");
  const pstore::StatusOr<int64_t> seed = flags.GetInt("seed", -1);
  const pstore::StatusOr<double> seconds = flags.GetDouble("seconds", 10.0);
  const pstore::StatusOr<int64_t> trace = flags.GetInt("trace", 0);
  const std::string out_dir = flags.GetString("out-dir", "");
  for (const pstore::Status& status :
       {seed.status(), seconds.status(), trace.status()}) {
    if (!status.ok()) return Fail(status.ToString());
  }
  const perfbench::WorkloadInfo* info = perfbench::FindWorkload(name);
  if (info == nullptr) return Fail("unknown --workload '" + name + "'");
  if (*seed < -1) return Fail("--seed must be >= 0");
  const uint64_t run_seed =
      *seed < 0 ? info->baseline_seed : static_cast<uint64_t>(*seed);
  if (*seconds <= 0.0) return Fail("--seconds must be > 0");
  if (*trace != 0 && *trace != 1) return Fail("--trace must be 0 or 1");
  if (!Optimized()) {
    return Fail("refusing to report timings from an unoptimized build");
  }
  const bool traced = *trace == 1;
  const std::string host = HostFingerprint();
  std::printf("perfbench host: %s\n", host.c_str());
  std::printf("perfbench workload: %s seed %llu (baseline seed %llu, "
              "held-out seed %llu)\n",
              name.c_str(), static_cast<unsigned long long>(run_seed),
              static_cast<unsigned long long>(info->baseline_seed),
              static_cast<unsigned long long>(info->heldout_seed));
  std::fflush(stdout);

  // ---- Repetitions. ------------------------------------------------------
  const int64_t begin = perfbench::NowNs();
  auto elapsed = [begin] {
    return static_cast<double>(perfbench::NowNs() - begin) * 1e-9;
  };
  // Set-up batches (--trace=0). Host speed drifts over seconds, so the
  // batches are spread over the whole run rather than taken in one burst.
  // setup_s is the mean of the batch medians: the median drops outliers
  // within a batch, and the mean averages over the batches' page
  // placements, between which a median would flip.
  std::vector<double> setup_batches;
  auto sample_setups = [&] {
    const double slice_end = elapsed() + kSetupSliceSeconds;
    do {
      setup_batches.push_back(
          SetupBatchMedian(name, run_seed, kSetupBatchSeconds));
    } while (elapsed() < slice_end);
  };
  // Repeats `mode` runs within `budget` seconds: always one, then another
  // only while it would end mostly inside the budget.
  auto repeat = [&](Mode mode, double budget, std::vector<Outcome>* runs) {
    const double start = elapsed();
    double last = 0.0;
    do {
      const double before = elapsed();
      FreshHeapPages();
      runs->push_back(perfbench::RunWorkload(name, run_seed, mode));
      const Outcome& run = runs->back();
      std::printf("perfbench rep: %s setup_s %.6f run_s %.6f\n",
                  mode == Mode::kTraced ? "traced" : "untraced", run.setup_s,
                  run.run_s);
      if (!traced) sample_setups();
      last = elapsed() - before;
    } while (elapsed() - start + last / 2.0 < budget);
  };
  std::vector<Outcome> untraced_runs;
  std::vector<Outcome> traced_runs;
  repeat(Mode::kUntraced, traced ? *seconds / 2.0 : *seconds, &untraced_runs);
  if (traced) repeat(Mode::kTraced, *seconds / 2.0, &traced_runs);
  while (!traced && setup_batches.size() < kMinSetupBatches) {
    setup_batches.push_back(
        SetupBatchMedian(name, run_seed, kSetupBatchSeconds));
  }

  // ---- Checks: each run's own, plus one digest across all runs. ------------
  std::vector<Outcome*> all;
  for (Outcome& run : untraced_runs) all.push_back(&run);
  for (Outcome& run : traced_runs) all.push_back(&run);
  const std::string digest = all.front()->digest.Hex();
  int64_t failed = 0;
  for (Outcome* run : all) {
    if (run->digest.Hex() != digest) {
      run->failures.push_back(
          "simulated-output digest differs between repetitions");
    }
    for (const std::string& failure : run->failures) {
      std::printf("perfbench check failed: %s\n", failure.c_str());
    }
    if (!run->failures.empty()) ++failed;
  }
  const int64_t attempted = static_cast<int64_t>(all.size());
  const double check_fail_frac =
      static_cast<double>(failed) / static_cast<double>(attempted);
  std::printf("perfbench digest: %s\n", digest.c_str());
  std::printf("perfbench runs: %zu untraced, %zu traced, %zu set-up batches\n",
              untraced_runs.size(), traced_runs.size(), setup_batches.size());

  // ---- Metrics. ------------------------------------------------------------
  const Outcome& first = *all.front();
  std::vector<double> run_s;
  std::vector<double> work_per_s;
  for (const Outcome& run : untraced_runs) {
    run_s.push_back(run.run_s);
    work_per_s.push_back(run.work / run.run_s);
  }
  std::string metrics;
  if (!traced) {
    double setup_s = 0.0;
    for (const double median : setup_batches) setup_s += median;
    setup_s /= static_cast<double>(setup_batches.size());
    const double values[] = {setup_s, Median(run_s),
                             Median(work_per_s), PeakRssMb(),
                             first.sim_machine_hours};
    std::printf("perfbench end-to-end (work unit: %s):\n", info->work_unit);
    for (size_t i = 0; i < std::size(kEndToEnd); ++i) {
      std::printf("  %-22s %16.6f %s\n", kEndToEnd[i].name, values[i],
                  kEndToEnd[i].unit);
      AppendMetric(&metrics, kEndToEnd[i].name, values[i], kEndToEnd[i].unit);
    }
    std::printf("  %-22s %16.6f %s\n", "sim_sla_violations",
                first.sim_sla_violations, "count");
    std::printf("  %-22s %16.6f %s\n", "sim_unavailable_frac",
                first.sim_unavailable_frac, "frac");
    std::printf("  %-22s %16.6f %s\n", "check_fail_frac", check_fail_frac,
                "frac");
  } else {
    std::map<std::string, double> layers;
    for (const auto& [layer, value] : traced_runs.front().layers) {
      std::vector<double> samples;
      for (const Outcome& run : traced_runs) samples.push_back(run.layers.at(layer));
      layers[layer] = Median(samples);
    }
    std::vector<double> traced_setup_s;
    std::vector<double> traced_run_s;
    for (const Outcome& run : traced_runs) {
      traced_setup_s.push_back(run.setup_s);
      traced_run_s.push_back(run.run_s);
    }
    layers["obs.trace_overhead_frac"] =
        Median(traced_run_s) / Median(run_s) - 1.0;
    layers["sim_sla_violations"] = first.sim_sla_violations;
    layers["sim_unavailable_frac"] = first.sim_unavailable_frac;
    layers["check_fail_frac"] = check_fail_frac;
    std::printf("perfbench per-layer:\n");
    size_t reported = 0;
    for (const MetricSpec& spec : kPerLayer) {
      const auto it = layers.find(spec.name);
      const double value = it == layers.end() ? 0.0 : it->second;
      if (it != layers.end()) ++reported;
      std::printf("  %-34s %18.6f %s\n", spec.name, value, spec.unit);
      AppendMetric(&metrics, spec.name, value, spec.unit);
    }
    // Every metric a workload sets must be in the catalog (no typos).
    if (reported != layers.size()) {
      return Fail("a workload reported a per-layer metric missing from the "
                  "catalog");
    }
    // The two layer shares the benchmark's layer table states: driver
    // ticks in the run, and the predictor's warm-up fit in the set-up.
    auto share = [&layers](const char* layer, double total) {
      const auto it = layers.find(layer);
      return it == layers.end() || total <= 0.0 ? 0.0 : it->second / total;
    };
    std::printf("perfbench shares (traced medians): engine.tick_s/run_s %.3f, "
                "prediction.fit_s/setup_s %.3f, b2w.load_s/setup_s %.3f\n",
                share("engine.tick_s", Median(traced_run_s)),
                share("prediction.fit_s", Median(traced_setup_s)),
                share("b2w.load_s", Median(traced_setup_s)));
    if (!out_dir.empty()) {
      const std::string path = out_dir + "/" + name + "-seed" +
                               std::to_string(run_seed) + "-spans.jsonl";
      std::ofstream spans(path);
      spans << "{\"host\":" << host << "}\n" << traced_runs.back().spans_jsonl;
      if (!spans) return Fail("cannot write " + path);
      std::printf("perfbench spans: %s\n", path.c_str());
    }
  }

  std::printf("{\"correct\":%s,\"attempted\":%lld,\"failed\":%lld,"
              "\"metrics\":{%s}}\n",
              failed == 0 ? "true" : "false",
              static_cast<long long>(attempted),
              static_cast<long long>(failed), metrics.c_str());
  return 0;
}
