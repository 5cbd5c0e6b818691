#include "workloads.h"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "b2w/procedures.h"
#include "b2w/schema.h"
#include "b2w/workload.h"
#include "common/check.h"
#include "common/sim_time.h"
#include "common/status.h"
#include "common/strong_id.h"
#include "common/thread_pool.h"
#include "common/time_series.h"
#include "controller/predictive_controller.h"
#include "engine/cluster.h"
#include "engine/event_loop.h"
#include "engine/metrics.h"
#include "engine/txn_executor.h"
#include "engine/workload_driver.h"
#include "fault/fault_injector.h"
#include "fleet/fleet_simulator.h"
#include "fleet/tenant.h"
#include "migration/squall_migrator.h"
#include "obs/tracer.h"
#include "planner/dp_planner.h"
#include "planner/move_model.h"
#include "planner/move_model_table.h"
#include "prediction/naive_models.h"
#include "prediction/online_predictor.h"
#include "prediction/predictor_spec.h"
#include "prediction/spar_model.h"
#include "sim/capacity_simulator.h"
#include "sim/run_spec.h"
#include "trace/b2w_trace_generator.h"

namespace perfbench {

using namespace pstore;

const std::vector<WorkloadInfo>& Workloads() {
  static const std::vector<WorkloadInfo> kWorkloads = {
      {"b2w_replay", "txn submitted", 42, 7},
      {"bf_crash_drill", "txn submitted", 42, 7},
      {"fleet_1000", "tenant x fine slot", 17, 7},
      {"capacity_sweep", "spec x fine slot", 42, 7},
  };
  return kWorkloads;
}

const WorkloadInfo* FindWorkload(const std::string& name) {
  for (const WorkloadInfo& info : Workloads()) {
    if (name == info.name) return &info;
  }
  return nullptr;
}

namespace {

// Length of the b2w_replay run: the first of fig09's three replayed days
// (~6M transactions), so a run holds several repetitions.
constexpr int kB2wReplayDays = 1;

// fig12's capacity sweep: trace length, training prefix and Black Friday.
constexpr int kCapacityDays = 77;
constexpr int kCapacityTrainingDays = 28;
constexpr int kCapacityBlackFridayDay = 70;

// Instrumentation owned by a traced run.
struct Probe {
  Spans spans;
  PredictionStats prediction;
  FactoryStats factory;
  StatsSink::State trace;
  obs::Tracer tracer;

  Probe() { tracer.SetSink(std::make_unique<StatsSink>(&trace)); }
};

int BeginSpan(Spans* spans, const char* name) {
  return spans != nullptr ? spans->Begin(name) : -1;
}

void EndSpan(Spans* spans, int index) {
  if (spans != nullptr) spans->End(index);
}

double Seconds(int64_t start_ns, int64_t end_ns) {
  return static_cast<double>(end_ns - start_ns) * 1e-9;
}

void Check(Outcome* out, bool ok, const std::string& what) {
  if (!ok) out->failures.push_back(what);
}

void AddPrediction(const PredictionStats& stats, Outcome* out) {
  auto& layers = out->layers;
  layers["prediction.fit_s"] = stats.fit_ns * 1e-9;
  layers["prediction.fit_calls"] = static_cast<double>(stats.fit_calls);
  layers["prediction.forecast_us.p50"] = Median(stats.forecast_us);
  const Tail tail = TailOf(stats.forecast_us);
  layers["prediction.forecast_us.tail"] = tail.value;
  layers["prediction.forecast_us.tail_pct"] = tail.percentile;
  layers["prediction.forecast_us.tail_n"] = static_cast<double>(tail.n);
  layers["prediction.forecast_calls"] =
      static_cast<double>(stats.forecast_calls);
  layers["prediction.update_s"] = stats.update_ns * 1e-9;
}

void AddPlanner(const std::vector<double>& plan_us, int64_t plans,
                int64_t infeasible, Outcome* out) {
  auto& layers = out->layers;
  layers["planner.plan_us.p50"] = Median(plan_us);
  const Tail tail = TailOf(plan_us);
  layers["planner.plan_us.tail"] = tail.value;
  layers["planner.plan_us.tail_pct"] = tail.percentile;
  layers["planner.plan_us.tail_n"] = static_cast<double>(tail.n);
  layers["planner.plans"] = static_cast<double>(plans);
  layers["planner.infeasible_frac"] =
      plans > 0 ? static_cast<double>(infeasible) / static_cast<double>(plans)
                : 0.0;
}

// Replays sampled transaction keys through routing and storage: the
// table comes from the key's high-nibble tag (b2w/schema.h).
void ProbePartitionGets(const Cluster& cluster,
                        const std::vector<uint64_t>& keys, Outcome* out) {
  constexpr int kPasses = 8;
  int64_t gets = 0;
  int64_t hits = 0;
  const int64_t start = NowNs();
  for (int pass = 0; pass < kPasses; ++pass) {
    for (const uint64_t key : keys) {
      const uint64_t tag = key >> 60;
      if (tag < 1 || tag > 4) continue;
      const TableId table = static_cast<TableId>(tag - 1);
      const BucketId bucket = cluster.BucketForKey(key);
      const int partition = cluster.PartitionOfBucket(bucket);
      ++gets;
      if (cluster.partition(partition).Get(bucket, table, key) != nullptr) {
        ++hits;
      }
    }
  }
  const int64_t elapsed = NowNs() - start;
  out->layers["engine.partition_get_ns"] =
      gets > 0 ? static_cast<double>(elapsed) / static_cast<double>(gets)
               : 0.0;
  out->layers["engine.partition_get_hit_frac"] =
      gets > 0 ? static_cast<double>(hits) / static_cast<double>(gets) : 0.0;
}

void CheckBucketOwnership(const Cluster& cluster, Outcome* out) {
  const int partitions =
      cluster.options().max_nodes * cluster.partitions_per_node();
  bool owned_once = true;
  for (BucketId b = 0; b < cluster.num_buckets(); ++b) {
    const int owner = cluster.PartitionOfBucket(b);
    int holders = 0;
    for (int p = 0; p < partitions; ++p) {
      if (cluster.partition(p).HasBucket(b)) ++holders;
    }
    if (owner < 0 || owner >= partitions || holders != 1 ||
        !cluster.partition(owner).HasBucket(b)) {
      owned_once = false;
      break;
    }
  }
  Check(out, owned_once, "every bucket is owned by exactly one partition");
  // The partitions keep their byte totals apart from the per-bucket ones;
  // reading each bucket through its routed owner must add up to them.
  int64_t bucket_bytes = 0;
  for (BucketId b = 0; b < cluster.num_buckets(); ++b) {
    const int owner = cluster.PartitionOfBucket(b);
    if (owner >= 0 && owner < partitions) {
      bucket_bytes += cluster.partition(owner).BucketBytes(b);
    }
  }
  Check(out, bucket_bytes == cluster.TotalDataBytes(),
        "Cluster::TotalDataBytes equals the sum of bucket bytes read through "
        "each bucket's owner");
}

}  // namespace

// ---- Engine workloads -------------------------------------------------------

EngineConfig B2wReplayConfig(uint64_t seed) {
  EngineConfig config;
  config.seed = seed;
  config.replay_days = kB2wReplayDays;
  return config;
}

EngineConfig CrashDrillConfig(uint64_t seed) {
  EngineConfig config;
  config.seed = seed;
  config.replay_days = 2;
  config.black_friday_day = kEngineTrainingDays + 1;
  config.scale = 0.5;
  // Node 5 crashes at 10:00 of the Black-Friday morning ramp (one replay
  // day plus 600 trace minutes at 6 s each) and recovers 600 s later.
  const double crash_seconds = (1440.0 + 600.0) * 6.0;
  FaultEvent crash;
  crash.at = FromSeconds(crash_seconds);
  crash.kind = FaultKind::kNodeCrash;
  crash.node = 5;
  FaultEvent recover = crash;
  recover.at = FromSeconds(crash_seconds + 600.0);
  recover.kind = FaultKind::kNodeRecover;
  config.faults = {crash, recover};
  return config;
}

Outcome RunEngine(const EngineConfig& config, Mode mode) {
  const bool traced = mode == Mode::kTraced;
  std::unique_ptr<Probe> probe = traced ? std::make_unique<Probe>() : nullptr;
  Spans* spans = traced ? &probe->spans : nullptr;
  obs::Tracer* tracer = traced ? &probe->tracer : nullptr;
  Outcome out;

  // ---- Set-up: trace, data load, predictor warm-up. -----------------------
  const int64_t setup_start = NowNs();
  const int setup_span = BeginSpan(spans, "setup");

  WorkloadSpec workload_spec;
  workload_spec.kind = WorkloadSpec::Kind::kB2wSynthetic;
  workload_spec.b2w.days = kEngineTrainingDays + config.replay_days;
  workload_spec.b2w.peak_requests_per_min = 9000.0;
  workload_spec.b2w.seed = config.trace_seed;
  workload_spec.b2w.black_friday_day = config.black_friday_day;
  workload_spec.scale = 10.0 / 60.0 * config.scale;
  TimeSeries trace;
  {
    ScopedSpan span(spans, "trace.build");
    StatusOr<TimeSeries> built = BuildWorkloadTrace(workload_spec);
    PSTORE_CHECK_OK(built.status());
    trace = *std::move(built);
  }
  const size_t replay_begin = static_cast<size_t>(kEngineTrainingDays) * 1440;

  const int load_span = BeginSpan(spans, "b2w.load");
  ClusterOptions cluster_options;
  cluster_options.partitions_per_node = 6;
  cluster_options.max_nodes = 16;
  cluster_options.initial_nodes = kEngineInitialNodes;
  cluster_options.num_buckets = 3600;
  Cluster cluster(cluster_options);
  MetricsCollector metrics(1.0);
  TxnExecutor executor(&cluster, &metrics, ExecutorOptions{});
  PSTORE_CHECK_OK(b2w::RegisterProcedures(&executor));
  b2w::B2wWorkloadOptions workload_options;
  workload_options.cart_pool = static_cast<uint64_t>(300000 * config.scale);
  workload_options.checkout_pool =
      static_cast<uint64_t>(120000 * config.scale);
  b2w::Workload workload(workload_options);
  PSTORE_CHECK_OK(workload.LoadInitialData(&cluster));
  EndSpan(spans, load_span);
  const int64_t rows_loaded = cluster.TotalRowCount();

  EventLoop loop;
  MigrationOptions migration_options;
  migration_options.net_rate_bytes_per_sec = 500e3;
  migration_options.chunk_spacing_seconds = 2.0;
  migration_options.chunk_bytes = 1000 * 1000;
  migration_options.extract_rate_bytes_per_sec = 20e6;
  MigrationManager migration(&loop, &cluster, &metrics, migration_options);
  executor.set_tracer(tracer);
  migration.set_tracer(tracer);
  metrics.RecordMachines(0, kEngineInitialNodes);

  std::unique_ptr<FaultInjector> injector;
  if (!config.faults.empty()) {
    injector = std::make_unique<FaultInjector>(
        &loop, &cluster, &metrics, FaultSchedule::Scripted(config.faults));
    injector->set_tracer(tracer);
    migration.set_fault_hook(injector.get());
    injector->Arm();
  }

  DriverOptions driver_options;
  driver_options.slot_sim_seconds = 6.0;
  driver_options.rate_factor = 1.0;
  driver_options.start_slot = replay_begin;
  driver_options.seed = config.seed * 7919 + 13;
  WorkloadDriver::TxnFactory factory =
      traced ? MakeCountingFactory(&workload, &probe->factory)
             : WorkloadDriver::TxnFactory(
                   [&workload](Rng& rng) { return workload.NextTransaction(rng); });
  WorkloadDriver driver(&loop, &executor, trace, std::move(factory),
                        driver_options);
  driver.set_tracer(tracer);

  PlannerParams planner_params;
  planner_params.target_rate_per_node = 285.0 * config.scale;
  planner_params.max_rate_per_node = 350.0 * config.scale;
  planner_params.partitions_per_node = 6;
  planner_params.d_slots = SingleThreadFullMigrationSeconds(
                               cluster.TotalDataBytes(), migration_options) /
                           30.0;

  OnlinePredictorOptions online_options;
  online_options.inflation = 1.15;
  online_options.training_window =
      static_cast<size_t>(kEngineTrainingDays) * 1440;
  online_options.refit_interval = 7 * 1440;
  SparOptions spar_options;
  spar_options.period = 1440;
  spar_options.num_periods = 7;
  spar_options.num_recent = 30;
  spar_options.max_tau = 240;
  spar_options.tau_stride = 5;
  std::unique_ptr<LoadPredictor> model =
      std::make_unique<SparPredictor>(spar_options);
  if (traced) {
    model = std::make_unique<TimedPredictor>(std::move(model),
                                             &probe->prediction, spans);
  }
  OnlinePredictor predictor(std::move(model), online_options);
  predictor.set_tracer(tracer, [&loop] { return loop.now(); });
  PSTORE_CHECK_OK(predictor.Warmup(trace.Slice(0, replay_begin)));

  PredictiveControllerOptions controller_options;
  controller_options.slot_sim_seconds = 6.0;
  controller_options.plan_slot_factor = 5;
  controller_options.horizon_plan_slots = 48;
  controller_options.planner_params = planner_params;
  PredictiveController controller(&loop, &cluster, &executor, &migration,
                                  &predictor, controller_options);
  controller.set_tracer(tracer);
  controller.Start();
  EndSpan(spans, setup_span);
  out.setup_s = Seconds(setup_start, NowNs());
  if (mode == Mode::kSetupOnly) return out;

  // ---- Run: replay, then finalize the metrics. -----------------------------
  const int64_t run_start = NowNs();
  const int run_span = BeginSpan(spans, "run");
  std::unique_ptr<EventClassifier> classifier;
  if (traced) {
    classifier = std::make_unique<EventClassifier>(
        &probe->factory, &probe->prediction, &probe->trace);
    EventClassifier* hook = classifier.get();
    loop.set_pre_event_hook([hook] { hook->OnEvent(); });
  }
  const SimTime end = FromSeconds(config.replay_days * 1440 * 6.0);
  driver.Start(end);
  {
    ScopedSpan span(spans, "engine.loop");
    loop.RunUntil(end);
  }
  if (classifier != nullptr) classifier->Finish();
  std::vector<WindowStats> windows;
  EngineSummary& summary = out.engine;
  {
    ScopedSpan span(spans, "engine.finalize");
    windows = metrics.Finalize(end);
    summary.violations = MetricsCollector::CountViolations(windows);
    summary.avg_machines = metrics.AverageMachines(end);
  }
  summary.committed = executor.committed_count();
  summary.aborted = executor.aborted_count();
  summary.unavailable = executor.unavailable_count();
  summary.reconfigurations =
      static_cast<int>(migration.reconfigurations_completed());
  summary.failed_reconfigurations =
      static_cast<int>(migration.reconfigurations_failed());
  summary.chunk_retries = migration.chunk_retries().value();
  EndSpan(spans, run_span);
  out.run_s = Seconds(run_start, NowNs());

  // ---- Results, checks, digest. ----------------------------------------------
  const int64_t submitted = executor.submitted_count();
  const double duration_seconds = ToSeconds(end);
  out.work = static_cast<double>(submitted);
  out.sim_machine_hours = summary.avg_machines * duration_seconds / 3600.0;
  out.sim_sla_violations = static_cast<double>(summary.violations.p99);
  out.sim_unavailable_frac =
      submitted > 0 ? static_cast<double>(summary.unavailable) /
                          static_cast<double>(submitted)
                    : 0.0;

  Check(&out, driver.arrivals_generated() == submitted,
        "arrivals equal submitted transactions");
  Check(&out, submitted == summary.committed + summary.aborted,
        "submitted equals committed + aborted");
  Check(&out, summary.unavailable <= summary.aborted,
        "unavailable transactions are at most the aborted ones");
  Check(&out, submitted > 0, "the replay submitted transactions");
  CheckBucketOwnership(cluster, &out);

  Digest& digest = out.digest;
  for (const WindowStats& w : windows) {
    digest.Add(w.start_seconds);
    digest.Add(w.submitted);
    digest.Add(w.completed);
    digest.Add(w.unavailable);
    digest.Add(w.p50_ms);
    digest.Add(w.p95_ms);
    digest.Add(w.p99_ms);
    digest.Add(static_cast<int64_t>(w.machines));
    digest.Add(static_cast<int64_t>(w.migrating ? 1 : 0) |
               static_cast<int64_t>(w.fault ? 2 : 0));
  }
  for (const int64_t counter :
       {submitted, summary.committed, summary.aborted, summary.unavailable,
        static_cast<int64_t>(summary.reconfigurations),
        static_cast<int64_t>(summary.failed_reconfigurations),
        summary.chunk_retries, migration.total_bytes_moved(),
        cluster.TotalRowCount(), cluster.TotalDataBytes(),
        static_cast<int64_t>(cluster.active_nodes())}) {
    digest.Add(counter);
  }
  digest.Add(summary.avg_machines);

  if (!traced) return out;

  // ---- Per-layer metrics (traced runs). ------------------------------------
  ProbePartitionGets(cluster, probe->factory.keys, &out);
  auto& layers = out.layers;
  const FactoryStats& factory_stats = probe->factory;
  const StatsSink::State& events = probe->trace;
  layers["trace.build_s"] = spans->TotalSeconds("trace.build");
  layers["b2w.load_s"] = spans->TotalSeconds("b2w.load");
  layers["b2w.rows_loaded"] = static_cast<double>(rows_loaded);
  layers["b2w.next_txn_ns"] =
      factory_stats.timed_calls > 0
          ? static_cast<double>(factory_stats.timed_ns) /
                static_cast<double>(factory_stats.timed_calls)
          : 0.0;
  layers["b2w.next_txn_calls"] = static_cast<double>(factory_stats.calls);
  const double tick_s =
      classifier->tick_s() - factory_stats.EstimatedSeconds();
  layers["engine.tick_s"] = tick_s;
  layers["engine.submit_ns"] =
      submitted > 0 ? tick_s / static_cast<double>(submitted) * 1e9 : 0.0;
  layers["engine.finalize_s"] = spans->TotalSeconds("engine.finalize");
  layers["engine.events"] = static_cast<double>(classifier->events());
  layers["engine.tick_events"] = static_cast<double>(classifier->tick_events());
  layers["engine.txn_submitted"] = static_cast<double>(submitted);
  layers["engine.txn_committed"] = static_cast<double>(summary.committed);
  layers["engine.txn_aborted"] = static_cast<double>(summary.aborted);
  layers["engine.txn_unavailable"] = static_cast<double>(summary.unavailable);
  {
    const int partitions =
        cluster_options.max_nodes * cluster_options.partitions_per_node;
    double sum = 0.0;
    double max = 0.0;
    int used = 0;
    for (int p = 0; p < partitions; ++p) {
      const Partition& partition = cluster.partition(p);
      if (partition.jobs_executed() == 0) continue;
      const double util =
          ToSeconds(partition.total_busy_time()) / duration_seconds;
      sum += util;
      max = std::max(max, util);
      ++used;
    }
    layers["engine.partition_util_mean"] = used > 0 ? sum / used : 0.0;
    layers["engine.partition_util_max"] = max;
  }
  layers["migration.event_s"] = classifier->other_s();
  layers["migration.chunks"] = static_cast<double>(events.migration_chunks);
  layers["migration.chunk_retries"] =
      static_cast<double>(summary.chunk_retries);
  layers["migration.bytes_moved"] =
      static_cast<double>(migration.total_bytes_moved());
  layers["migration.reconfigs_completed"] =
      static_cast<double>(summary.reconfigurations);
  layers["migration.reconfigs_failed"] =
      static_cast<double>(summary.failed_reconfigurations);
  const int reconfigs =
      summary.reconfigurations + summary.failed_reconfigurations;
  layers["migration.reconfig_success_frac"] =
      reconfigs > 0 ? static_cast<double>(summary.reconfigurations) / reconfigs
                    : 0.0;
  layers["fault.events"] = static_cast<double>(events.fault_applies);
  layers["fault.unavailable_txns"] = static_cast<double>(summary.unavailable);
  layers["controller.cycle_s"] = classifier->controller_self_s();
  layers["controller.cycles"] = static_cast<double>(events.controller_cycles);
  layers["controller.plans"] = static_cast<double>(events.planner_plans);
  AddPrediction(probe->prediction, &out);
  AddPlanner(events.planner_us, events.planner_plans,
             events.planner_infeasible, &out);
  layers["obs.trace_events"] = static_cast<double>(events.events);
  out.spans_jsonl = spans->ToJsonl();
  return out;
}

// ---- Fleet ------------------------------------------------------------------

Outcome RunFleet(const FleetConfig& config, Mode mode) {
  const bool traced = mode == Mode::kTraced;
  std::unique_ptr<Probe> probe = traced ? std::make_unique<Probe>() : nullptr;
  Spans* spans = traced ? &probe->spans : nullptr;
  Outcome out;

  // ---- Set-up: tenant mix and simulator (pstore_fleet's defaults). ---------
  const int64_t setup_start = NowNs();
  const int setup_span = BeginSpan(spans, "setup");
  const int fleet_setup_span = BeginSpan(spans, "fleet.setup");
  fleet::TenantMixOptions mix;
  mix.wikipedia_tenants = config.tenants / 5;
  mix.ycsb_tenants = config.tenants / 5;
  mix.step_tenants = config.tenants / 5;
  mix.b2w_tenants = config.tenants - mix.wikipedia_tenants -
                    mix.ycsb_tenants - mix.step_tenants;
  mix.days = config.days;
  mix.seed = config.seed;
  mix.mean_peak_rate = 60.0;
  mix.partitions_per_tenant = 2;
  mix.sla_target = 0.01;
  fleet::FleetOptions options;
  options.controller.placement.machine_capacity = 285.0;
  options.controller.placement.interference_per_tenant = 0.02;
  options.controller.inflation = 1.15;
  options.machine_serve_capacity = 350.0;
  options.planner.target_rate_per_node = 285.0;
  options.planner.max_rate_per_node = 350.0;
  options.eval_begin = 1440;
  fleet::FleetSimulator simulator(options, fleet::MakeTenantMix(mix));
  if (traced) simulator.set_tracer(&probe->tracer);
  ThreadPool pool(1);
  EndSpan(spans, fleet_setup_span);
  EndSpan(spans, setup_span);
  out.setup_s = Seconds(setup_start, NowNs());
  if (mode == Mode::kSetupOnly) return out;

  // ---- Run: fleet mode, then the dedicated baseline. ------------------------
  const int64_t run_start = NowNs();
  const int run_span = BeginSpan(spans, "run");
  StatusOr<fleet::FleetResult> pooled = [&] {
    ScopedSpan span(spans, "fleet.simulate_fleet");
    return simulator.Simulate(fleet::FleetMode::kFleet, &pool);
  }();
  PSTORE_CHECK_OK(pooled.status());
  StatusOr<fleet::FleetResult> dedicated = [&] {
    ScopedSpan span(spans, "fleet.simulate_dedicated");
    return simulator.Simulate(fleet::FleetMode::kDedicated, &pool);
  }();
  PSTORE_CHECK_OK(dedicated.status());
  EndSpan(spans, run_span);
  out.run_s = Seconds(run_start, NowNs());

  // ---- Results, checks, digest. ----------------------------------------------
  out.csv = fleet::FleetCsvRows(*pooled) + "\n" +
            fleet::FleetCsvRows(*dedicated);
  out.digest.Add(out.csv);
  const double slot_hours = options.fine_slot_seconds / 3600.0;
  out.sim_machine_hours =
      (pooled->machine_slots + pooled->move_machine_slots) * slot_hours;
  out.sim_sla_violations = static_cast<double>(pooled->tenant_violation_slots);
  for (const fleet::FleetResult* result : {&*pooled, &*dedicated}) {
    out.work += static_cast<double>(result->tenants) *
                static_cast<double>(result->eval_fine_slots);
    bool all_reported =
        result->tenants == config.tenants &&
        result->per_tenant.size() == static_cast<size_t>(config.tenants);
    for (size_t t = 0; all_reported && t < result->per_tenant.size(); ++t) {
      all_reported = result->per_tenant[t].tenant == static_cast<int>(t);
    }
    const std::string mode_name = fleet::FleetModeName(result->mode);
    Check(&out, all_reported, "every tenant is reported (" + mode_name + ")");
    Check(&out,
          result->tenant_violation_slots <=
              static_cast<int64_t>(result->tenants) *
                  static_cast<int64_t>(result->eval_fine_slots),
          "violation slots are at most tenant x evaluated slots (" +
              mode_name + ")");
  }
  Check(&out, out.work > 0, "the fleet evaluated slots");

  if (!traced) return out;
  const StatsSink::State& events = probe->trace;
  auto& layers = out.layers;
  layers["trace.build_s"] = spans->TotalSeconds("trace.build");
  layers["fleet.setup_s"] = spans->TotalSeconds("fleet.setup");
  layers["fleet.simulate_fleet_s"] = spans->TotalSeconds("fleet.simulate_fleet");
  layers["fleet.simulate_dedicated_s"] =
      spans->TotalSeconds("fleet.simulate_dedicated");
  layers["fleet.cycles"] = static_cast<double>(events.fleet_cycles);
  layers["fleet.packs"] = static_cast<double>(events.fleet_packs);
  layers["fleet.repacks"] = static_cast<double>(events.fleet_repacks);
  layers["fleet.spike_replans"] = static_cast<double>(events.fleet_spike_replans);
  layers["fleet.partition_moves"] =
      static_cast<double>(events.fleet_partition_moves);
  Check(&out, events.fleet_repacks == pooled->repacks,
        "fleet.pack events agree with the fleet result's repacks");
  layers["obs.trace_events"] = static_cast<double>(events.events);
  out.spans_jsonl = spans->ToJsonl();
  return out;
}

// ---- Capacity sweep ---------------------------------------------------------

namespace {

// fig12's simulator options.
SimOptions CapacityOptions() {
  SimOptions options;
  options.plan_slot_factor = 5;
  options.horizon_plan_slots = 36;
  options.q = 285.0;
  options.q_hat = 350.0;
  options.d_fine_slots = 77.0;
  options.partitions_per_node = 6;
  options.initial_nodes = 4;
  options.max_nodes = 60;
  options.eval_begin = static_cast<size_t>(kCapacityTrainingDays) * 1440;
  return options;
}

// The planner's parameters as the capacity simulator derives them from
// its options (for the planner probe).
PlannerParams CapacityPlannerParams(const SimOptions& options) {
  PlannerParams params;
  params.target_rate_per_node = options.q;
  params.max_rate_per_node = options.q_hat;
  params.d_slots =
      options.d_fine_slots / static_cast<double>(options.plan_slot_factor);
  params.partitions_per_node = options.partitions_per_node;
  params.assume_instant_capacity = options.naive_capacity_planner;
  return params;
}

// One planning input seen during the sweep: the spec, the machines at
// decision time and the inflated load vector the planner received.
struct PlanningInput {
  size_t spec = 0;
  int machines = 0;
  std::vector<double> load;
};

// Replays sampled planning inputs through DpPlanner::BestMoves.
void ProbePlanner(const std::vector<RunSpec>& specs,
                  const std::vector<PlanningInput>& inputs,
                  int64_t planning_calls, Outcome* out,
                  double* estimated_total_s) {
  std::vector<double> plan_us;
  plan_us.reserve(inputs.size());
  int64_t infeasible = 0;
  std::vector<std::unique_ptr<MoveModelTable>> tables(specs.size());
  for (const PlanningInput& input : inputs) {
    const SimOptions& options = specs[input.spec].sim;
    const PlannerParams params = CapacityPlannerParams(options);
    if (tables[input.spec] == nullptr) {
      tables[input.spec] = std::make_unique<MoveModelTable>(
          params,
          NodeCount(std::max(options.max_nodes, options.initial_nodes)));
    }
    DpPlanner planner(params);
    planner.set_move_table(tables[input.spec].get());
    const int64_t start = NowNs();
    const StatusOr<PlanResult> plan =
        planner.BestMoves(input.load, NodeCount(input.machines));
    plan_us.push_back(static_cast<double>(NowNs() - start) * 1e-3);
    if (!plan.ok()) ++infeasible;
  }
  const int64_t sampled = static_cast<int64_t>(plan_us.size());
  double mean_us = 0.0;
  for (const double us : plan_us) mean_us += us;
  if (sampled > 0) mean_us /= static_cast<double>(sampled);
  *estimated_total_s = mean_us * 1e-6 * static_cast<double>(planning_calls);
  AddPlanner(plan_us, sampled, infeasible, out);
  out->layers["planner.plans"] = static_cast<double>(planning_calls);
}

}  // namespace

Outcome RunCapacity(uint64_t seed, Mode mode) {
  const bool traced = mode == Mode::kTraced;
  std::unique_ptr<Probe> probe = traced ? std::make_unique<Probe>() : nullptr;
  Spans* spans = traced ? &probe->spans : nullptr;
  Outcome out;

  // ---- Set-up: trace, SPAR fit, the 26 specs (as fig12 builds them). -------
  const int64_t setup_start = NowNs();
  const int setup_span = BeginSpan(spans, "setup");
  TimeSeries trace;
  TimeSeries coarse;
  {
    ScopedSpan span(spans, "trace.build");
    B2wTraceOptions trace_options;
    trace_options.days = kCapacityDays;
    trace_options.seed = seed;
    trace_options.peak_requests_per_min = 10500.0;
    trace_options.black_friday_day = kCapacityBlackFridayDay;
    trace = GenerateB2wTrace(trace_options).Scaled(10.0 / 60.0);
    coarse = trace.DownsampleMean(5);
  }
  PredictorContext context;
  context.period = 1440 / 5;
  context.max_tau = 36;
  StatusOr<std::unique_ptr<LoadPredictor>> made =
      MakePredictor("spar(n=7,m=6)", context);
  PSTORE_CHECK_OK(made.status());
  std::unique_ptr<LoadPredictor> spar = std::move(*made);
  std::unique_ptr<LoadPredictor> oracle =
      std::make_unique<OraclePredictor>(coarse);
  // Traced runs see every planning input through the decorators; the
  // oracle's calls are timed separately and not reported as prediction.
  PredictionStats oracle_stats;
  std::vector<PlanningInput> planning_inputs;
  int64_t planning_calls = 0;
  size_t current_spec = 0;
  std::vector<RunSpec> specs;
  if (traced) {
    auto spar_timed = std::make_unique<TimedPredictor>(
        std::move(spar), &probe->prediction, spans);
    auto oracle_timed =
        std::make_unique<TimedPredictor>(std::move(oracle), &oracle_stats, spans);
    const StatsSink::State* events = &probe->trace;
    auto observe = [&planning_inputs, &planning_calls, &current_spec, &specs,
                    events](const TimeSeries& history,
                            const std::vector<double>& forecast) {
      constexpr int64_t kSampleEvery = 32;
      if (planning_calls++ % kSampleEvery != 0) return;
      PlanningInput input;
      input.spec = current_spec;
      input.machines = static_cast<int>(events->sim_last_machines);
      const double inflation = specs[current_spec].sim.inflation;
      input.load.reserve(forecast.size() + 1);
      input.load.push_back(history[history.size() - 1]);
      for (const double v : forecast) {
        input.load.push_back(std::max(0.0, v * inflation));
      }
      planning_inputs.push_back(std::move(input));
    };
    spar_timed->set_on_forecast(observe);
    oracle_timed->set_on_forecast(observe);
    spar = std::move(spar_timed);
    oracle = std::move(oracle_timed);
  }
  PSTORE_CHECK_OK(spar->Fit(
      coarse.Slice(0, static_cast<size_t>(kCapacityTrainingDays) * 288)));

  RunSpec base;
  base.workload.kind = WorkloadSpec::Kind::kProvided;
  base.workload.provided = &trace;
  base.sim = CapacityOptions();
  base.tracer = traced ? &probe->tracer : nullptr;
  for (const double q : {200.0, 240.0, 285.0, 320.0, 340.0}) {
    RunSpec spec = base;
    spec.label = "Q=" + std::to_string(static_cast<int>(q));
    spec.strategy = Strategy::kPredictive;
    spec.sim.q = q;
    spec.predictor = spar.get();
    specs.push_back(spec);
    spec.sim.inflation = 1.0;
    spec.predictor = oracle.get();
    specs.push_back(spec);
  }
  for (const double watermark : {1.1, 1.0, 0.9, 0.8, 0.7}) {
    RunSpec spec = base;
    char knob[32];
    std::snprintf(knob, sizeof(knob), "watermark=%.1f", watermark);
    spec.label = knob;
    spec.strategy = Strategy::kReactive;
    spec.reactive.high_watermark = watermark;
    specs.push_back(spec);
  }
  for (const int day_nodes : {8, 10, 12, 16, 20}) {
    RunSpec spec = base;
    spec.label = "day=" + std::to_string(day_nodes);
    spec.strategy = Strategy::kSimple;
    spec.simple.day_nodes = day_nodes;
    spec.simple.night_nodes = 3;
    specs.push_back(spec);
  }
  for (const int nodes : {4, 6, 8, 10, 14, 20}) {
    RunSpec spec = base;
    spec.label = std::to_string(nodes) + " machines";
    spec.strategy = Strategy::kStatic;
    spec.static_nodes = nodes;
    specs.push_back(spec);
  }
  EndSpan(spans, setup_span);
  out.setup_s = Seconds(setup_start, NowNs());
  if (mode == Mode::kSetupOnly) return out;

  // ---- Run: every spec, serially, through the public RunOne. ---------------
  const int64_t run_start = NowNs();
  const int run_span = BeginSpan(spans, "run");
  SweepResult sweep;
  sweep.results.reserve(specs.size());
  for (size_t i = 0; i < specs.size(); ++i) {
    current_spec = i;
    ScopedSpan span(spans, "sim.run_one");
    StatusOr<SimResult> result = RunOne(specs[i]);
    PSTORE_CHECK_OK(result.status());
    sweep.results.push_back(*std::move(result));
  }
  EndSpan(spans, run_span);
  out.run_s = Seconds(run_start, NowNs());

  // ---- Results, checks, digest. ----------------------------------------------
  out.csv = SweepCsvRows(specs, sweep);
  out.digest.Add(out.csv);
  bool bounded = true;
  for (size_t i = 0; i < specs.size(); ++i) {
    const SimResult& result = sweep.results[i];
    const int64_t evaluated = static_cast<int64_t>(result.machines.size());
    bounded = bounded && result.insufficient_slots <= evaluated;
    out.work += static_cast<double>(evaluated);
    out.sim_machine_hours += result.machine_slots *
                             specs[i].sim.fine_slot_sim_seconds / 3600.0;
    out.sim_sla_violations += static_cast<double>(result.insufficient_slots);
    for (const int machines : result.machines) {
      out.digest.Add(static_cast<int64_t>(machines));
    }
    out.sweep_labels.push_back(specs[i].label);
    out.sweep_cost.push_back(result.machine_slots);
    out.sweep_insufficient_fraction.push_back(result.insufficient_fraction);
  }
  Check(&out, bounded, "insufficient slots are at most evaluated slots");
  Check(&out, out.work > 0, "the sweep evaluated slots");

  if (!traced) return out;
  auto& layers = out.layers;
  layers["trace.build_s"] = spans->TotalSeconds("trace.build");
  AddPrediction(probe->prediction, &out);
  double planner_s = 0.0;
  ProbePlanner(specs, planning_inputs, planning_calls, &out, &planner_s);
  layers["sim.self_s"] =
      std::max(0.0, spans->TotalSelfSeconds("sim.run_one") - planner_s);
  layers["sim.cycles"] = static_cast<double>(probe->trace.sim_cycles);
  layers["obs.trace_events"] = static_cast<double>(probe->trace.events);
  out.spans_jsonl = spans->ToJsonl();
  return out;
}

// ---- Dispatch ---------------------------------------------------------------

Outcome RunWorkload(const std::string& name, uint64_t seed, Mode mode) {
  if (name == "b2w_replay") {
    return RunEngine(B2wReplayConfig(seed), mode);
  }
  if (name == "bf_crash_drill") return RunEngine(CrashDrillConfig(seed), mode);
  if (name == "fleet_1000") {
    FleetConfig config;
    config.seed = seed;
    return RunFleet(config, mode);
  }
  PSTORE_CHECK(name == "capacity_sweep");
  return RunCapacity(seed, mode);
}

}  // namespace perfbench
