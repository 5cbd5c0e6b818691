#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "b2w/procedures.h"
#include "b2w/schema.h"
#include "b2w/workload.h"
#include "common/logging.h"
#include "common/rng.h"
#include "common/sim_time.h"
#include "common/time_series.h"
#include "controller/predictive_controller.h"
#include "engine/cluster.h"
#include "engine/event_loop.h"
#include "engine/metrics.h"
#include "engine/partition.h"
#include "engine/transaction.h"
#include "engine/txn_executor.h"
#include "engine/workload_driver.h"
#include "fault/fault_injector.h"
#include "fault/fault_schedule.h"
#include "migration/squall_migrator.h"
#include "prediction/naive_models.h"
#include "prediction/online_predictor.h"

namespace pstore {
namespace {

ClusterOptions OneNodeCluster() {
  ClusterOptions options;
  options.partitions_per_node = 6;
  options.max_nodes = 4;
  options.initial_nodes = 1;
  options.num_buckets = 600;
  return options;
}

// ---- Executor ---------------------------------------------------------------

TEST(TxnExecutorTest, UnknownProcedureAborts) {
  Cluster cluster(OneNodeCluster());
  MetricsCollector metrics;
  TxnExecutor executor(&cluster, &metrics, ExecutorOptions{});
  TxnRequest request;
  request.procedure = 63;
  const TxnResult result = executor.Submit(request, 0);
  EXPECT_EQ(result.status, TxnStatus::kUnknownProcedure);
  EXPECT_EQ(executor.aborted_count(), 1);
}

TEST(TxnExecutorTest, RegistrationGuards) {
  Cluster cluster(OneNodeCluster());
  TxnExecutor executor(&cluster, nullptr, ExecutorOptions{});
  ASSERT_TRUE(b2w::RegisterProcedures(&executor).ok());
  // Double registration rejected.
  EXPECT_FALSE(b2w::RegisterProcedures(&executor).ok());
}

TEST(TxnExecutorTest, ExecutesProcedureLogicAndChargesService) {
  Cluster cluster(OneNodeCluster());
  MetricsCollector metrics;
  ExecutorOptions options;
  options.mean_service_seconds = 0.010;
  TxnExecutor executor(&cluster, &metrics, options);
  ASSERT_TRUE(b2w::RegisterProcedures(&executor).ok());

  TxnRequest request;
  request.procedure = b2w::kAddLineToCart;
  request.key = b2w::CartKey(1);
  request.arg = b2w::kNewCartFlag | 100;
  const TxnResult result = executor.Submit(request, 0);
  EXPECT_EQ(result.status, TxnStatus::kCommitted);
  EXPECT_EQ(executor.committed_count(), 1);

  // The row landed on the partition owning the key's bucket.
  const BucketId bucket = cluster.BucketForKey(request.key);
  const Partition& partition =
      cluster.partition(cluster.PartitionOfBucket(bucket));
  EXPECT_EQ(partition.jobs_executed(), 1);
  EXPECT_GT(partition.total_busy_time(), 0);
  ASSERT_NE(partition.Get(bucket, b2w::kCartTable, request.key), nullptr);
}

TEST(TxnExecutorTest, PerProcedureStatsTracked) {
  Cluster cluster(OneNodeCluster());
  TxnExecutor executor(&cluster, nullptr, ExecutorOptions{});
  ASSERT_TRUE(b2w::RegisterProcedures(&executor).ok());
  // Two commits of AddLineToCart and one abort of GetCart (missing key).
  TxnRequest add;
  add.procedure = b2w::kAddLineToCart;
  add.key = b2w::CartKey(1);
  add.arg = b2w::kNewCartFlag | 100;
  executor.Submit(add, 0);
  add.arg = 100;
  executor.Submit(add, 1);
  TxnRequest get;
  get.procedure = b2w::kGetCart;
  get.key = b2w::CartKey(999);
  executor.Submit(get, 2);

  EXPECT_EQ(executor.procedure_stats(b2w::kAddLineToCart).committed, 2);
  EXPECT_EQ(executor.procedure_stats(b2w::kAddLineToCart).aborted, 0);
  EXPECT_EQ(executor.procedure_stats(b2w::kGetCart).committed, 0);
  EXPECT_EQ(executor.procedure_stats(b2w::kGetCart).aborted, 1);
  EXPECT_EQ(executor.procedure_stats(b2w::kDeleteCart).committed, 0);
}

TEST(TxnExecutorTest, SingleNodeSaturatesNearCalibratedRate) {
  // The calibration behind Fig. 7: with the default service model, a
  // 6-partition node keeps tail latency bounded at 285 txn/s (Q) and
  // melts down at ~550 txn/s (beyond the ~438 saturation point).
  for (const auto& [rate, should_saturate] :
       {std::pair<double, bool>{285.0, false},
        std::pair<double, bool>{550.0, true}}) {
    Cluster cluster(OneNodeCluster());
    MetricsCollector metrics;
    TxnExecutor executor(&cluster, &metrics, ExecutorOptions{});
    ASSERT_TRUE(b2w::RegisterProcedures(&executor).ok());
    b2w::B2wWorkloadOptions wl_options;
    wl_options.cart_pool = 20000;
    wl_options.checkout_pool = 8000;
    b2w::Workload workload(wl_options);
    ASSERT_TRUE(workload.LoadInitialData(&cluster).ok());

    EventLoop loop;
    TimeSeries trace(60.0, std::vector<double>(10, rate));
    DriverOptions driver_options;
    driver_options.slot_sim_seconds = 6.0;
    driver_options.rate_factor = 1.0;  // trace already in txn/s
    WorkloadDriver driver(
        &loop, &executor, trace,
        [&workload](Rng& rng) { return workload.NextTransaction(rng); },
        driver_options);
    driver.Start(60 * kSecond);
    loop.RunUntil(60 * kSecond);

    const auto windows = metrics.Finalize(60 * kSecond);
    // Inspect the last 10 seconds.
    double p99_ms = 0.0;
    for (size_t w = windows.size() - 10; w < windows.size(); ++w) {
      p99_ms = std::max(p99_ms, windows[w].p99_ms);
    }
    if (should_saturate) {
      EXPECT_GT(p99_ms, 500.0) << "rate " << rate;
    } else {
      // M/M/1 at utilization 0.65 per partition: p99 sojourn ~180 ms.
      EXPECT_LT(p99_ms, 450.0) << "rate " << rate;
    }
  }
}

// ---- Driver ------------------------------------------------------------------

TEST(WorkloadDriverTest, ArrivalCountTracksTrace) {
  Cluster cluster(OneNodeCluster());
  TxnExecutor executor(&cluster, nullptr, ExecutorOptions{});
  ASSERT_TRUE(b2w::RegisterProcedures(&executor).ok());
  EventLoop loop;
  // 100 txn/s for 30 slots of 1 s each.
  TimeSeries trace(1.0, std::vector<double>(30, 100.0));
  DriverOptions options;
  options.slot_sim_seconds = 1.0;
  options.rate_factor = 1.0;
  options.seed = 12;
  b2w::Workload workload(b2w::B2wWorkloadOptions{});
  WorkloadDriver driver(
      &loop, &executor, trace,
      [&workload](Rng& rng) { return workload.NextTransaction(rng); },
      options);
  driver.Start(30 * kSecond);
  loop.RunUntil(30 * kSecond);
  // Poisson(3000) total: within 5 sigma.
  EXPECT_NEAR(static_cast<double>(driver.arrivals_generated()), 3000.0,
              5.0 * std::sqrt(3000.0));
  EXPECT_EQ(executor.submitted_count(), driver.arrivals_generated());
}

TEST(WorkloadDriverTest, OfferedRateFollowsSlots) {
  Cluster cluster(OneNodeCluster());
  TxnExecutor executor(&cluster, nullptr, ExecutorOptions{});
  EventLoop loop;
  TimeSeries trace(60.0, {60.0, 120.0});  // req/min
  DriverOptions options;
  options.slot_sim_seconds = 6.0;
  options.rate_factor = 10.0 / 60.0;  // 10x accelerated replay
  b2w::Workload workload(b2w::B2wWorkloadOptions{});
  WorkloadDriver driver(
      &loop, &executor, trace,
      [&workload](Rng& rng) { return workload.NextTransaction(rng); },
      options);
  EXPECT_NEAR(driver.OfferedRate(0), 10.0, 1e-9);
  EXPECT_NEAR(driver.OfferedRate(7 * kSecond), 20.0, 1e-9);
  EXPECT_EQ(driver.OfferedRate(13 * kSecond), 0.0);  // past the trace
}

TEST(WorkloadDriverTest, StartSlotOffset) {
  Cluster cluster(OneNodeCluster());
  TxnExecutor executor(&cluster, nullptr, ExecutorOptions{});
  EventLoop loop;
  TimeSeries trace(60.0, {60.0, 120.0, 180.0});
  DriverOptions options;
  options.slot_sim_seconds = 6.0;
  options.rate_factor = 1.0;
  options.start_slot = 2;
  b2w::Workload workload(b2w::B2wWorkloadOptions{});
  WorkloadDriver driver(
      &loop, &executor, trace,
      [&workload](Rng& rng) { return workload.NextTransaction(rng); },
      options);
  EXPECT_NEAR(driver.OfferedRate(0), 180.0, 1e-9);
}

TEST(WorkloadDriverTest, FractionalSlotsRateTicksPiecewise) {
  // Regression: Tick() sampled OfferedRate once at tick start for the
  // whole 1 s batch. With a fractional slot_sim_seconds a trace-slot
  // boundary lands mid-tick and the whole tick was generated at the old
  // slot's rate. Here slot 0 (rate 0) covers [0, 1.5) and slot 1 (rate
  // 400) covers [1.5, 3.0): the tick spanning [1, 2) starts in the
  // silent slot, so the pre-fix driver produced zero arrivals by t = 2 s
  // even though [1.5, 2.0) should see Poisson(200) of them.
  Cluster cluster(OneNodeCluster());
  TxnExecutor executor(&cluster, nullptr, ExecutorOptions{});
  ASSERT_TRUE(b2w::RegisterProcedures(&executor).ok());
  EventLoop loop;
  TimeSeries trace(60.0, {0.0, 400.0});
  DriverOptions options;
  options.slot_sim_seconds = 1.5;
  options.rate_factor = 1.0;
  options.seed = 9;
  b2w::Workload workload(b2w::B2wWorkloadOptions{});
  WorkloadDriver driver(
      &loop, &executor, trace,
      [&workload](Rng& rng) { return workload.NextTransaction(rng); },
      options);
  driver.Start(2 * kSecond);
  loop.RunUntil(2 * kSecond);
  // Poisson(200) over the half-second at 400 txn/s: within 5 sigma.
  EXPECT_NEAR(static_cast<double>(driver.arrivals_generated()), 200.0,
              5.0 * std::sqrt(200.0));
}

TEST(WorkloadDriverTest, FractionalSlotsStopAtMidTickBoundary) {
  // The mirror case: the rate drops to zero at a mid-tick boundary
  // (t = 1.5 s), so arrivals over [0, 3) must track 1.5 s of load, not
  // the full 2 ticks the start-of-tick sample would produce.
  Cluster cluster(OneNodeCluster());
  TxnExecutor executor(&cluster, nullptr, ExecutorOptions{});
  ASSERT_TRUE(b2w::RegisterProcedures(&executor).ok());
  EventLoop loop;
  TimeSeries trace(60.0, {400.0, 0.0});
  DriverOptions options;
  options.slot_sim_seconds = 1.5;
  options.rate_factor = 1.0;
  options.seed = 9;
  b2w::Workload workload(b2w::B2wWorkloadOptions{});
  WorkloadDriver driver(
      &loop, &executor, trace,
      [&workload](Rng& rng) { return workload.NextTransaction(rng); },
      options);
  driver.Start(3 * kSecond);
  loop.RunUntil(3 * kSecond);
  // Poisson(600) over [0, 1.5): within 5 sigma — and clearly below the
  // ~800 a whole-tick sample of slot 0's rate would generate.
  EXPECT_NEAR(static_cast<double>(driver.arrivals_generated()), 600.0,
              5.0 * std::sqrt(600.0));
}

TEST(WorkloadDriverTest, DeterministicReplay) {
  auto run = [] {
    Cluster cluster(OneNodeCluster());
    TxnExecutor executor(&cluster, nullptr, ExecutorOptions{});
    EXPECT_TRUE(b2w::RegisterProcedures(&executor).ok());
    EventLoop loop;
    TimeSeries trace(1.0, std::vector<double>(10, 200.0));
    DriverOptions options;
    options.slot_sim_seconds = 1.0;
    options.rate_factor = 1.0;
    options.seed = 77;
    b2w::B2wWorkloadOptions wl;
    wl.cart_pool = 1000;
    wl.checkout_pool = 500;
    b2w::Workload workload(wl);
    EXPECT_TRUE(workload.LoadInitialData(&cluster).ok());
    WorkloadDriver driver(
        &loop, &executor, trace,
        [&workload](Rng& rng) { return workload.NextTransaction(rng); },
        options);
    driver.Start(10 * kSecond);
    loop.RunUntil(10 * kSecond);
    return std::make_pair(driver.arrivals_generated(),
                          cluster.TotalDataBytes());
  };
  const auto a = run();
  const auto b = run();
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second);
}

// ---- Full-stack golden run --------------------------------------------------

FaultEvent MakeFault(double at_seconds, FaultKind kind, int node) {
  FaultEvent event;
  event.at = FromSeconds(at_seconds);
  event.kind = kind;
  event.node = node;
  return event;
}

// Serializes every window plus the executor/migration counters with full
// float precision, so a run compares bit-for-bit against a recording.
std::string Snapshot(const std::vector<WindowStats>& windows,
                     const TxnExecutor& executor,
                     const MigrationManager& migration) {
  std::string out;
  char buf[256];
  for (const WindowStats& w : windows) {
    std::snprintf(buf, sizeof(buf),
                  "%lld/%lld/%lld %.17g/%.17g/%.17g m%d g%d f%d\n",
                  static_cast<long long>(w.submitted),
                  static_cast<long long>(w.completed),
                  static_cast<long long>(w.unavailable), w.p50_ms, w.p95_ms,
                  w.p99_ms, w.machines, w.migrating ? 1 : 0, w.fault ? 1 : 0);
    out += buf;
  }
  std::snprintf(buf, sizeof(buf), "ctr %lld/%lld/%lld/%lld/%lld mig %lld/%lld/%lld\n",
                static_cast<long long>(executor.submitted_count()),
                static_cast<long long>(executor.committed_count()),
                static_cast<long long>(executor.aborted_count()),
                static_cast<long long>(executor.distributed_count()),
                static_cast<long long>(executor.unavailable_count()),
                static_cast<long long>(migration.reconfigurations_completed()),
                static_cast<long long>(migration.reconfigurations_failed()),
                static_cast<long long>(migration.chunk_retries().value()));
  out += buf;
  return out;
}

// Runs the full stack — B2W workload, oracle predictive controller,
// migration, and a node crash from 50 s to 70 s — for 240 s.
std::string RunFullStack() {
  ClusterOptions cluster_options;
  cluster_options.partitions_per_node = 6;
  cluster_options.max_nodes = 10;
  cluster_options.initial_nodes = 2;
  cluster_options.num_buckets = 1200;
  Cluster cluster(cluster_options);

  MetricsCollector metrics(1.0);
  TxnExecutor executor(&cluster, &metrics, ExecutorOptions{});
  PSTORE_CHECK_OK(b2w::RegisterProcedures(&executor));
  b2w::B2wWorkloadOptions workload_options;
  workload_options.cart_pool = 20000;
  workload_options.checkout_pool = 8000;
  b2w::Workload workload(workload_options);
  PSTORE_CHECK_OK(workload.LoadInitialData(&cluster));

  EventLoop loop;
  MigrationOptions migration_options;
  migration_options.net_rate_bytes_per_sec = 200e3;
  migration_options.chunk_spacing_seconds = 0.5;
  migration_options.chunk_bytes = 256 * 1024;
  migration_options.extract_rate_bytes_per_sec = 20e6;
  migration_options.max_chunk_retries = 3;
  migration_options.retry_backoff_seconds = 0.5;
  MigrationManager migration(&loop, &cluster, &metrics, migration_options);

  // 40 slots of 6 s: 300 txn/s stepping to 900 at t = 120 s.
  TimeSeries trace(6.0);
  for (int i = 0; i < 40; ++i) trace.Append(i < 20 ? 300.0 : 900.0);

  DriverOptions driver_options;
  driver_options.slot_sim_seconds = 6.0;
  driver_options.rate_factor = 1.0;
  driver_options.seed = 21;
  WorkloadDriver driver(
      &loop, &executor, trace,
      [&workload](Rng& rng) { return workload.NextTransaction(rng); },
      driver_options);
  metrics.RecordMachines(0, cluster.active_nodes());

  FaultInjector injector(&loop, &cluster, &metrics,
                         FaultSchedule::Scripted({
                             MakeFault(50.0, FaultKind::kNodeCrash, 1),
                             MakeFault(70.0, FaultKind::kNodeRecover, 1),
                         }));
  migration.set_fault_hook(&injector);
  injector.Arm();

  OnlinePredictorOptions predictor_options;
  predictor_options.inflation = 1.1;
  predictor_options.refit_interval = 1u << 30;
  predictor_options.training_window = 10;
  OnlinePredictor oracle(std::make_unique<OraclePredictor>(trace),
                         predictor_options);
  PSTORE_CHECK_OK(oracle.Warmup(trace.Slice(0, 1)));

  PredictiveControllerOptions controller_options;
  controller_options.slot_sim_seconds = 6.0;
  controller_options.plan_slot_factor = 5;
  controller_options.horizon_plan_slots = 20;
  controller_options.planner_params.target_rate_per_node = 285.0;
  controller_options.planner_params.max_rate_per_node = 350.0;
  controller_options.planner_params.partitions_per_node = 6;
  controller_options.planner_params.d_slots =
      SingleThreadFullMigrationSeconds(cluster.TotalDataBytes(),
                                       migration_options) /
      30.0;
  PredictiveController controller(&loop, &cluster, &executor, &migration,
                                  &oracle, controller_options);
  controller.Start();

  const SimTime end = 40 * 6 * kSecond;
  driver.Start(end);
  loop.RunUntil(end);
  return Snapshot(metrics.Finalize(end), executor, migration);
}

// Every window and counter of the full-stack run. Any change to RNG
// draw order, routing, service accounting or metrics shows up here as a
// diff; re-record only for an intended change in simulated behaviour.
constexpr char kFullStackGolden[] = R"golden(304/297/0 15.221/55.832999999999998/86.106999999999999 m2 g0 f0
281/284/0 11.736999999999998/66.397999999999996/111.667 m2 g0 f0
304/294/0 15.221/86.106999999999999/121.77399999999999 m2 g0 f0
330/340/0 11.736999999999998/78.960999999999999/121.77399999999999 m2 g0 f0
302/302/0 13.958/66.397999999999996/111.667 m2 g0 f0
282/275/0 12.800000000000001/72.406999999999996/93.900999999999996 m2 g0 f0
314/320/0 13.958/55.832999999999998/86.106999999999999 m2 g0 f0
285/286/0 16.599/55.832999999999998/78.960999999999999 m2 g0 f0
326/327/0 15.221/66.397999999999996/86.106999999999999 m2 g0 f0
290/288/0 13.958/66.397999999999996/93.900999999999996 m2 g0 f0
288/291/0 11.736999999999998/55.832999999999998/78.525999999999996 m2 g0 f0
301/298/0 11.736999999999998/66.397999999999996/102.40000000000001 m2 g0 f0
285/289/0 16.599/60.886999999999993/141.77799999999999 m2 g0 f0
333/329/0 15.221/66.397999999999996/111.667 m2 g0 f0
266/268/0 16.599/66.397999999999996/93.900999999999996 m2 g0 f0
317/317/0 16.599/86.106999999999999/121.77399999999999 m2 g0 f0
325/322/0 15.221/51.200000000000003/72.406999999999996 m2 g0 f0
312/310/0 15.221/72.406999999999996/102.40000000000001 m2 g0 f0
298/300/0 15.221/60.886999999999993/111.667 m2 g0 f0
293/293/0 12.800000000000001/60.886999999999993/86.106999999999999 m2 g0 f0
310/310/0 13.958/72.406999999999996/111.667 m2 g0 f0
327/324/0 16.599/93.900999999999996/144.815 m2 g0 f0
294/295/0 13.958/60.886999999999993/102.40000000000001 m2 g0 f0
299/299/0 12.800000000000001/55.832999999999998/102.40000000000001 m2 g0 f0
286/290/0 19.740000000000002/60.886999999999993/86.106999999999999 m2 g0 f0
315/311/0 16.599/66.397999999999996/86.106999999999999 m2 g0 f0
316/318/0 15.221/86.106999999999999/172.215 m2 g0 f0
298/294/0 12.800000000000001/72.406999999999996/111.667 m2 g0 f0
294/296/0 12.800000000000001/60.886999999999993/78.960999999999999 m2 g0 f0
305/308/0 13.958/60.886999999999993/93.900999999999996 m2 g0 f0
273/273/0 13.958/55.832999999999998/78.960999999999999 m2 g0 f0
281/281/0 13.958/72.406999999999996/121.77399999999999 m2 g0 f0
275/269/0 12.800000000000001/66.397999999999996/93.900999999999996 m2 g0 f0
298/303/0 13.958/78.960999999999999/132.79599999999999 m2 g0 f0
302/303/0 13.958/66.397999999999996/93.900999999999996 m2 g0 f0
303/302/0 13.958/55.832999999999998/78.960999999999999 m2 g0 f0
300/300/0 13.958/55.832999999999998/78.960999999999999 m2 g0 f0
288/292/0 15.221/55.832999999999998/78.960999999999999 m2 g0 f0
301/292/0 13.958/60.886999999999993/93.900999999999996 m2 g0 f0
301/308/0 13.958/55.832999999999998/72.406999999999996 m2 g0 f0
336/332/0 16.599/72.406999999999996/93.900999999999996 m2 g0 f0
306/306/0 12.800000000000001/60.886999999999993/66.397999999999996 m2 g0 f0
276/280/0 13.958/55.832999999999998/86.106999999999999 m2 g0 f0
311/304/0 15.221/93.900999999999996/128.934 m2 g0 f0
277/280/0 13.958/66.397999999999996/78.960999999999999 m2 g0 f0
285/286/0 11.736999999999998/51.200000000000003/78.960999999999999 m2 g0 f0
299/298/0 13.958/66.397999999999996/111.667 m2 g0 f0
304/303/0 13.958/72.406999999999996/102.40000000000001 m2 g0 f0
279/280/0 12.800000000000001/66.397999999999996/93.900999999999996 m2 g0 f0
308/308/0 16.599/60.886999999999993/93.900999999999996 m2 g0 f0
318/163/160 12.800000000000001/46.949999999999996/55.832999999999998 m2 g0 f1
293/144/149 13.958/51.200000000000003/66.397999999999996 m2 g0 f1
317/169/149 16.599/78.960999999999999/86.106999999999999 m2 g0 f1
313/157/153 16.599/93.900999999999996/121.77399999999999 m2 g0 f1
312/148/168 16.599/86.106999999999999/121.77399999999999 m2 g0 f1
320/161/155 15.221/78.960999999999999/157.922 m2 g0 f1
268/134/137 12.800000000000001/39.480000000000004/55.832999999999998 m2 g0 f1
286/146/139 15.221/86.106999999999999/102.40000000000001 m2 g0 f1
283/149/135 11.736999999999998/60.886999999999993/71.509 m2 g0 f1
300/150/150 10.763/51.200000000000003/60.886999999999993 m2 g0 f1
310/158/154 13.958/60.886999999999993/78.960999999999999 m2 g0 f1
287/149/136 12.800000000000001/66.397999999999996/111.667 m2 g0 f1
280/149/132 19.740000000000002/93.900999999999996/148.81100000000001 m2 g0 f1
284/150/132 11.736999999999998/60.886999999999993/111.667 m2 g0 f1
321/170/152 16.599/55.832999999999998/86.106999999999999 m2 g0 f1
302/142/156 19.740000000000002/72.406999999999996/86.106999999999999 m2 g0 f1
320/168/153 13.958/66.397999999999996/102.40000000000001 m2 g0 f1
293/163/134 15.221/60.886999999999993/78.960999999999999 m2 g0 f1
323/163/160 16.599/66.397999999999996/72.406999999999996 m2 g0 f1
294/147/146 15.221/72.406999999999996/111.667 m2 g0 f1
299/296/0 13.958/66.397999999999996/93.900999999999996 m2 g0 f1
327/325/0 12.800000000000001/72.406999999999996/93.900999999999996 m2 g0 f0
292/289/0 12.800000000000001/55.832999999999998/66.397999999999996 m2 g0 f0
301/306/0 15.221/55.832999999999998/72.406999999999996 m2 g0 f0
302/304/0 12.800000000000001/39.480000000000004/86.106999999999999 m2 g0 f0
311/308/0 13.958/55.832999999999998/78.960999999999999 m2 g0 f0
291/293/0 12.800000000000001/55.832999999999998/86.106999999999999 m2 g0 f0
292/289/0 12.800000000000001/51.200000000000003/93.900999999999996 m2 g0 f0
287/291/0 18.100999999999999/72.406999999999996/111.667 m2 g0 f0
288/283/0 11.736999999999998/46.949999999999996/60.886999999999993 m2 g0 f0
280/283/0 15.221/72.406999999999996/93.900999999999996 m2 g0 f0
315/312/0 18.100999999999999/66.397999999999996/93.900999999999996 m2 g0 f0
303/304/0 15.221/60.886999999999993/102.40000000000001 m2 g0 f0
326/322/0 13.958/66.397999999999996/93.900999999999996 m2 g0 f0
291/295/0 13.958/60.886999999999993/86.106999999999999 m2 g0 f0
314/318/0 13.958/51.200000000000003/60.886999999999993 m2 g0 f0
298/301/0 12.800000000000001/72.406999999999996/102.40000000000001 m2 g0 f0
295/292/0 15.221/78.960999999999999/102.40000000000001 m2 g0 f0
315/310/0 13.958/86.106999999999999/144.815 m2 g0 f0
286/288/0 12.800000000000001/55.832999999999998/78.960999999999999 m2 g0 f0
291/293/0 15.221/66.397999999999996/102.40000000000001 m2 g0 f0
264/259/0 13.958/72.406999999999996/93.900999999999996 m2 g0 f0
292/296/0 12.800000000000001/60.886999999999993/111.667 m2 g0 f0
335/337/0 13.958/55.832999999999998/86.106999999999999 m2 g0 f0
289/285/0 13.958/66.397999999999996/93.900999999999996 m2 g0 f0
306/300/0 13.958/60.886999999999993/111.667 m2 g0 f0
293/295/0 18.100999999999999/86.106999999999999/144.815 m2 g0 f0
284/291/0 15.221/72.406999999999996/86.106999999999999 m2 g0 f0
294/291/0 13.958/66.397999999999996/86.106999999999999 m2 g0 f0
305/310/0 16.599/72.406999999999996/93.900999999999996 m2 g0 f0
297/295/0 15.221/51.200000000000003/72.406999999999996 m2 g0 f0
293/292/0 12.800000000000001/60.886999999999993/111.667 m2 g0 f0
307/305/0 16.599/86.106999999999999/157.922 m2 g0 f0
276/277/0 13.958/51.200000000000003/72.406999999999996 m2 g0 f0
300/305/0 13.958/66.397999999999996/102.40000000000001 m2 g0 f0
277/270/0 11.736999999999998/72.406999999999996/93.900999999999996 m2 g0 f0
275/279/0 13.958/66.397999999999996/102.40000000000001 m2 g0 f0
325/324/0 16.599/72.406999999999996/111.667 m2 g0 f0
307/309/0 16.599/66.397999999999996/86.106999999999999 m2 g0 f0
275/272/0 10.763/55.832999999999998/78.960999999999999 m2 g0 f0
293/297/0 12.800000000000001/60.886999999999993/93.900999999999996 m2 g0 f0
285/285/0 13.958/55.832999999999998/72.406999999999996 m2 g0 f0
319/318/0 13.958/66.397999999999996/102.40000000000001 m2 g0 f0
292/285/0 16.599/72.406999999999996/102.40000000000001 m2 g0 f0
331/332/0 16.599/60.886999999999993/93.900999999999996 m2 g0 f0
302/297/0 12.800000000000001/66.397999999999996/86.106999999999999 m2 g0 f0
274/287/0 15.221/72.406999999999996/121.77399999999999 m2 g0 f0
312/307/0 15.221/60.886999999999993/78.960999999999999 m2 g0 f0
289/291/0 12.800000000000001/51.200000000000003/93.900999999999996 m2 g0 f0
308/308/0 13.958/60.886999999999993/93.900999999999996 m2 g0 f0
911/797/0 86.106999999999999/223.33500000000001/265.59199999999998 m2 g0 f0
944/867/0 144.815/409.60000000000002/531.18500000000006 m2 g0 f0
938/861/0 265.59199999999998/579.26100000000008/687.61900000000003 m2 g0 f0
926/931/0 265.59199999999998/688.86199999999997/795.99299999999994 m2 g0 f0
957/884/0 265.59199999999998/751.20900000000006/938.91700000000003 m2 g0 f0
887/899/0 375.60399999999998/893.34299999999996/1013.755 m2 g0 f0
933/909/0 409.60000000000002/751.20900000000006/808.21100000000001 m2 g0 f0
888/893/0 409.60000000000002/893.34299999999996/893.34299999999996 m2 g0 f0
918/895/0 409.60000000000002/819.20000000000005/893.34299999999996 m2 g0 f0
884/914/0 344.43099999999998/893.34299999999996/974.19799999999998 m2 g0 f0
926/874/0 344.43099999999998/974.19799999999998/1034.028 m2 g0 f0
885/902/0 344.43099999999998/819.20000000000005/819.20000000000005 m2 g0 f0
902/886/0 344.43099999999998/893.34299999999996/972.96899999999994 m2 g0 f0
860/838/0 409.60000000000002/1062.3700000000001/1263.3790000000001 m2 g0 f0
905/897/0 375.60399999999998/1377.7239999999999/1467.4670000000001 m2 g0 f0
939/910/0 289.63/1494.181/1494.181 m2 g0 f0
903/860/0 446.67099999999999/1263.3790000000001/1480.808 m2 g0 f0
962/866/0 631.68899999999996/1263.3790000000001/1327.3129999999999 m2 g0 f0
904/860/0 688.86199999999997/1377.7239999999999/1502.4189999999999 m2 g0 f0
917/888/0 688.86199999999997/1638.4000000000001/1698.1210000000001 m2 g0 f0
942/940/0 579.26100000000008/1756.8760000000002/1756.8760000000002 m2 g0 f0
867/924/0 688.86199999999997/1786.6869999999999/1884.5229999999999 m2 g0 f0
835/831/0 688.86199999999997/1904.498/1904.498 m2 g0 f0
886/858/0 751.20900000000006/1893.4939999999999/1893.4939999999999 m2 g0 f0
924/931/0 688.86199999999997/1785.893/1785.893 m2 g0 f0
854/925/0 579.26100000000008/1638.4000000000001/1733.7659999999998 m2 g0 f0
871/890/0 579.26100000000008/1777.0250000000001/1777.0250000000001 m2 g0 f0
935/888/0 531.18500000000006/1772.181/1772.181 m2 g0 f0
913/893/0 531.18500000000006/1786.6869999999999/1925.1180000000002 m2 g0 f0
919/912/0 487.09899999999999/1948.396/2035.8900000000001 m2 g0 f0
926/883/0 631.68899999999996/2070.0039999999999/2070.0039999999999 m4 g1 f0
868/846/0 688.86199999999997/2124.741/2245.739 m4 g1 f0
936/983/0 579.26100000000008/2124.741/2235.2829999999999 m4 g1 f0
928/903/0 487.09899999999999/2124.741/2301.011 m4 g1 f0
883/1001/0 409.60000000000002/2518.2939999999999/2518.2939999999999 m4 g1 f0
905/899/0 344.43099999999998/2526.7580000000003/2591.913 m4 g1 f0
891/992/0 223.33500000000001/2504.4160000000002/2504.4160000000002 m4 g1 f0
896/967/0 157.922/2317.047/2317.047 m4 g1 f0
873/935/0 72.406999999999996/1948.396/2117.0620000000004 m4 g1 f0
912/962/0 78.960999999999999/1638.4000000000001/1638.4000000000001 m4 g1 f0
899/952/0 46.949999999999996/1502.4189999999999/1581.1690000000001 m4 g1 f0
876/947/0 36.202999999999996/1062.3700000000001/1263.3790000000001 m4 g1 f0
926/997/0 46.949999999999996/819.20000000000005/1062.3700000000001 m4 g1 f0
942/962/0 33.198999999999998/315.84399999999999/579.26100000000008 m4 g1 f0
905/930/0 25.600000000000001/144.815/223.33500000000001 m4 g1 f0
925/909/0 21.526/111.667/157.922 m4 g1 f0
908/923/0 23.474999999999998/111.667/144.815 m4 g1 f0
916/884/0 21.526/102.40000000000001/157.922 m4 g1 f0
861/879/0 21.526/102.40000000000001/157.922 m4 g1 f0
885/891/0 18.100999999999999/86.106999999999999/111.667 m4 g1 f0
911/912/0 18.100999999999999/78.960999999999999/132.79599999999999 m4 g1 f0
921/921/0 19.740000000000002/102.40000000000001/144.815 m4 g1 f0
946/940/0 19.740000000000002/102.40000000000001/144.815 m4 g0 f0
859/868/0 19.740000000000002/86.106999999999999/132.79599999999999 m4 g0 f0
930/948/0 19.740000000000002/93.900999999999996/121.77399999999999 m4 g0 f0
882/863/0 18.100999999999999/86.106999999999999/144.815 m4 g0 f0
926/937/0 21.526/93.900999999999996/132.79599999999999 m4 g0 f0
924/904/0 19.740000000000002/86.106999999999999/121.77399999999999 m4 g0 f0
935/929/0 23.474999999999998/111.667/187.80199999999999 m4 g0 f0
919/937/0 21.526/111.667/172.215 m4 g0 f0
837/847/0 16.599/86.106999999999999/157.922 m4 g0 f0
888/888/0 19.740000000000002/102.40000000000001/121.77399999999999 m4 g0 f0
878/876/0 18.100999999999999/78.960999999999999/102.40000000000001 m4 g0 f0
896/890/0 18.100999999999999/66.397999999999996/102.40000000000001 m4 g0 f0
832/836/0 18.100999999999999/78.960999999999999/132.79599999999999 m4 g0 f0
904/889/0 19.740000000000002/72.406999999999996/102.40000000000001 m4 g0 f0
881/896/0 18.100999999999999/78.960999999999999/132.79599999999999 m4 g0 f0
915/914/0 18.100999999999999/86.106999999999999/121.77399999999999 m4 g0 f0
865/871/0 19.740000000000002/93.900999999999996/132.79599999999999 m4 g0 f0
866/854/0 16.599/66.397999999999996/86.106999999999999 m4 g0 f0
849/854/0 15.221/66.397999999999996/111.667 m4 g0 f0
914/924/0 18.100999999999999/72.406999999999996/93.900999999999996 m4 g0 f0
924/902/0 21.526/78.960999999999999/132.79599999999999 m4 g0 f0
886/894/0 18.100999999999999/66.397999999999996/132.79599999999999 m4 g0 f0
868/872/0 18.100999999999999/86.106999999999999/132.79599999999999 m4 g0 f0
905/903/0 21.526/102.40000000000001/132.79599999999999 m4 g0 f0
908/904/0 19.740000000000002/86.106999999999999/132.79599999999999 m4 g0 f0
885/899/0 18.100999999999999/78.960999999999999/111.667 m4 g0 f0
911/901/0 18.100999999999999/93.900999999999996/144.815 m4 g0 f0
862/870/0 21.526/111.667/157.922 m4 g0 f0
966/947/0 19.740000000000002/72.406999999999996/102.40000000000001 m4 g0 f0
890/898/0 19.740000000000002/93.900999999999996/157.922 m4 g0 f0
882/870/0 18.100999999999999/72.406999999999996/111.667 m4 g0 f0
906/918/0 21.526/86.106999999999999/121.77399999999999 m4 g0 f0
948/947/0 21.526/86.106999999999999/111.667 m4 g0 f0
930/925/0 19.740000000000002/86.106999999999999/121.77399999999999 m4 g0 f0
955/958/0 19.740000000000002/102.40000000000001/157.922 m4 g0 f0
957/957/0 18.100999999999999/78.960999999999999/132.79599999999999 m4 g0 f0
881/889/0 19.740000000000002/66.397999999999996/102.40000000000001 m4 g0 f0
897/896/0 21.526/102.40000000000001/132.79599999999999 m4 g0 f0
948/951/0 19.740000000000002/93.900999999999996/132.79599999999999 m4 g0 f0
929/932/0 18.100999999999999/72.406999999999996/102.40000000000001 m4 g0 f0
874/867/0 21.526/102.40000000000001/143.81199999999998 m4 g0 f0
935/940/0 16.599/66.397999999999996/86.106999999999999 m4 g0 f0
863/865/0 19.740000000000002/78.960999999999999/102.40000000000001 m4 g0 f0
895/892/0 18.100999999999999/66.397999999999996/102.40000000000001 m4 g0 f0
921/918/0 19.740000000000002/78.960999999999999/111.667 m4 g0 f0
935/926/0 19.740000000000002/78.960999999999999/111.667 m4 g0 f0
935/951/0 18.100999999999999/86.106999999999999/144.815 m4 g0 f0
876/877/0 16.599/72.406999999999996/102.40000000000001 m4 g0 f0
920/911/0 16.599/72.406999999999996/111.667 m4 g0 f0
911/913/0 21.526/102.40000000000001/157.922 m4 g0 f0
857/857/0 16.599/78.960999999999999/121.77399999999999 m4 g0 f0
917/920/0 18.100999999999999/78.960999999999999/102.40000000000001 m4 g0 f0
904/912/0 16.599/78.960999999999999/102.40000000000001 m4 g0 f0
953/932/0 18.100999999999999/78.960999999999999/102.40000000000001 m4 g0 f0
886/889/0 19.740000000000002/93.900999999999996/121.77399999999999 m4 g0 f0
915/919/0 23.474999999999998/102.40000000000001/144.815 m4 g0 f0
893/890/0 21.526/78.960999999999999/102.40000000000001 m4 g0 f0
937/936/0 25.600000000000001/121.77399999999999/172.215 m4 g0 f0
908/918/0 19.740000000000002/66.397999999999996/93.900999999999996 m4 g0 f0
900/893/0 16.599/72.406999999999996/102.40000000000001 m4 g0 f0
965/961/0 19.740000000000002/93.900999999999996/121.77399999999999 m4 g0 f0
901/905/0 21.526/78.960999999999999/111.667 m4 g0 f0
928/927/0 15.221/66.397999999999996/93.900999999999996 m4 g0 f0
902/904/0 16.599/72.406999999999996/121.77399999999999 m4 g0 f0
880/879/0 19.740000000000002/78.960999999999999/121.77399999999999 m4 g0 f0
911/912/0 19.740000000000002/78.960999999999999/102.40000000000001 m4 g0 f0
968/964/0 21.526/102.40000000000001/157.922 m4 g0 f0
882/888/0 19.740000000000002/93.900999999999996/132.79599999999999 m4 g0 f0
ctr 144594/133780/10814/0/2950 mig 1/0/0
)golden";

TEST(FullStackGoldenTest, SerialRunMatchesRecordedSnapshot) {
  const std::string snapshot = RunFullStack();
  EXPECT_EQ(snapshot, kFullStackGolden);
  // Sanity: the run did real work (a scale-out and a fault window).
  EXPECT_NE(snapshot.find(" f1\n"), std::string::npos);
  EXPECT_NE(snapshot.find("g1 f0\n"), std::string::npos);
}

}  // namespace
}  // namespace pstore
