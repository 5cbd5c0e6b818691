// Tests for multi-key (potentially distributed) transactions: routing,
// atomic procedure semantics, 2PC cost accounting, and the scalability
// erosion the paper's §4.2 assumption guards against.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/rng.h"
#include "common/sim_time.h"
#include "common/time_series.h"
#include "engine/cluster.h"
#include "engine/event_loop.h"
#include "engine/metrics.h"
#include "engine/partition.h"
#include "engine/table.h"
#include "engine/transaction.h"
#include "engine/txn_executor.h"
#include "engine/workload_driver.h"
#include "ycsb/ycsb_workload.h"

namespace pstore {
namespace {

ClusterOptions TwoNodeCluster() {
  ClusterOptions options;
  options.partitions_per_node = 3;
  options.max_nodes = 2;
  options.initial_nodes = 2;
  options.num_buckets = 120;
  return options;
}

// Finds two keys on different partitions (and two on the same).
struct KeyPairs {
  uint64_t same_a = 0, same_b = 0;
  uint64_t diff_a = 0, diff_b = 0;
};

KeyPairs FindPairs(const Cluster& cluster, uint64_t count) {
  KeyPairs pairs;
  bool have_same = false, have_diff = false;
  const int p0 = cluster.PartitionForKey(ycsb::UserKey(0));
  for (uint64_t i = 1; i < count && (!have_same || !have_diff); ++i) {
    const int p = cluster.PartitionForKey(ycsb::UserKey(i));
    if (p == p0 && !have_same) {
      pairs.same_a = ycsb::UserKey(0);
      pairs.same_b = ycsb::UserKey(i);
      have_same = true;
    } else if (p != p0 && !have_diff) {
      pairs.diff_a = ycsb::UserKey(0);
      pairs.diff_b = ycsb::UserKey(i);
      have_diff = true;
    }
  }
  PSTORE_CHECK(have_same && have_diff);
  return pairs;
}

class DistributedTxnTest : public ::testing::Test {
 protected:
  DistributedTxnTest()
      : cluster_(TwoNodeCluster()),
        executor_(&cluster_, &metrics_, ExecutorOptions{}) {
    PSTORE_CHECK_OK(ycsb::Workload::RegisterProcedures(&executor_));
    ycsb::YcsbWorkloadOptions options;
    options.record_count = 1000;
    ycsb::Workload workload(options);
    PSTORE_CHECK_OK(workload.LoadInitialData(&cluster_));
    pairs_ = FindPairs(cluster_, 1000);
  }

  TxnResult Transfer(uint64_t from, uint64_t to, uint32_t amount,
                     SimTime now) {
    TxnRequest request;
    request.procedure = ycsb::kMultiTransfer;
    request.key = from;
    request.num_extra_keys = 1;
    request.extra_keys[0] = to;
    request.arg = amount;
    return executor_.Submit(request, now);
  }

  int64_t BalanceOf(uint64_t key) {
    const BucketId bucket = cluster_.BucketForKey(key);
    const Row* row = cluster_.partition(cluster_.PartitionOfBucket(bucket))
                         .Get(bucket, ycsb::kUserTable, key);
    PSTORE_CHECK(row != nullptr);
    return row->f2;
  }

  MetricsCollector metrics_;
  Cluster cluster_;
  TxnExecutor executor_;
  KeyPairs pairs_;
};

TEST_F(DistributedTxnTest, TransferMovesBalanceAtomically) {
  const int64_t before_a = BalanceOf(pairs_.diff_a);
  const int64_t before_b = BalanceOf(pairs_.diff_b);
  const TxnResult result = Transfer(pairs_.diff_a, pairs_.diff_b, 42, 0);
  EXPECT_EQ(result.status, TxnStatus::kCommitted);
  EXPECT_EQ(result.value, 42);
  EXPECT_EQ(BalanceOf(pairs_.diff_a), before_a - 42);
  EXPECT_EQ(BalanceOf(pairs_.diff_b), before_b + 42);
}

TEST_F(DistributedTxnTest, SameBucketTransferConservesBalance) {
  // Both rows live in one bucket's flat storage, so the procedure holds
  // two Row pointers into the same array at once.
  uint64_t a = ycsb::UserKey(0);
  uint64_t b = a;
  for (uint64_t i = 1; i < 1000 && b == a; ++i) {
    if (cluster_.BucketForKey(ycsb::UserKey(i)) == cluster_.BucketForKey(a)) {
      b = ycsb::UserKey(i);
    }
  }
  ASSERT_NE(a, b);
  const int64_t before_a = BalanceOf(a);
  const int64_t before_b = BalanceOf(b);
  EXPECT_EQ(Transfer(a, b, 42, 0).status, TxnStatus::kCommitted);
  EXPECT_EQ(BalanceOf(a), before_a - 42);
  EXPECT_EQ(BalanceOf(b), before_b + 42);
  EXPECT_EQ(BalanceOf(a) + BalanceOf(b), before_a + before_b);
}

TEST_F(DistributedTxnTest, InsufficientBalanceAbortsCleanly) {
  // Drain the source almost fully first.
  (void)Transfer(pairs_.diff_a, pairs_.diff_b, 99, 0);
  // Balances start at 1000; transfer amounts are arg % 100, so exhaust
  // via repeated transfers and check the final abort changes nothing.
  TxnRequest request;
  request.procedure = ycsb::kMultiTransfer;
  request.key = pairs_.diff_a;
  request.num_extra_keys = 1;
  request.extra_keys[0] = pairs_.diff_b;
  request.arg = 99;
  while (executor_.Submit(request, 0).status == TxnStatus::kCommitted) {
  }
  const int64_t a = BalanceOf(pairs_.diff_a);
  const int64_t b = BalanceOf(pairs_.diff_b);
  EXPECT_LT(a, 99);
  EXPECT_EQ(executor_.Submit(request, 0).status, TxnStatus::kAborted);
  EXPECT_EQ(BalanceOf(pairs_.diff_a), a);
  EXPECT_EQ(BalanceOf(pairs_.diff_b), b);
}

TEST_F(DistributedTxnTest, DistributedCountOnlyAcrossPartitions) {
  EXPECT_EQ(executor_.distributed_count(), 0);
  (void)Transfer(pairs_.same_a, pairs_.same_b, 1, 0);
  EXPECT_EQ(executor_.distributed_count(), 0);  // same partition
  (void)Transfer(pairs_.diff_a, pairs_.diff_b, 1, 0);
  EXPECT_EQ(executor_.distributed_count(), 1);
}

TEST_F(DistributedTxnTest, DistributedTxnsPayCoordinationCost) {
  // Mean latency of idle-system transfers: cross-partition ones carry
  // 2PC overhead and the coordination delay.
  const int kTrials = 2000;
  SimTime now = 0;
  double same_total = 0.0;
  double diff_total = 0.0;
  for (int i = 0; i < kTrials; ++i) {
    now += kSecond;  // idle between submissions: no queueing
    Partition& p_same =
        cluster_.partition(cluster_.PartitionForKey(pairs_.same_a));
    const SimTime busy_before = p_same.busy_until();
    (void)Transfer(pairs_.same_a, pairs_.same_b, 1, now);
    same_total += ToSeconds(p_same.busy_until() - std::max(busy_before, now));
    now += kSecond;
    const SimTime start = now;
    (void)Transfer(pairs_.diff_a, pairs_.diff_b, 1, now);
    // Latency via metrics is aggregate; approximate with busy deltas on
    // both participants (max is what matters, but mean suffices here).
    Partition& pa =
        cluster_.partition(cluster_.PartitionForKey(pairs_.diff_a));
    Partition& pb =
        cluster_.partition(cluster_.PartitionForKey(pairs_.diff_b));
    diff_total += ToSeconds(
        std::max(pa.busy_until(), pb.busy_until()) - start);
  }
  // Per-participant service doubles (two_pc_overhead = 1.0), so the
  // max-of-two exponentials with doubled mean is clearly larger.
  EXPECT_GT(diff_total / kTrials, 1.5 * (same_total / kTrials));
}

TEST_F(DistributedTxnTest, TooManyExtraKeysRejected) {
  TxnRequest request;
  request.procedure = ycsb::kMultiTransfer;
  request.key = pairs_.diff_a;
  request.num_extra_keys = kMaxTxnKeys;  // one too many
  EXPECT_EQ(executor_.Submit(request, 0).status, TxnStatus::kAborted);
}

TEST(DistributedTxnRegistrationTest, IdCollisionAcrossTablesRejected) {
  Cluster cluster(TwoNodeCluster());
  TxnExecutor executor(&cluster, nullptr, ExecutorOptions{});
  ASSERT_TRUE(ycsb::Workload::RegisterProcedures(&executor).ok());
  // kMultiTransfer is taken; a single-key registration must fail too...
  // (RegisterProcedure only checks handlers_, so verify the multi table
  // guards its own id.)
  EXPECT_FALSE(executor
                   .RegisterMultiProcedure(
                       ycsb::kMultiTransfer,
                       [](const TxnContext*, int) {
                         return TxnResult{TxnStatus::kCommitted, 0};
                       },
                       1.0)
                   .ok());
}

TEST(DistributedTxnScalabilityTest, ThroughputDegradesWithMultiKeyShare) {
  // The §4.2 assumption, measured: at a fixed offered rate near the
  // knee, raising the distributed share saturates the cluster.
  auto worst_p99 = [](double multi_fraction) {
    Cluster cluster(TwoNodeCluster());
    MetricsCollector metrics(1.0);
    TxnExecutor executor(&cluster, &metrics, ExecutorOptions{});
    PSTORE_CHECK_OK(ycsb::Workload::RegisterProcedures(&executor));
    ycsb::YcsbWorkloadOptions options;
    options.record_count = 30000;
    options.multi_key_fraction = multi_fraction;
    ycsb::Workload workload(options);
    PSTORE_CHECK_OK(workload.LoadInitialData(&cluster));
    EventLoop loop;
    TimeSeries flat(1.0, std::vector<double>(240, 330.0));
    DriverOptions driver_options;
    driver_options.slot_sim_seconds = 1.0;
    driver_options.rate_factor = 1.0;
    driver_options.seed = 3;
    WorkloadDriver driver(
        &loop, &executor, flat,
        [&workload](Rng& rng) { return workload.NextTransaction(rng); },
        driver_options);
    driver.Start(240 * kSecond);
    loop.RunUntil(240 * kSecond);
    const auto windows = metrics.Finalize(240 * kSecond);
    double p99 = 0.0;
    for (size_t w = 60; w < windows.size(); ++w) {
      p99 = std::max(p99, windows[w].p99_ms);
    }
    return p99;
  };
  const double clean = worst_p99(0.0);
  const double heavy = worst_p99(0.30);
  EXPECT_LT(clean, 500.0);
  EXPECT_GT(heavy, 2.0 * clean);
}

// ---- Mixed-traffic golden run -----------------------------------------------

TxnResult TouchOne(const TxnContext& context) {
  Row row;
  row.payload_bytes = 64;
  row.f0 = static_cast<int64_t>(context.key);
  context.partition->Put(context.bucket, 0, context.key, row);
  TxnResult result;
  result.value = 1;
  return result;
}

TxnResult TouchMany(const TxnContext* contexts, int num_keys) {
  TxnResult result;
  for (int i = 0; i < num_keys; ++i) {
    Row row;
    row.payload_bytes = 64;
    row.f0 = static_cast<int64_t>(contexts[i].key);
    contexts[i].partition->Put(contexts[i].bucket, 0, contexts[i].key, row);
  }
  result.value = num_keys;
  return result;
}

// Mixed single-key and multi-key traffic (one key repeated on purpose,
// so same-partition fragments dedupe) over four nodes, with node 2 down
// from 2 s to 3 s: covers same-partition, same-node and cross-node
// multi-key transactions and the unavailable fast-fail after some keys
// were already routed. Returns rows, bytes, windows and counters.
std::string RunMixedTraffic() {
  ClusterOptions cluster_options;
  cluster_options.partitions_per_node = 2;
  cluster_options.max_nodes = 4;
  cluster_options.initial_nodes = 4;
  cluster_options.num_buckets = 256;
  Cluster cluster(cluster_options);
  MetricsCollector metrics(1.0);
  TxnExecutor executor(&cluster, &metrics, ExecutorOptions{});
  PSTORE_CHECK_OK(executor.RegisterProcedure(0, &TouchOne));
  PSTORE_CHECK_OK(executor.RegisterMultiProcedure(1, &TouchMany));

  EventLoop loop;
  auto rng = std::make_shared<Rng>(1234);
  for (int tick = 0; tick < 50; ++tick) {
    loop.ScheduleAt(tick * 100 * kMillisecond, [&, rng] {
      for (int i = 0; i < 20; ++i) {
        TxnRequest request;
        request.key = rng->NextUint64(100000);
        if (i % 3 == 0) {
          request.procedure = 1;
          request.num_extra_keys = 2;
          request.extra_keys[0] = rng->NextUint64(100000);
          request.extra_keys[1] = request.key;  // duplicate on purpose
        } else {
          request.procedure = 0;
        }
        executor.Submit(request, loop.now());
      }
    });
  }
  loop.ScheduleAt(2 * kSecond, [&cluster] { cluster.MarkNodeDown(2); });
  loop.ScheduleAt(3 * kSecond, [&cluster] { cluster.MarkNodeUp(2); });
  loop.RunUntil(6 * kSecond);

  std::string out;
  char buf[128];
  std::snprintf(buf, sizeof(buf), "rows %lld bytes %lld\n",
                static_cast<long long>(cluster.TotalRowCount()),
                static_cast<long long>(cluster.TotalDataBytes()));
  out += buf;
  for (const WindowStats& w : metrics.Finalize(6 * kSecond)) {
    std::snprintf(buf, sizeof(buf), "%lld/%lld/%lld %.17g/%.17g\n",
                  static_cast<long long>(w.submitted),
                  static_cast<long long>(w.completed),
                  static_cast<long long>(w.unavailable), w.p50_ms, w.p99_ms);
    out += buf;
  }
  std::snprintf(buf, sizeof(buf), "ctr %lld/%lld/%lld/%lld/%lld\n",
                static_cast<long long>(executor.submitted_count()),
                static_cast<long long>(executor.committed_count()),
                static_cast<long long>(executor.aborted_count()),
                static_cast<long long>(executor.distributed_count()),
                static_cast<long long>(executor.unavailable_count()));
  out += buf;
  return out;
}

// Every window and counter of the mixed-traffic run; re-record only for
// an intended change in simulated behaviour.
constexpr char kMixedTrafficGolden[] = R"golden(rows 1260 bytes 80640
200/191/0 78.960999999999999/265.59199999999998
200/205/0 66.397999999999996/223.33500000000001
200/155/49 66.397999999999996/223.33500000000001
200/181/10 78.960999999999999/265.59199999999998
200/204/0 72.406999999999996/204.80000000000001
0/5/0 121.77399999999999/141.10500000000002
ctr 1000/941/59/298/59
)golden";

TEST(DistributedTxnGoldenTest, MixedTrafficMatchesRecordedSnapshot) {
  EXPECT_EQ(RunMixedTraffic(), kMixedTrafficGolden);
}

}  // namespace
}  // namespace pstore
