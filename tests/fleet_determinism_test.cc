// Fleet determinism golden test: one simulated fleet must render
// byte-identical CSV no matter how many worker threads the forecast
// fan-out and per-tenant runs are spread over (the contract pstore_fleet
// advertises for --threads), and that CSV is pinned in both modes.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"
#include "fleet/fleet_simulator.h"
#include "fleet/tenant.h"

namespace pstore {
namespace fleet {
namespace {

std::vector<TenantSpec> GoldenMix() {
  TenantMixOptions mix;
  mix.b2w_tenants = 10;
  mix.wikipedia_tenants = 5;
  mix.ycsb_tenants = 5;
  mix.step_tenants = 5;
  mix.days = 2;
  mix.seed = 17;
  return MakeTenantMix(mix);
}

FleetOptions GoldenOptions() {
  FleetOptions options;
  options.eval_begin = 1440;  // evaluate the second day
  return options;
}

std::string RunCsv(FleetMode mode, int threads) {
  FleetSimulator simulator(GoldenOptions(), GoldenMix());
  ThreadPool pool(threads);
  const StatusOr<FleetResult> result = simulator.Simulate(mode, &pool);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  if (!result.ok()) return std::string();
  return FleetCsvRows(*result);
}

TEST(FleetDeterminismTest, FleetModeCsvIdenticalAcrossThreadCounts) {
  const std::string serial = RunCsv(FleetMode::kFleet, 1);
  ASSERT_FALSE(serial.empty());
  EXPECT_EQ(RunCsv(FleetMode::kFleet, 8), serial);
  EXPECT_EQ(RunCsv(FleetMode::kFleet, 3), serial);
}

TEST(FleetDeterminismTest, DedicatedModeCsvIdenticalAcrossThreadCounts) {
  const std::string serial = RunCsv(FleetMode::kDedicated, 1);
  ASSERT_FALSE(serial.empty());
  EXPECT_EQ(RunCsv(FleetMode::kDedicated, 8), serial);
}

TEST(FleetDeterminismTest, NullPoolMatchesThreadPool) {
  FleetSimulator simulator(GoldenOptions(), GoldenMix());
  const StatusOr<FleetResult> serial =
      simulator.Simulate(FleetMode::kFleet, nullptr);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  EXPECT_EQ(FleetCsvRows(*serial), RunCsv(FleetMode::kFleet, 8));
}

TEST(FleetDeterminismTest, CsvCarriesBothBlocks) {
  const std::string csv = RunCsv(FleetMode::kFleet, 2);
  EXPECT_NE(csv.find("mode,tenants"), std::string::npos);
  EXPECT_NE(csv.find("tenant,name,family"), std::string::npos);
  EXPECT_NE(csv.find("\n\n"), std::string::npos);  // blank separator line
}

// ---- Pinned output ----------------------------------------------------------

// The golden mix's full CSV in both modes. Any change to forecasting,
// packing or violation accounting that moves a single digit of the
// fleet's output fails here.
constexpr char kFleetModeGolden[] = R"golden(mode,tenants,eval_fine_slots,machine_slots,move_machine_slots,peak_machines,cycles,repacks,spike_replans,partition_moves,tenant_violation_slots,tenant_violation_fraction,tenants_violating_sla
fleet,25,1440,7950,1747.7999999999997,6,288,15,19,328,0,0,0

tenant,name,family,partitions,sla_target,peak_demand,mean_demand,violation_slots,violation_fraction,sla_met,moves
0,b2w-0,b2w,2,0.01,73.73427905083993,35.123184358799783,0,0,1,15
1,b2w-1,b2w,2,0.01,96.012511891873231,39.518351307883961,0,0,1,14
2,b2w-2,b2w,2,0.01,135.9975697790241,57.40679455966395,0,0,1,15
3,b2w-3,b2w,2,0.01,137.06665792269402,57.447786035973252,0,0,1,11
4,b2w-4,b2w,2,0.01,88.56076856312221,37.961466840143558,0,0,1,14
5,b2w-5,b2w,2,0.01,104.06380911804652,52.01668780251071,0,0,1,17
6,b2w-6,b2w,2,0.01,125.74082449186191,54.603891572106448,0,0,1,21
7,b2w-7,b2w,2,0.01,124.20489480677524,54.71946216202543,0,0,1,14
8,b2w-8,b2w,2,0.01,73.55221146753091,30.484198429331734,0,0,1,16
9,b2w-9,b2w,2,0.01,83.242728874423321,36.618944996153409,0,0,1,11
10,wiki-0,wikipedia,2,0.01,28.961233892022872,21.815754532066407,0,0,1,3
11,wiki-1,wikipedia,2,0.01,105.4486039210739,71.730596495901736,0,0,1,18
12,wiki-2,wikipedia,2,0.01,50.514948668623333,36.354571211766256,0,0,1,12
13,wiki-3,wikipedia,2,0.01,40.501857199524792,27.234025130377663,0,0,1,12
14,wiki-4,wikipedia,2,0.01,41.791602771414951,30.64807217863622,0,0,1,8
15,ycsb-0,ycsb,2,0.01,36.664222950213123,29.492779911161168,0,0,1,17
16,ycsb-1,ycsb,2,0.01,31.678455824081933,27.04288707677545,0,0,1,4
17,ycsb-2,ycsb,2,0.01,41.311039410661685,31.695216722151308,0,0,1,13
18,ycsb-3,ycsb,2,0.01,120.71215125493124,94.389347098637174,0,0,1,16
19,ycsb-4,ycsb,2,0.01,60.567704475772111,46.953075564437718,0,0,1,22
20,step-0,step,2,0.01,106.34804447949908,85.743110861595923,0,0,1,19
21,step-1,step,2,0.01,31.602968391490368,28.126641868426081,0,0,1,8
22,step-2,step,2,0.01,55.968320403346262,45.404299927213202,0,0,1,12
23,step-3,step,2,0.01,65.270138890384857,47.45683015155165,0,0,1,12
24,step-4,step,2,0.01,35.157186780994628,25.82588345620589,0,0,1,4
)golden";

constexpr char kDedicatedModeGolden[] = R"golden(mode,tenants,eval_fine_slots,machine_slots,move_machine_slots,peak_machines,cycles,repacks,spike_replans,partition_moves,tenant_violation_slots,tenant_violation_fraction,tenants_violating_sla
dedicated,25,1440,36000,0,25,288,0,20,0,0,0,0

tenant,name,family,partitions,sla_target,peak_demand,mean_demand,violation_slots,violation_fraction,sla_met,moves
0,b2w-0,b2w,2,0.01,73.73427905083993,35.123184358799783,0,0,1,0
1,b2w-1,b2w,2,0.01,96.012511891873231,39.518351307883961,0,0,1,0
2,b2w-2,b2w,2,0.01,135.9975697790241,57.40679455966395,0,0,1,0
3,b2w-3,b2w,2,0.01,137.06665792269402,57.447786035973252,0,0,1,0
4,b2w-4,b2w,2,0.01,88.56076856312221,37.961466840143558,0,0,1,0
5,b2w-5,b2w,2,0.01,104.06380911804652,52.01668780251071,0,0,1,0
6,b2w-6,b2w,2,0.01,125.74082449186191,54.603891572106448,0,0,1,0
7,b2w-7,b2w,2,0.01,124.20489480677524,54.71946216202543,0,0,1,0
8,b2w-8,b2w,2,0.01,73.55221146753091,30.484198429331734,0,0,1,0
9,b2w-9,b2w,2,0.01,83.242728874423321,36.618944996153409,0,0,1,0
10,wiki-0,wikipedia,2,0.01,28.961233892022872,21.815754532066407,0,0,1,0
11,wiki-1,wikipedia,2,0.01,105.4486039210739,71.730596495901736,0,0,1,0
12,wiki-2,wikipedia,2,0.01,50.514948668623333,36.354571211766256,0,0,1,0
13,wiki-3,wikipedia,2,0.01,40.501857199524792,27.234025130377663,0,0,1,0
14,wiki-4,wikipedia,2,0.01,41.791602771414951,30.64807217863622,0,0,1,0
15,ycsb-0,ycsb,2,0.01,36.664222950213123,29.492779911161168,0,0,1,0
16,ycsb-1,ycsb,2,0.01,31.678455824081933,27.04288707677545,0,0,1,0
17,ycsb-2,ycsb,2,0.01,41.311039410661685,31.695216722151308,0,0,1,0
18,ycsb-3,ycsb,2,0.01,120.71215125493124,94.389347098637174,0,0,1,0
19,ycsb-4,ycsb,2,0.01,60.567704475772111,46.953075564437718,0,0,1,0
20,step-0,step,2,0.01,106.34804447949908,85.743110861595923,0,0,1,0
21,step-1,step,2,0.01,31.602968391490368,28.126641868426081,0,0,1,0
22,step-2,step,2,0.01,55.968320403346262,45.404299927213202,0,0,1,0
23,step-3,step,2,0.01,65.270138890384857,47.45683015155165,0,0,1,0
24,step-4,step,2,0.01,35.157186780994628,25.82588345620589,0,0,1,0
)golden";

TEST(FleetDeterminismTest, FleetModeCsvMatchesGolden) {
  EXPECT_EQ(RunCsv(FleetMode::kFleet, 2), kFleetModeGolden);
}

TEST(FleetDeterminismTest, DedicatedModeCsvMatchesGolden) {
  EXPECT_EQ(RunCsv(FleetMode::kDedicated, 2), kDedicatedModeGolden);
}

}  // namespace
}  // namespace fleet
}  // namespace pstore
