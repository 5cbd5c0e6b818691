#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "common/strong_id.h"
#include "common/thread_pool.h"
#include "common/time_series.h"
#include "fleet/fleet_controller.h"
#include "fleet/fleet_simulator.h"
#include "fleet/placement.h"
#include "fleet/tenant.h"
#include "planner/move_model.h"
#include "planner/move_model_table.h"
#include "prediction/online_predictor.h"
#include "sim/run_spec.h"

namespace pstore {
namespace fleet {
namespace {

// ---- interference model ----------------------------------------------------

TEST(EffectiveCapacityTest, SingleTenantPaysNoInterference) {
  PlacementOptions options;
  options.machine_capacity = 300.0;
  options.interference_per_tenant = 0.05;
  EXPECT_DOUBLE_EQ(EffectiveMachineCapacity(options, 0), 300.0);
  EXPECT_DOUBLE_EQ(EffectiveMachineCapacity(options, 1), 300.0);
}

TEST(EffectiveCapacityTest, MonotonicallyNonIncreasingInTenantCount) {
  PlacementOptions options;
  options.machine_capacity = 300.0;
  options.interference_per_tenant = 0.05;
  options.min_capacity_fraction = 0.5;
  double previous = EffectiveMachineCapacity(options, 1);
  for (int tenants = 2; tenants <= 30; ++tenants) {
    const double capacity = EffectiveMachineCapacity(options, tenants);
    EXPECT_LE(capacity, previous) << "tenants=" << tenants;
    previous = capacity;
  }
  // 1 - 0.05 * (3 - 1) = 0.9.
  EXPECT_DOUBLE_EQ(EffectiveMachineCapacity(options, 3), 270.0);
}

TEST(EffectiveCapacityTest, FloorsAtMinCapacityFraction) {
  PlacementOptions options;
  options.machine_capacity = 300.0;
  options.interference_per_tenant = 0.05;
  options.min_capacity_fraction = 0.5;
  // 100 tenants would nominally degrade far past the floor.
  EXPECT_DOUBLE_EQ(EffectiveMachineCapacity(options, 100), 150.0);
}

TEST(EffectiveCapacityTest, ServeCapacityUsesCallerLimit) {
  PlacementOptions options;
  options.machine_capacity = 285.0;
  options.interference_per_tenant = 0.02;
  EXPECT_DOUBLE_EQ(EffectiveServeCapacity(options, 350.0, 2),
                   350.0 * 0.98);
}

// ---- packer ----------------------------------------------------------------

PlacementOptions SmallPoolOptions() {
  PlacementOptions options;
  options.machine_capacity = 100.0;
  options.interference_per_tenant = 0.0;
  return options;
}

TEST(PlacementPlannerTest, RespectsMachineCapacity) {
  PlacementPlanner planner(SmallPoolOptions(), nullptr);
  // Four tenants of 60 each, one partition apiece: no two items can
  // share a machine (60 + 60 > 100), so the pack needs four machines.
  const StatusOr<Placement> packed =
      planner.Pack({60.0, 60.0, 60.0, 60.0}, {1, 1, 1, 1}, nullptr);
  ASSERT_TRUE(packed.ok()) << packed.status().ToString();
  EXPECT_EQ(packed->machines_used, 4);
  for (size_t m = 0; m < packed->machine_load.size(); ++m) {
    EXPECT_LE(packed->machine_load[m], 100.0);
  }
}

TEST(PlacementPlannerTest, BinPacksSubMachineTenants) {
  PlacementPlanner planner(SmallPoolOptions(), nullptr);
  // Eight tenants of 25 each fit exactly onto two machines.
  const StatusOr<Placement> packed = planner.Pack(
      std::vector<double>(8, 25.0), std::vector<int>(8, 1), nullptr);
  ASSERT_TRUE(packed.ok()) << packed.status().ToString();
  EXPECT_EQ(packed->machines_used, 2);
}

TEST(PlacementPlannerTest, InterferenceReducesCoLocation) {
  PlacementOptions options = SmallPoolOptions();
  const StatusOr<Placement> no_interference =
      PlacementPlanner(options, nullptr)
          .Pack(std::vector<double>(8, 24.0), std::vector<int>(8, 1),
                nullptr);
  ASSERT_TRUE(no_interference.ok());

  options.interference_per_tenant = 0.1;  // 4 co-tenants cost 30%
  const StatusOr<Placement> with_interference =
      PlacementPlanner(options, nullptr)
          .Pack(std::vector<double>(8, 24.0), std::vector<int>(8, 1),
                nullptr);
  ASSERT_TRUE(with_interference.ok());
  EXPECT_GT(with_interference->machines_used,
            no_interference->machines_used);
}

TEST(PlacementPlannerTest, SameTenantPartitionsDoNotInterfere) {
  PlacementOptions options = SmallPoolOptions();
  options.interference_per_tenant = 0.5;
  // One tenant, four partitions of 24: all fit on one machine because
  // co-locating the same tenant is interference-free.
  const StatusOr<Placement> packed =
      PlacementPlanner(options, nullptr).Pack({96.0}, {4}, nullptr);
  ASSERT_TRUE(packed.ok());
  EXPECT_EQ(packed->machines_used, 1);
}

TEST(PlacementPlannerTest, DeterministicAcrossRepeatedPacks) {
  PlacementPlanner planner(SmallPoolOptions(), nullptr);
  const std::vector<double> demand = {40.0, 40.0, 30.0, 30.0, 20.0, 20.0};
  const std::vector<int> partitions = {2, 1, 1, 2, 1, 1};
  const StatusOr<Placement> first = planner.Pack(demand, partitions, nullptr);
  const StatusOr<Placement> second =
      planner.Pack(demand, partitions, nullptr);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  ASSERT_EQ(first->machine.size(), second->machine.size());
  for (size_t i = 0; i < first->machine.size(); ++i) {
    EXPECT_EQ(first->machine[i], second->machine[i]) << "partition " << i;
  }
}

TEST(PlacementPlannerTest, EqualDemandTieBreaksByLowestIndex) {
  PlacementPlanner planner(SmallPoolOptions(), nullptr);
  // Two identical items: the lower flat index must land on the lower
  // machine id (demand ties break by index, machines by id).
  const StatusOr<Placement> packed =
      planner.Pack({60.0, 60.0}, {1, 1}, nullptr);
  ASSERT_TRUE(packed.ok());
  EXPECT_EQ(packed->machine[0], MachineId(0));
  EXPECT_EQ(packed->machine[1], MachineId(1));
}

TEST(PlacementPlannerTest, IncrementalKeepsFittingPartitionsPut) {
  PlacementPlanner planner(SmallPoolOptions(), nullptr);
  const std::vector<int> partitions = {1, 1, 1};
  const StatusOr<Placement> initial =
      planner.Pack({48.0, 30.0, 20.0}, partitions, nullptr);
  ASSERT_TRUE(initial.ok());
  // Mild demand drift that still fits everywhere: nothing moves.
  const StatusOr<Placement> next =
      planner.Pack({49.0, 29.0, 21.0}, partitions, &*initial);
  ASSERT_TRUE(next.ok());
  EXPECT_EQ(next->moved_partitions, 0);
  EXPECT_FALSE(next->repacked);
  for (size_t i = 0; i < next->machine.size(); ++i) {
    EXPECT_EQ(next->machine[i], initial->machine[i]);
  }
}

TEST(PlacementPlannerTest, IncrementalEvictsFromOverloadedMachine) {
  PlacementPlanner planner(SmallPoolOptions(), nullptr);
  const std::vector<int> partitions = {1, 1};
  const StatusOr<Placement> initial =
      planner.Pack({50.0, 40.0}, partitions, nullptr);
  ASSERT_TRUE(initial.ok());
  EXPECT_EQ(initial->machines_used, 1);
  // Tenant 0 grows past what the shared machine can hold: someone moves.
  const StatusOr<Placement> next =
      planner.Pack({80.0, 40.0}, partitions, &*initial);
  ASSERT_TRUE(next.ok());
  EXPECT_EQ(next->machines_used, 2);
  EXPECT_EQ(next->moved_partitions, 1);
}

TEST(PlacementPlannerTest, IncrementalEvictsSeveralFromOneMachine) {
  PlacementPlanner planner(SmallPoolOptions(), nullptr);
  const std::vector<int> partitions = {1, 1, 1};
  const StatusOr<Placement> initial =
      planner.Pack({34.0, 33.0, 33.0}, partitions, nullptr);
  ASSERT_TRUE(initial.ok());
  EXPECT_EQ(initial->machines_used, 1);
  // Every tenant nearly doubles: the shared machine is over by more
  // than its largest item, so lifting the overload takes two distinct
  // evictions (a single victim must not be evicted twice).
  const StatusOr<Placement> next =
      planner.Pack({60.0, 60.0, 60.0}, partitions, &*initial);
  ASSERT_TRUE(next.ok());
  EXPECT_EQ(next->machines_used, 3);
  EXPECT_EQ(next->moved_partitions, 2);
  EXPECT_NE(next->machine[0], next->machine[1]);
  EXPECT_NE(next->machine[0], next->machine[2]);
  EXPECT_NE(next->machine[1], next->machine[2]);
  double total_load = 0.0;
  for (size_t m = 0; m < next->machine_load.size(); ++m) {
    EXPECT_LE(next->machine_load[m], 100.0);
    total_load += next->machine_load[m];
  }
  EXPECT_DOUBLE_EQ(total_load, 180.0);
}

TEST(PlacementPlannerTest, RepackEconomicsGateConsolidation) {
  // After a demand collapse the sticky pack strands machines; whether
  // the consolidating repack is adopted depends on the priced churn.
  PlannerParams params;
  const MoveModelTable table(params, NodeCount(64));
  const std::vector<int> partitions(8, 1);
  const std::vector<double> high(8, 60.0);
  const std::vector<double> low(8, 10.0);

  PlacementOptions cheap_moves = SmallPoolOptions();
  cheap_moves.partition_move_cost = 0.0;
  {
    PlacementPlanner planner(cheap_moves, &table);
    const StatusOr<Placement> initial =
        planner.Pack(high, partitions, nullptr);
    ASSERT_TRUE(initial.ok());
    EXPECT_EQ(initial->machines_used, 8);
    const StatusOr<Placement> next =
        planner.Pack(low, partitions, &*initial);
    ASSERT_TRUE(next.ok());
    EXPECT_TRUE(next->repacked);
    EXPECT_EQ(next->machines_used, 1);
  }

  PlacementOptions dear_moves = SmallPoolOptions();
  dear_moves.partition_move_cost = 1e9;  // any churn outweighs savings
  {
    PlacementPlanner planner(dear_moves, &table);
    const StatusOr<Placement> initial =
        planner.Pack(high, partitions, nullptr);
    ASSERT_TRUE(initial.ok());
    const StatusOr<Placement> next =
        planner.Pack(low, partitions, &*initial);
    ASSERT_TRUE(next.ok());
    EXPECT_FALSE(next->repacked);
    EXPECT_EQ(next->machines_used, 8);  // stranded, but no churn paid
  }
}

TEST(PlacementPlannerTest, RejectsMalformedInput) {
  PlacementPlanner planner(SmallPoolOptions(), nullptr);
  EXPECT_FALSE(planner.Pack({1.0}, {1, 1}, nullptr).ok());
  EXPECT_FALSE(planner.Pack({1.0}, {0}, nullptr).ok());
  EXPECT_FALSE(planner.Pack({-1.0}, {1}, nullptr).ok());
  const StatusOr<Placement> initial = planner.Pack({1.0}, {1}, nullptr);
  ASSERT_TRUE(initial.ok());
  EXPECT_FALSE(planner.Pack({1.0, 2.0}, {1, 1}, &*initial).ok());
}

// ---- differential packer test ---------------------------------------------
//
// A reference copy of the original packer: one ordered map of resident
// tenants per machine, every machine tested through map lookups, items
// sorted one by one. PlacementPlanner must reproduce it exactly,
// including every bit of machine_load.

namespace reference {

class Pool {
 public:
  explicit Pool(const PlacementOptions& options) : options_(&options) {}

  size_t size() const { return load_.size(); }
  double load(size_t m) const { return load_[m]; }
  int64_t partitions(size_t m) const { return partitions_[m]; }
  int distinct_tenants(size_t m) const {
    return static_cast<int>(tenants_[m].size());
  }

  void EnsureMachine(size_t m) {
    if (m >= load_.size()) {
      load_.resize(m + 1, 0.0);
      partitions_.resize(m + 1, 0);
      tenants_.resize(m + 1);
    }
  }

  double CapacityWith(size_t m, int tenant) const {
    int distinct = distinct_tenants(m);
    if (tenants_[m].find(tenant) == tenants_[m].end()) ++distinct;
    return EffectiveMachineCapacity(*options_, distinct);
  }

  bool Fits(size_t m, double demand, int tenant) const {
    return load_[m] + demand <= CapacityWith(m, tenant);
  }

  void Add(size_t m, double demand, int tenant) {
    EnsureMachine(m);
    load_[m] += demand;
    ++partitions_[m];
    ++tenants_[m][tenant];
  }

  void Remove(size_t m, double demand, int tenant) {
    load_[m] -= demand;
    --partitions_[m];
    auto it = tenants_[m].find(tenant);
    if (it != tenants_[m].end() && --it->second == 0) tenants_[m].erase(it);
    if (partitions_[m] == 0) load_[m] = 0.0;
  }

  bool Overloaded(size_t m) const {
    return load_[m] >
           EffectiveMachineCapacity(*options_, distinct_tenants(m));
  }

  int MachinesUsed() const {
    int used = 0;
    for (size_t m = 0; m < partitions_.size(); ++m) {
      if (partitions_[m] > 0) ++used;
    }
    return used;
  }

 private:
  const PlacementOptions* options_;
  std::vector<double> load_;
  std::vector<int64_t> partitions_;
  std::vector<std::map<int, int>> tenants_;
};

constexpr size_t kNone = static_cast<size_t>(-1);

bool DemandThenIndex(const std::vector<double>& demand, size_t a, size_t b) {
  if (demand[a] != demand[b]) return demand[a] > demand[b];
  return a < b;
}

size_t BestFit(const Pool& pool, double demand, int tenant) {
  size_t best = kNone;
  double best_remaining = 0.0;
  for (size_t m = 0; m < pool.size(); ++m) {
    if (!pool.Fits(m, demand, tenant)) continue;
    const double remaining =
        pool.CapacityWith(m, tenant) - (pool.load(m) + demand);
    if (best == kNone || remaining < best_remaining) {
      best = m;
      best_remaining = remaining;
    }
  }
  return best;
}

size_t LowestFreeMachine(const Pool& pool) {
  for (size_t m = 0; m < pool.size(); ++m) {
    if (pool.partitions(m) == 0) return m;
  }
  return pool.size();
}

Placement Finalize(const Pool& pool, std::vector<size_t> offsets,
                   std::vector<MachineId> machine,
                   const Placement* previous) {
  Placement placement;
  placement.partition_offset = std::move(offsets);
  placement.machine = std::move(machine);
  for (size_t m = 0; m < pool.size(); ++m) {
    placement.machine_load.push_back(pool.load(m));
    placement.machine_partitions.push_back(pool.partitions(m));
    placement.machine_tenant_counts.push_back(pool.distinct_tenants(m));
  }
  placement.machines_used = pool.MachinesUsed();
  if (previous != nullptr) {
    for (size_t i = 0; i < placement.machine.size(); ++i) {
      if (placement.machine[i] != previous->machine[i]) {
        ++placement.moved_partitions;
      }
    }
  }
  return placement;
}

class Planner {
 public:
  Planner(const PlacementOptions& options, const MoveModelTable* table)
      : options_(options), table_(table) {}

  StatusOr<Placement> Pack(const std::vector<double>& tenant_demand,
                           const std::vector<int>& tenant_partitions,
                           const Placement* previous) const {
    std::vector<size_t> offsets(tenant_demand.size() + 1, 0);
    for (size_t t = 0; t < tenant_demand.size(); ++t) {
      offsets[t + 1] = offsets[t] + static_cast<size_t>(tenant_partitions[t]);
    }
    std::vector<double> item_demand(offsets.back());
    std::vector<int> item_tenant(offsets.back());
    for (size_t t = 0; t < tenant_demand.size(); ++t) {
      for (size_t i = offsets[t]; i < offsets[t + 1]; ++i) {
        item_demand[i] =
            tenant_demand[t] / static_cast<double>(tenant_partitions[t]);
        item_tenant[i] = static_cast<int>(t);
      }
    }
    if (previous != nullptr) {
      return PackIncremental(item_demand, item_tenant, offsets, *previous);
    }
    return PackFresh(item_demand, item_tenant, offsets);
  }

 private:
  StatusOr<Placement> PackFresh(const std::vector<double>& item_demand,
                                const std::vector<int>& item_tenant,
                                const std::vector<size_t>& offsets) const {
    Pool pool(options_);
    std::vector<MachineId> machine(item_demand.size(), MachineId(0));
    std::vector<size_t> order(item_demand.size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      return DemandThenIndex(item_demand, a, b);
    });
    for (size_t item : order) {
      size_t target = BestFit(pool, item_demand[item], item_tenant[item]);
      if (target == kNone) {
        target = pool.size();
        if (target >= static_cast<size_t>(options_.max_machines)) {
          return Status::OutOfRange("max_machines");
        }
      }
      pool.Add(target, item_demand[item], item_tenant[item]);
      machine[item] = MachineId(static_cast<int>(target));
    }
    Placement placement = Finalize(pool, offsets, std::move(machine), nullptr);
    placement.repacked = true;
    return placement;
  }

  StatusOr<Placement> PackIncremental(const std::vector<double>& item_demand,
                                      const std::vector<int>& item_tenant,
                                      const std::vector<size_t>& offsets,
                                      const Placement& previous) const {
    Pool pool(options_);
    std::vector<MachineId> machine = previous.machine;
    for (size_t i = 0; i < machine.size(); ++i) {
      pool.Add(static_cast<size_t>(machine[i].value()), item_demand[i],
               item_tenant[i]);
    }
    std::vector<size_t> evicted;
    std::vector<bool> is_evicted(machine.size(), false);
    for (size_t m = 0; m < pool.size(); ++m) {
      while (pool.partitions(m) > 1 && pool.Overloaded(m)) {
        size_t victim = kNone;
        for (size_t i = 0; i < machine.size(); ++i) {
          if (is_evicted[i]) continue;
          if (static_cast<size_t>(machine[i].value()) != m) continue;
          if (victim == kNone || item_demand[i] > item_demand[victim]) {
            victim = i;
          }
        }
        if (victim == kNone) break;
        pool.Remove(m, item_demand[victim], item_tenant[victim]);
        is_evicted[victim] = true;
        evicted.push_back(victim);
      }
    }
    std::sort(evicted.begin(), evicted.end(), [&](size_t a, size_t b) {
      return DemandThenIndex(item_demand, a, b);
    });
    for (size_t item : evicted) {
      size_t target = BestFit(pool, item_demand[item], item_tenant[item]);
      if (target == kNone) {
        target = LowestFreeMachine(pool);
        if (target >= static_cast<size_t>(options_.max_machines)) {
          return Status::OutOfRange("max_machines");
        }
      }
      pool.Add(target, item_demand[item], item_tenant[item]);
      machine[item] = MachineId(static_cast<int>(target));
    }
    Placement sticky = Finalize(pool, offsets, std::move(machine), &previous);

    double total = 0.0;
    for (double d : item_demand) total += d;
    const double best_case_capacity = EffectiveMachineCapacity(options_, 1);
    const int lower_bound = static_cast<int>(
        std::ceil(total / (best_case_capacity > 0.0 ? best_case_capacity
                                                    : 1.0)));
    if (sticky.machines_used > lower_bound) {
      StatusOr<Placement> fresh = PackFresh(item_demand, item_tenant, offsets);
      if (!fresh.ok()) return sticky;
      const int saved = sticky.machines_used - fresh->machines_used;
      if (saved > 0) {
        double resize_cost = 0.0;
        if (table_ != nullptr &&
            table_->Covers(NodeCount(sticky.machines_used),
                           NodeCount(fresh->machines_used))) {
          resize_cost = table_->MoveCost(NodeCount(sticky.machines_used),
                                         NodeCount(fresh->machines_used));
        }
        fresh->moved_partitions = 0;
        for (size_t i = 0; i < fresh->machine.size(); ++i) {
          if (fresh->machine[i] != previous.machine[i]) {
            ++fresh->moved_partitions;
          }
        }
        const int64_t extra_moves =
            fresh->moved_partitions > sticky.moved_partitions
                ? fresh->moved_partitions - sticky.moved_partitions
                : 0;
        if (static_cast<double>(saved) *
                static_cast<double>(options_.repack_amortize_slots) >
            resize_cost + options_.partition_move_cost *
                              static_cast<double>(extra_moves)) {
          return fresh;
        }
      }
    }
    return sticky;
  }

  PlacementOptions options_;
  const MoveModelTable* table_;
};

}  // namespace reference

// Every Placement field equal, machine_load bit for bit; a failed pack
// must fail with the same code.
void ExpectSamePlacement(const StatusOr<Placement>& want,
                         const StatusOr<Placement>& got,
                         const std::string& where) {
  SCOPED_TRACE(where);
  ASSERT_EQ(want.ok(), got.ok()) << got.status().ToString();
  if (!want.ok()) {
    EXPECT_EQ(want.status().code(), got.status().code());
    return;
  }
  EXPECT_EQ(want->partition_offset, got->partition_offset);
  ASSERT_EQ(want->machine.size(), got->machine.size());
  for (size_t i = 0; i < want->machine.size(); ++i) {
    ASSERT_EQ(want->machine[i], got->machine[i]) << "partition " << i;
  }
  ASSERT_EQ(want->machine_load.size(), got->machine_load.size());
  for (size_t m = 0; m < want->machine_load.size(); ++m) {
    EXPECT_EQ(std::bit_cast<uint64_t>(want->machine_load[m]),
              std::bit_cast<uint64_t>(got->machine_load[m]))
        << "machine " << m << ": " << want->machine_load[m] << " vs "
        << got->machine_load[m];
  }
  EXPECT_EQ(want->machine_partitions, got->machine_partitions);
  EXPECT_EQ(want->machine_tenant_counts, got->machine_tenant_counts);
  EXPECT_EQ(want->machines_used, got->machines_used);
  EXPECT_EQ(want->moved_partitions, got->moved_partitions);
  EXPECT_EQ(want->repacked, got->repacked);
}

struct RandomFleet {
  std::vector<double> demand;
  std::vector<int> partitions;
};

// `tenants` tenants of 1-4 partitions. With `ties`, every partition's
// share is one of four values, so equal-demand items abound; otherwise
// tenant demand is log-uniform over [0.5, 400).
RandomFleet MakeRandomFleet(Rng* rng, size_t tenants, bool ties) {
  RandomFleet fleet;
  for (size_t t = 0; t < tenants; ++t) {
    const int partitions = 1 + static_cast<int>(rng->NextUint64(4));
    fleet.partitions.push_back(partitions);
    if (ties) {
      static const double kShares[] = {7.5, 15.0, 30.0, 60.0};
      fleet.demand.push_back(kShares[rng->NextUint64(4)] *
                             static_cast<double>(partitions));
    } else {
      fleet.demand.push_back(
          std::exp(rng->NextDouble(std::log(0.5), std::log(400.0))));
    }
  }
  return fleet;
}

PlacementOptions DifferentialOptions(int variant) {
  PlacementOptions options;  // Q 285, 2% per extra tenant, floor 0.5
  if (variant == 1) options.interference_per_tenant = 0.07;
  if (variant == 2) options.interference_per_tenant = 0.0;
  return options;
}

TEST(PlacementDifferentialTest, FreshPacksMatchReference) {
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    Rng rng(seed);
    const int variant = static_cast<int>(seed % 3);
    const PlacementOptions options = DifferentialOptions(variant);
    const RandomFleet fleet =
        MakeRandomFleet(&rng, 20 + rng.NextUint64(300), seed % 2 == 0);
    ExpectSamePlacement(
        reference::Planner(options, nullptr)
            .Pack(fleet.demand, fleet.partitions, nullptr),
        PlacementPlanner(options, nullptr)
            .Pack(fleet.demand, fleet.partitions, nullptr),
        "seed " + std::to_string(seed));
  }
}

TEST(PlacementDifferentialTest, EqualDemandTiesMatchReference) {
  // Five possible shares, and capacities and shares that are small
  // dyadic numbers so every sum is exact: items tie on demand and
  // machines tie on remaining capacity, and only the tie-break rules
  // decide.
  PlacementOptions options;
  options.machine_capacity = 128.0;
  options.interference_per_tenant = 0.125;
  options.min_capacity_fraction = 0.25;
  static const double kShares[] = {8.0, 16.0, 24.0, 32.0, 48.0};
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    Rng rng(200 + seed);
    std::vector<double> demand;
    std::vector<int> parts;
    for (int t = 0; t < 120; ++t) {
      parts.push_back(1 + static_cast<int>(rng.NextUint64(4)));
      demand.push_back(kShares[rng.NextUint64(5)] *
                       static_cast<double>(parts.back()));
    }
    const StatusOr<Placement> want =
        reference::Planner(options, nullptr).Pack(demand, parts, nullptr);
    const StatusOr<Placement> got =
        PlacementPlanner(options, nullptr).Pack(demand, parts, nullptr);
    ExpectSamePlacement(want, got, "fresh, seed " + std::to_string(seed));
    ASSERT_TRUE(got.ok());
    for (double& d : demand) d *= static_cast<double>(1 + rng.NextUint64(2));
    ExpectSamePlacement(
        reference::Planner(options, nullptr).Pack(demand, parts, &*want),
        PlacementPlanner(options, nullptr).Pack(demand, parts, &*got),
        "incremental, seed " + std::to_string(seed));
  }
}

TEST(PlacementDifferentialTest, FitTestKeepsItsRounding) {
  // 204.49 + 80.51 rounds to exactly 285, so the second tenant fits the
  // first one's machine, although 285 - 204.49 rounds below 80.51: a
  // fit test or filter built on `capacity - load` would open a second
  // machine.
  PlacementOptions options;
  options.interference_per_tenant = 0.0;
  const std::vector<double> demand = {204.49, 80.51};
  const std::vector<int> parts = {1, 1};
  const StatusOr<Placement> got =
      PlacementPlanner(options, nullptr).Pack(demand, parts, nullptr);
  ExpectSamePlacement(
      reference::Planner(options, nullptr).Pack(demand, parts, nullptr), got,
      "fit edge");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->machines_used, 1);
}

TEST(PlacementDifferentialTest, ResidentMachineTieGoesToLowestId) {
  // Q 128 and 1/8 per extra tenant: capacity 128, 112, 96, ... down to
  // the floor of 32 at seven tenants. Tenant 0's second partition is
  // evicted from machine 17 and must choose between machine 0, where its
  // first partition lives, and machine 16, which it would newly join;
  // both leave exactly 0. The lower id wins even though machine 0's
  // neighbours are too full for any newcomer.
  PlacementOptions options;
  options.machine_capacity = 128.0;
  options.interference_per_tenant = 0.125;
  options.min_capacity_fraction = 0.25;
  options.partition_move_cost = 1e9;  // keep the sticky pack
  std::vector<double> demand = {32.0, 80.0};  // tenant 0 (2 x 16), G
  std::vector<int> parts = {2, 1};
  std::vector<MachineId> machine = {MachineId(0), MachineId(17),
                                    MachineId(0)};
  for (int m = 1; m <= 15; ++m) {  // full single-tenant machines
    demand.push_back(128.0);
    parts.push_back(1);
    machine.push_back(MachineId(m));
  }
  demand.push_back(96.0);  // machine 16: room for exactly 16 more
  parts.push_back(1);
  machine.push_back(MachineId(16));
  for (int x = 0; x < 6; ++x) {  // machine 17: six small co-tenants
    demand.push_back(8.0);
    parts.push_back(1);
    machine.push_back(MachineId(17));
  }
  Placement previous;
  previous.partition_offset.push_back(0);
  for (int p : parts) {
    previous.partition_offset.push_back(previous.partition_offset.back() +
                                        static_cast<size_t>(p));
  }
  previous.machine = machine;

  const StatusOr<Placement> got =
      PlacementPlanner(options, nullptr).Pack(demand, parts, &previous);
  ExpectSamePlacement(
      reference::Planner(options, nullptr).Pack(demand, parts, &previous),
      got, "resident tie");
  ASSERT_TRUE(got.ok());
  EXPECT_FALSE(got->repacked);
  EXPECT_EQ(got->moved_partitions, 1);
  EXPECT_EQ(got->machine[1], MachineId(0));
}

TEST(PlacementDifferentialTest, IncrementalChainsMatchReference) {
  PlannerParams params;
  const MoveModelTable table(params, NodeCount(256));
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    Rng rng(100 + seed);
    const PlacementOptions options =
        DifferentialOptions(static_cast<int>(seed % 3));
    const MoveModelTable* move_table = seed % 2 == 0 ? &table : nullptr;
    const reference::Planner want_planner(options, move_table);
    const PlacementPlanner got_planner(options, move_table);
    RandomFleet fleet = MakeRandomFleet(&rng, 150, seed == 3);
    StatusOr<Placement> previous =
        got_planner.Pack(fleet.demand, fleet.partitions, nullptr);
    ASSERT_TRUE(previous.ok());
    int adopted_repacks = 0;
    int64_t moves = 0;
    for (int cycle = 1; cycle <= 60; ++cycle) {
      // Random walk, with a fleet-wide surge at cycle 15 (evictions)
      // and a collapse at cycle 30 (a stranded pool worth repacking).
      for (double& d : fleet.demand) {
        d *= std::exp(0.25 * rng.NextGaussian());
        if (cycle == 15) d *= 2.5;
        if (cycle == 30) d *= 0.2;
      }
      const std::string where =
          "seed " + std::to_string(seed) + " cycle " + std::to_string(cycle);
      StatusOr<Placement> want =
          want_planner.Pack(fleet.demand, fleet.partitions, &*previous);
      StatusOr<Placement> got =
          got_planner.Pack(fleet.demand, fleet.partitions, &*previous);
      ExpectSamePlacement(want, got, where);
      ASSERT_TRUE(got.ok()) << where;
      if (got->repacked) ++adopted_repacks;
      moves += got->moved_partitions;
      previous = std::move(got);
    }
    EXPECT_GE(adopted_repacks, 1) << "seed " << seed;
    EXPECT_GT(moves, 0) << "seed " << seed;
  }
}

TEST(PlacementDifferentialTest, CapacityFloorMatchesReference) {
  // Hundreds of tiny tenants crowd each machine past 26 distinct
  // tenants, where 1 - 0.02 * (n - 1) drops below the 0.5 floor.
  const PlacementOptions options = DifferentialOptions(0);
  Rng rng(7);
  RandomFleet fleet;
  for (int t = 0; t < 400; ++t) {
    fleet.partitions.push_back(1 + static_cast<int>(rng.NextUint64(4)));
    fleet.demand.push_back(rng.NextDouble(0.2, 1.5));
  }
  const StatusOr<Placement> want =
      reference::Planner(options, nullptr)
          .Pack(fleet.demand, fleet.partitions, nullptr);
  const StatusOr<Placement> got =
      PlacementPlanner(options, nullptr)
          .Pack(fleet.demand, fleet.partitions, nullptr);
  ExpectSamePlacement(want, got, "fresh");
  ASSERT_TRUE(got.ok());
  EXPECT_GT(*std::max_element(got->machine_tenant_counts.begin(),
                              got->machine_tenant_counts.end()),
            26);
  for (double& d : fleet.demand) d *= 1.0 + rng.NextDouble(0.0, 0.6);
  ExpectSamePlacement(
      reference::Planner(options, nullptr)
          .Pack(fleet.demand, fleet.partitions, &*want),
      PlacementPlanner(options, nullptr)
          .Pack(fleet.demand, fleet.partitions, &*got),
      "incremental");
}

TEST(PlacementDifferentialTest, MaxMachinesOverflowIsOutOfRange) {
  PlacementOptions options = DifferentialOptions(0);
  options.max_machines = 3;
  // Five tenants that each fill most of a machine need five machines.
  const std::vector<double> demand(5, 250.0);
  const std::vector<int> parts(5, 1);
  const StatusOr<Placement> fresh =
      PlacementPlanner(options, nullptr).Pack(demand, parts, nullptr);
  ExpectSamePlacement(
      reference::Planner(options, nullptr).Pack(demand, parts, nullptr),
      fresh, "fresh");
  ASSERT_FALSE(fresh.ok());
  EXPECT_EQ(fresh.status().code(), StatusCode::kOutOfRange);

  // Incremental: three tenants fit three machines, then all five grow
  // past what three machines can hold.
  const std::vector<double> small(5, 100.0);
  const StatusOr<Placement> initial =
      PlacementPlanner(options, nullptr).Pack(small, parts, nullptr);
  ASSERT_TRUE(initial.ok());
  const StatusOr<Placement> grown =
      PlacementPlanner(options, nullptr).Pack(demand, parts, &*initial);
  ExpectSamePlacement(
      reference::Planner(options, nullptr).Pack(demand, parts, &*initial),
      grown, "incremental");
  ASSERT_FALSE(grown.ok());
  EXPECT_EQ(grown.status().code(), StatusCode::kOutOfRange);
}

// ---- tenant mix ------------------------------------------------------------

TEST(TenantMixTest, BuildsRequestedFamilies) {
  TenantMixOptions mix;
  mix.b2w_tenants = 2;
  mix.wikipedia_tenants = 2;
  mix.ycsb_tenants = 1;
  mix.step_tenants = 1;
  mix.days = 2;
  const std::vector<TenantSpec> tenants = MakeTenantMix(mix);
  ASSERT_EQ(tenants.size(), 6u);
  EXPECT_EQ(TotalTenants(mix), 6);
  EXPECT_EQ(tenants[0].workload.kind, WorkloadSpec::Kind::kB2wSynthetic);
  EXPECT_EQ(tenants[2].workload.kind, WorkloadSpec::Kind::kWikipedia);
  EXPECT_EQ(tenants[4].workload.kind, WorkloadSpec::Kind::kYcsbSteady);
  EXPECT_EQ(tenants[5].workload.kind, WorkloadSpec::Kind::kStep);
  for (size_t t = 0; t < tenants.size(); ++t) {
    EXPECT_EQ(tenants[t].id, TenantId(static_cast<int>(t)));
    EXPECT_FALSE(tenants[t].name.empty());
  }
}

TEST(TenantMixTest, TracesBuildAndSpreadDiffers) {
  TenantMixOptions mix;
  mix.b2w_tenants = 3;
  mix.days = 2;
  const std::vector<TenantSpec> tenants = MakeTenantMix(mix);
  double first_peak = 0.0;
  bool peaks_differ = false;
  for (const TenantSpec& tenant : tenants) {
    const StatusOr<TimeSeries> trace =
        BuildWorkloadTrace(tenant.workload);
    ASSERT_TRUE(trace.ok()) << trace.status().ToString();
    EXPECT_GT(trace->Max(), 0.0);
    if (first_peak == 0.0) {
      first_peak = trace->Max();
    } else if (trace->Max() != first_peak) {
      peaks_differ = true;
    }
  }
  EXPECT_TRUE(peaks_differ);  // log-uniform demand spread applied
}

// ---- resampling ------------------------------------------------------------

TEST(ResampleToGridTest, HoldsCoarseValuesAcrossFineSlots) {
  const TimeSeries hourly(3600.0, {10.0, 20.0});
  const StatusOr<std::vector<double>> grid =
      ResampleToGrid(hourly, 60.0, 120);
  ASSERT_TRUE(grid.ok());
  ASSERT_EQ(grid->size(), 120u);
  EXPECT_DOUBLE_EQ((*grid)[0], 10.0);
  EXPECT_DOUBLE_EQ((*grid)[59], 10.0);
  EXPECT_DOUBLE_EQ((*grid)[60], 20.0);
  EXPECT_DOUBLE_EQ((*grid)[119], 20.0);
}

TEST(ResampleToGridTest, RejectsTooShortSource) {
  const TimeSeries hourly(3600.0, {10.0});
  EXPECT_FALSE(ResampleToGrid(hourly, 60.0, 61).ok());
  EXPECT_FALSE(ResampleToGrid(TimeSeries(), 60.0, 1).ok());
}

// ---- controller ------------------------------------------------------------

FleetControllerOptions SmallControllerOptions() {
  FleetControllerOptions options;
  options.placement.machine_capacity = 100.0;
  options.placement.interference_per_tenant = 0.0;
  options.inflation = 1.0;
  options.forecast_period_slots = 4;
  options.forecast_spec = "seasonal_naive(m=2)";
  options.forecast_refit_interval = 4;
  return options;
}

TEST(FleetControllerTest, TenantForecastFallsBackUntilFirstFitAndClamps) {
  StatusOr<OnlinePredictor> predictor =
      MakeTenantPredictor(SmallControllerOptions());
  ASSERT_TRUE(predictor.ok()) << predictor.status().ToString();
  EXPECT_DOUBLE_EQ(TenantForecast(*predictor), 0.0);  // no history
  predictor->Observe(100.0);
  predictor->Observe(100.0);
  EXPECT_DOUBLE_EQ(TenantForecast(*predictor), 100.0);  // last value
  predictor->Observe(10.0);
  predictor->Observe(100.0);  // one period: the first fit
  EXPECT_DOUBLE_EQ(TenantForecast(*predictor), 100.0);
  predictor->Observe(0.0);
  predictor->Observe(0.0);
  // Seasonal baseline 10 lifted by the mean residual -100: clamped.
  EXPECT_DOUBLE_EQ(TenantForecast(*predictor), 0.0);
}

TEST(FleetControllerTest, PacksFromForecasts) {
  FleetController controller(SmallControllerOptions(), {1, 1}, nullptr,
                             nullptr);
  ASSERT_TRUE(controller.WarmUp({{40.0, 40.0, 40.0, 40.0},
                                 {30.0, 30.0, 30.0, 30.0}})
                  .ok());
  const StatusOr<FleetCycleDecision> decision =
      controller.Tick(0, {}, nullptr);
  ASSERT_TRUE(decision.ok()) << decision.status().ToString();
  EXPECT_EQ(decision->machines, 1);  // 40 + 30 fit one machine
  EXPECT_FALSE(decision->spike_replan);
}

TEST(FleetControllerTest, SpikeTriggersReplanWithObservedDemand) {
  FleetControllerOptions options = SmallControllerOptions();
  options.spike_replan_factor = 1.5;
  FleetController controller(options, {1, 1}, nullptr, nullptr);
  ASSERT_TRUE(controller.WarmUp({{40.0, 40.0, 40.0, 40.0},
                                 {30.0, 30.0, 30.0, 30.0}})
                  .ok());
  StatusOr<FleetCycleDecision> decision = controller.Tick(0, {}, nullptr);
  ASSERT_TRUE(decision.ok());
  const int calm_machines = decision->machines;

  // Tenant 0's observed demand triples its forecast: the controller
  // must re-plan with the observation, not the stale forecast.
  decision = controller.Tick(1, {160.0, 30.0}, nullptr);
  ASSERT_TRUE(decision.ok());
  EXPECT_TRUE(decision->spike_replan);
  EXPECT_GT(decision->machines, calm_machines);
  EXPECT_EQ(controller.spike_replans(), 1);
}

TEST(FleetControllerTest, ParallelForecastMatchesSerial) {
  const std::vector<std::vector<double>> history = {
      {40.0, 42.0, 38.0, 41.0}, {30.0, 29.0, 31.0, 30.0},
      {20.0, 22.0, 18.0, 21.0}, {10.0, 12.0, 8.0, 11.0}};
  FleetController serial(SmallControllerOptions(), {1, 1, 1, 1}, nullptr,
                         nullptr);
  FleetController parallel(SmallControllerOptions(), {1, 1, 1, 1}, nullptr,
                           nullptr);
  ASSERT_TRUE(serial.WarmUp(history).ok());
  ASSERT_TRUE(parallel.WarmUp(history).ok());
  ThreadPool pool(4);
  const StatusOr<FleetCycleDecision> a = serial.Tick(0, {}, nullptr);
  const StatusOr<FleetCycleDecision> b = parallel.Tick(0, {}, &pool);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(serial.last_forecast().size(), parallel.last_forecast().size());
  for (size_t t = 0; t < serial.last_forecast().size(); ++t) {
    EXPECT_DOUBLE_EQ(serial.last_forecast()[t], parallel.last_forecast()[t]);
  }
  EXPECT_EQ(a->machines, b->machines);
}

// ---- simulator -------------------------------------------------------------

TEST(FleetSimulatorTest, FleetPackingBeatsDedicatedAtEqualSla) {
  TenantMixOptions mix;
  mix.b2w_tenants = 8;
  mix.wikipedia_tenants = 4;
  mix.ycsb_tenants = 4;
  mix.step_tenants = 4;
  mix.days = 2;
  FleetOptions options;
  options.eval_begin = 1440;
  FleetSimulator simulator(options, MakeTenantMix(mix));

  const StatusOr<FleetResult> fleet =
      simulator.Simulate(FleetMode::kFleet, nullptr);
  ASSERT_TRUE(fleet.ok()) << fleet.status().ToString();
  const StatusOr<FleetResult> dedicated =
      simulator.Simulate(FleetMode::kDedicated, nullptr);
  ASSERT_TRUE(dedicated.ok()) << dedicated.status().ToString();

  EXPECT_LT(fleet->machine_slots + fleet->move_machine_slots,
            dedicated->machine_slots + dedicated->move_machine_slots);
  EXPECT_LE(fleet->tenants_violating_sla,
            dedicated->tenants_violating_sla);
  EXPECT_EQ(fleet->per_tenant.size(), 20u);
  EXPECT_EQ(fleet->eval_fine_slots, dedicated->eval_fine_slots);
  EXPECT_GT(fleet->peak_machines, 0);
  EXPECT_LT(fleet->peak_machines, dedicated->peak_machines);
}

TEST(FleetSimulatorTest, ForecastSpecDrivesDedicatedBaseline) {
  TenantMixOptions mix;
  mix.b2w_tenants = 4;
  mix.step_tenants = 2;
  mix.days = 2;
  FleetOptions options;
  options.eval_begin = 1440;
  // Small machines, so each tenant's cluster size follows its forecast.
  options.controller.placement.machine_capacity = 10.0;
  options.machine_serve_capacity = 12.0;
  FleetSimulator seasonal(options, MakeTenantMix(mix));
  options.controller.forecast_spec = "last_value";
  FleetSimulator last_value(options, MakeTenantMix(mix));

  const StatusOr<FleetResult> a =
      seasonal.Simulate(FleetMode::kDedicated, nullptr);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  const StatusOr<FleetResult> b =
      last_value.Simulate(FleetMode::kDedicated, nullptr);
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  // Each dedicated tenant provisions from its own forecast, so a
  // different predictor must change what the baseline holds.
  EXPECT_NE(a->machine_slots + a->move_machine_slots,
            b->machine_slots + b->move_machine_slots);
}

TEST(FleetSimulatorTest, RejectsOutOfRangeCapacityOptions) {
  TenantMixOptions mix;
  mix.b2w_tenants = 2;
  mix.days = 2;
  std::vector<std::pair<std::string, FleetOptions>> cases;
  FleetOptions options;
  options.controller.placement.machine_capacity = 0.0;
  cases.emplace_back("machine_capacity 0", options);
  options = FleetOptions();
  options.controller.placement.machine_capacity = std::nan("");
  cases.emplace_back("machine_capacity NaN", options);
  options = FleetOptions();
  options.machine_serve_capacity = -5.0;
  cases.emplace_back("machine_serve_capacity -5", options);
  options = FleetOptions();
  options.controller.placement.interference_per_tenant = -1.0;
  cases.emplace_back("interference_per_tenant -1", options);
  options = FleetOptions();
  options.controller.placement.min_capacity_fraction = 0.0;
  cases.emplace_back("min_capacity_fraction 0", options);
  options = FleetOptions();
  options.controller.placement.min_capacity_fraction = 1.5;
  cases.emplace_back("min_capacity_fraction 1.5", options);
  // Both modes build every tenant's forecaster from the spec.
  for (const char* spec : {"nope", "seasonal_naive(m=x)", "ar(q=3)"}) {
    options = FleetOptions();
    options.controller.forecast_spec = spec;
    cases.emplace_back(std::string("forecast_spec ") + spec, options);
  }
  for (const auto& [name, bad] : cases) {
    for (const FleetMode mode : {FleetMode::kFleet, FleetMode::kDedicated}) {
      FleetSimulator simulator(bad, MakeTenantMix(mix));
      const StatusOr<FleetResult> result = simulator.Simulate(mode, nullptr);
      ASSERT_FALSE(result.ok()) << name << " in " << FleetModeName(mode);
      EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument)
          << name << " in " << FleetModeName(mode);
    }
  }
}

TEST(FleetSimulatorTest, AcceptsBoundaryCapacityOptions) {
  TenantMixOptions mix;
  mix.b2w_tenants = 2;
  mix.days = 2;
  FleetOptions options;
  options.eval_begin = 1440;
  options.controller.placement.interference_per_tenant = 0.0;
  options.controller.placement.min_capacity_fraction = 1.0;
  FleetSimulator simulator(options, MakeTenantMix(mix));
  for (const FleetMode mode : {FleetMode::kFleet, FleetMode::kDedicated}) {
    const StatusOr<FleetResult> result = simulator.Simulate(mode, nullptr);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
  }
}

}  // namespace
}  // namespace fleet
}  // namespace pstore
