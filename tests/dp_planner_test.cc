#include "planner/dp_planner.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <ostream>
#include <string>
#include <tuple>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "common/strong_id.h"
#include "common/thread_pool.h"
#include "planner/brute_force_planner.h"
#include "planner/move.h"
#include "planner/move_model.h"
#include "planner/move_model_table.h"

namespace pstore {
namespace {

PlannerParams FastParams() {
  PlannerParams params;
  params.target_rate_per_node = 100.0;
  params.max_rate_per_node = 123.0;
  params.d_slots = 4.0;
  params.partitions_per_node = 1;
  return params;
}

// Verifies the feasibility invariant the DP promises: walking the plan,
// predicted load never exceeds the effective capacity implied by each
// move's progress.
void CheckPlanFeasible(const PlanResult& plan,
                       const std::vector<double>& load,
                       const PlannerParams& params, int initial_nodes) {
  ASSERT_FALSE(plan.moves.empty());
  EXPECT_EQ(plan.moves.front().start_slot, TimeStep(0));
  EXPECT_EQ(plan.moves.front().nodes_before, NodeCount(initial_nodes));
  EXPECT_EQ(plan.moves.back().end_slot,
            TimeStep(static_cast<int>(load.size()) - 1));
  EXPECT_LE(load[0], Capacity(NodeCount(initial_nodes), params));
  TimeStep prev_end(0);
  NodeCount prev_nodes(initial_nodes);
  for (const Move& move : plan.moves) {
    EXPECT_EQ(move.start_slot, prev_end);
    EXPECT_EQ(move.nodes_before, prev_nodes);
    const int duration = move.DurationSlots();
    EXPECT_GE(duration, 1);
    for (int i = 1; i <= duration; ++i) {
      const double fraction =
          static_cast<double>(i) / static_cast<double>(duration);
      const double cap = EffectiveCapacity(move.nodes_before,
                                           move.nodes_after, fraction,
                                           params);
      EXPECT_LE(load[static_cast<size_t>(move.start_slot.value() + i)],
                cap + 1e-9)
          << "slot " << move.start_slot + i << " during move "
          << move.ToString();
    }
    prev_end = move.end_slot;
    prev_nodes = move.nodes_after;
  }
  EXPECT_EQ(prev_nodes, plan.final_nodes);
}

TEST(DpPlannerTest, RejectsDegenerateInputs) {
  const DpPlanner planner(FastParams());
  EXPECT_FALSE(planner.BestMoves({100.0}, NodeCount(2)).ok());
  EXPECT_FALSE(planner.BestMoves({100.0, 100.0}, NodeCount(0)).ok());
}

TEST(DpPlannerTest, FlatLoadDoesNothing) {
  const DpPlanner planner(FastParams());
  const std::vector<double> load(10, 150.0);  // needs 2 nodes
  StatusOr<PlanResult> plan = planner.BestMoves(load, NodeCount(2));
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->final_nodes, NodeCount(2));
  EXPECT_EQ(plan->FirstReconfiguration(), nullptr);
  // Cost: 2 machines for 10 slots (slot 0 through 9).
  EXPECT_NEAR(plan->total_cost, 20.0, 1e-9);
}

TEST(DpPlannerTest, ScalesOutAheadOfRamp) {
  const DpPlanner planner(FastParams());
  // Load jumps from 150 to 350 at slot 8: needs 2 -> 4 nodes; the move
  // takes ceil((4/2)*(1 - 2/4)) = 4 slots, so it must start by slot 4.
  std::vector<double> load(12, 150.0);
  for (size_t t = 8; t < load.size(); ++t) load[t] = 350.0;
  StatusOr<PlanResult> plan = planner.BestMoves(load, NodeCount(2));
  ASSERT_TRUE(plan.ok());
  CheckPlanFeasible(*plan, load, FastParams(), 2);
  EXPECT_EQ(plan->final_nodes, NodeCount(4));
  const Move* first = plan->FirstReconfiguration();
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(first->nodes_after, NodeCount(4));
  // Effective capacity during 2->4 reaches 350 only near the end of the
  // move, so the move must complete just as (or before) the ramp hits.
  EXPECT_LE(first->end_slot, TimeStep(8));
  // Cost minimization: the move should start as late as possible.
  EXPECT_GE(first->start_slot, TimeStep(3));
}

TEST(DpPlannerTest, ScaleInDelayedUntilLoadDrops) {
  const DpPlanner planner(FastParams());
  std::vector<double> load(12, 380.0);  // needs 4 nodes
  for (size_t t = 4; t < load.size(); ++t) load[t] = 90.0;  // needs 1
  StatusOr<PlanResult> plan = planner.BestMoves(load, NodeCount(4));
  ASSERT_TRUE(plan.ok());
  CheckPlanFeasible(*plan, load, FastParams(), 4);
  EXPECT_EQ(plan->final_nodes, NodeCount(1));
  const Move* first = plan->FirstReconfiguration();
  ASSERT_NE(first, nullptr);
  EXPECT_LT(first->nodes_after, NodeCount(4));
  // Cannot start shedding capacity while load is still high.
  EXPECT_GE(first->start_slot, TimeStep(3));
}

TEST(DpPlannerTest, InfeasibleWhenRampTooFast) {
  const DpPlanner planner(FastParams());
  // Load explodes next slot; migration cannot complete in time.
  std::vector<double> load = {150.0, 800.0, 800.0, 800.0};
  StatusOr<PlanResult> plan = planner.BestMoves(load, NodeCount(2));
  EXPECT_FALSE(plan.ok());
  EXPECT_EQ(plan.status().code(), StatusCode::kInfeasible);
}

TEST(DpPlannerTest, InfeasibleWhenCurrentLoadExceedsCapacity) {
  const DpPlanner planner(FastParams());
  const std::vector<double> load(6, 500.0);
  EXPECT_FALSE(planner.BestMoves(load, NodeCount(2)).ok());
}

TEST(DpPlannerTest, EndsWithMinimalMachines) {
  const DpPlanner planner(FastParams());
  // A hump in the middle: scale out then back in; final count minimal.
  std::vector<double> load(24, 120.0);
  for (int t = 8; t < 12; ++t) load[t] = 290.0;
  StatusOr<PlanResult> plan = planner.BestMoves(load, NodeCount(2));
  ASSERT_TRUE(plan.ok());
  CheckPlanFeasible(*plan, load, FastParams(), 2);
  EXPECT_EQ(plan->final_nodes, NodeCount(2));
  // Somewhere mid-plan we must have had >= 3 nodes.
  int peak_nodes = 0;
  for (const Move& move : plan->moves) {
    peak_nodes = std::max(peak_nodes, move.nodes_after.value());
  }
  EXPECT_GE(peak_nodes, 3);
}

TEST(DpPlannerTest, NodesForRounding) {
  const DpPlanner planner(FastParams());
  EXPECT_EQ(planner.NodesFor(0.0), NodeCount(1));
  EXPECT_EQ(planner.NodesFor(99.9), NodeCount(1));
  EXPECT_EQ(planner.NodesFor(100.0), NodeCount(1));
  EXPECT_EQ(planner.NodesFor(100.1), NodeCount(2));
  EXPECT_EQ(planner.NodesFor(1000.0), NodeCount(10));
}

TEST(DpPlannerTest, MoveSlotsAtLeastOne) {
  const DpPlanner planner(FastParams());
  EXPECT_EQ(planner.MoveSlots(NodeCount(3), NodeCount(3)), 1);
  EXPECT_GE(planner.MoveSlots(NodeCount(3), NodeCount(4)), 1);
  // 3 -> 4 with D = 4: (4/1)*(1/4) = 1.0 slots -> 1.
  EXPECT_EQ(planner.MoveSlots(NodeCount(3), NodeCount(4)), 1);
  // 2 -> 4 with D = 4: (4/2)*(1/2) = 1.0 -> 1.
  EXPECT_EQ(planner.MoveSlots(NodeCount(2), NodeCount(4)), 1);
  // 1 -> 2 with D = 4: (4/1)*(1/2) = 2.
  EXPECT_EQ(planner.MoveSlots(NodeCount(1), NodeCount(2)), 2);
}

TEST(DpPlannerTest, ChargedCostCoversWholeSlots) {
  const DpPlanner planner(FastParams());
  // The charged cost must be at least Eq. 4's cost and at most the full
  // integral duration at the larger machine count.
  for (int b = 1; b <= 8; ++b) {
    for (int a = 1; a <= 8; ++a) {
      if (a == b) continue;
      const double charged = planner.MoveCostCharged(NodeCount(b), NodeCount(a));
      EXPECT_GE(charged, MoveCost(NodeCount(b), NodeCount(a), FastParams()) - 1e-9);
      EXPECT_LE(charged,
                planner.MoveSlots(NodeCount(b), NodeCount(a)) *
                        static_cast<double>(std::max(a, b)) +
                    1e-9);
    }
  }
}

// ---- Equivalence with exhaustive search -------------------------------------

struct BruteForceCase {
  uint64_t seed;
  int horizon;
  double base_load;
  double swing;
  int initial_nodes;
};

// Printed field by field (ctest IDs carry the printed parameter): gtest's
// default printer dumps the struct's raw bytes, padding included, so the
// IDs could change between builds.
void PrintTo(const BruteForceCase& c, std::ostream* os) {
  *os << "seed " << c.seed << ", horizon " << c.horizon << ", load "
      << c.base_load << "+" << c.swing << ", nodes " << c.initial_nodes;
}

class DpVersusBruteForce : public ::testing::TestWithParam<BruteForceCase> {};

TEST_P(DpVersusBruteForce, SameFinalNodesAndCost) {
  const BruteForceCase& test_case = GetParam();
  PlannerParams params = FastParams();
  params.d_slots = 3.0;
  Rng rng(test_case.seed);
  std::vector<double> load;
  for (int t = 0; t <= test_case.horizon; ++t) {
    load.push_back(test_case.base_load +
                   test_case.swing * rng.NextDouble());
  }
  const DpPlanner dp(params);
  const BruteForcePlanner brute(params);
  StatusOr<PlanResult> dp_plan = dp.BestMoves(load, NodeCount(test_case.initial_nodes));
  StatusOr<PlanResult> bf_plan =
      brute.BestMoves(load, NodeCount(test_case.initial_nodes));
  ASSERT_EQ(dp_plan.ok(), bf_plan.ok());
  if (!dp_plan.ok()) return;
  EXPECT_EQ(dp_plan->final_nodes, bf_plan->final_nodes);
  EXPECT_NEAR(dp_plan->total_cost, bf_plan->total_cost, 1e-6);
  CheckPlanFeasible(*dp_plan, load, params, test_case.initial_nodes);
}

INSTANTIATE_TEST_SUITE_P(
    RandomInstances, DpVersusBruteForce,
    ::testing::Values(BruteForceCase{1, 6, 80, 200, 1},
                      BruteForceCase{2, 6, 80, 200, 2},
                      BruteForceCase{3, 7, 150, 150, 3},
                      BruteForceCase{4, 7, 50, 300, 1},
                      BruteForceCase{5, 8, 120, 120, 2},
                      BruteForceCase{6, 8, 200, 100, 4},
                      BruteForceCase{7, 5, 90, 250, 2},
                      BruteForceCase{8, 6, 60, 60, 1},
                      BruteForceCase{9, 7, 300, 80, 4},
                      BruteForceCase{10, 8, 100, 180, 3},
                      BruteForceCase{11, 6, 250, 140, 3},
                      BruteForceCase{12, 7, 70, 220, 1}),
    [](const auto& info) {
      return "seed" + std::to_string(info.param.seed);
    });

// The planner must also agree with brute force on ramps that force
// multi-step scale-outs.
TEST(DpVersusBruteForceRamp, StepRamp) {
  PlannerParams params = FastParams();
  params.d_slots = 2.0;
  std::vector<double> load;
  for (int t = 0; t <= 8; ++t) {
    load.push_back(90.0 + 40.0 * t);  // 90 .. 410
  }
  const DpPlanner dp(params);
  const BruteForcePlanner brute(params);
  StatusOr<PlanResult> dp_plan = dp.BestMoves(load, NodeCount(1));
  StatusOr<PlanResult> bf_plan = brute.BestMoves(load, NodeCount(1));
  ASSERT_EQ(dp_plan.ok(), bf_plan.ok());
  if (dp_plan.ok()) {
    EXPECT_EQ(dp_plan->final_nodes, bf_plan->final_nodes);
    EXPECT_NEAR(dp_plan->total_cost, bf_plan->total_cost, 1e-6);
  }
}

// ---- Parallel brute force ---------------------------------------------------

// The parallel candidate search must return the *same plan* — ties
// included — as the serial search, for any thread count.
TEST(BruteForcePlannerTest, ParallelSearchMatchesSerial) {
  PlannerParams params = FastParams();
  params.d_slots = 3.0;
  const BruteForcePlanner serial(params);
  for (const uint64_t seed : {21u, 22u, 23u, 24u, 25u, 26u}) {
    Rng rng(seed);
    std::vector<double> load;
    for (int t = 0; t <= 7; ++t) {
      load.push_back(60.0 + 260.0 * rng.NextDouble());
    }
    const NodeCount initial(1 + static_cast<int>(seed % 4));
    StatusOr<PlanResult> serial_plan = serial.BestMoves(load, initial);
    for (int threads : {2, 8}) {
      ThreadPool pool(threads);
      BruteForcePlanner parallel(params);
      parallel.set_thread_pool(&pool);
      StatusOr<PlanResult> parallel_plan = parallel.BestMoves(load, initial);
      ASSERT_EQ(serial_plan.ok(), parallel_plan.ok())
          << "seed " << seed << " threads " << threads;
      if (!serial_plan.ok()) continue;
      EXPECT_EQ(serial_plan->moves, parallel_plan->moves)
          << "seed " << seed << " threads " << threads;
      EXPECT_EQ(serial_plan->total_cost, parallel_plan->total_cost);
      EXPECT_EQ(serial_plan->final_nodes, parallel_plan->final_nodes);
    }
  }
}

// ---- Move-model table -------------------------------------------------------

// Plans must not change when the planner looks Eqs. 3-4 up in a
// precomputed table instead of recomputing them per transition.
TEST(DpPlannerTest, TableBackedPlansAreIdentical) {
  PlannerParams params = FastParams();
  params.d_slots = 4.0;
  const DpPlanner direct(params);
  DpPlanner table_backed(params);
  const MoveModelTable table(params, NodeCount(16));
  table_backed.set_move_table(&table);

  for (int before = 1; before <= 16; ++before) {
    for (int after = 1; after <= 16; ++after) {
      EXPECT_EQ(direct.MoveSlots(NodeCount(before), NodeCount(after)),
                table_backed.MoveSlots(NodeCount(before), NodeCount(after)));
      EXPECT_EQ(
          direct.MoveCostCharged(NodeCount(before), NodeCount(after)),
          table_backed.MoveCostCharged(NodeCount(before), NodeCount(after)));
    }
  }

  for (const uint64_t seed : {31u, 32u, 33u, 34u}) {
    Rng rng(seed);
    std::vector<double> load;
    for (int t = 0; t <= 30; ++t) {
      load.push_back(80.0 + 600.0 * rng.NextDouble());
    }
    StatusOr<PlanResult> a = direct.BestMoves(load, NodeCount(2));
    StatusOr<PlanResult> b = table_backed.BestMoves(load, NodeCount(2));
    ASSERT_EQ(a.ok(), b.ok()) << "seed " << seed;
    if (!a.ok()) continue;
    EXPECT_EQ(a->moves, b->moves) << "seed " << seed;
    EXPECT_EQ(a->total_cost, b->total_cost) << "seed " << seed;
    EXPECT_EQ(a->final_nodes, b->final_nodes) << "seed " << seed;
  }
}

// A table smaller than the planner's reach: covered pairs come from the
// table, pairs beyond max_nodes fall back to direct computation.
TEST(DpPlannerTest, SmallTableFallsBackBeyondItsGrid) {
  PlannerParams params = FastParams();
  const DpPlanner direct(params);
  DpPlanner table_backed(params);
  const MoveModelTable table(params, NodeCount(3));
  table_backed.set_move_table(&table);
  for (int before = 1; before <= 8; ++before) {
    for (int after = 1; after <= 8; ++after) {
      EXPECT_EQ(direct.MoveSlots(NodeCount(before), NodeCount(after)),
                table_backed.MoveSlots(NodeCount(before), NodeCount(after)));
      EXPECT_EQ(
          direct.MoveCostCharged(NodeCount(before), NodeCount(after)),
          table_backed.MoveCostCharged(NodeCount(before), NodeCount(after)));
    }
  }
}

TEST(DpPlannerTest, CondensedMergesIdleStretches) {
  const DpPlanner planner(FastParams());
  std::vector<double> load(10, 150.0);
  StatusOr<PlanResult> plan = planner.BestMoves(load, NodeCount(2));
  ASSERT_TRUE(plan.ok());
  const std::vector<Move> condensed = plan->Condensed();
  ASSERT_EQ(condensed.size(), 1u);
  EXPECT_EQ(condensed[0].start_slot, TimeStep(0));
  EXPECT_EQ(condensed[0].end_slot, TimeStep(9));
  EXPECT_FALSE(condensed[0].IsReconfiguration());
}

TEST(DpPlannerTest, LargeHorizonRunsQuickly) {
  // Smoke test for the DP at realistic scale: a 48-slot horizon
  // with a diurnal-like double ramp.
  PlannerParams params = FastParams();
  params.d_slots = 15.4;
  params.partitions_per_node = 6;
  const DpPlanner planner(params);
  std::vector<double> load;
  for (int t = 0; t <= 48; ++t) {
    load.push_back(150.0 + 800.0 * 0.5 *
                               (1.0 - std::cos(2.0 * M_PI * t / 48.0)));
  }
  StatusOr<PlanResult> plan = planner.BestMoves(load, NodeCount(2));
  ASSERT_TRUE(plan.ok());
  CheckPlanFeasible(*plan, load, params, 2);
  EXPECT_GE(plan->final_nodes, NodeCount(1));
}

// ---- Differential test against the recursive formulation ------------------

// The top-down, memoized formulation of Algorithms 1-3 that the
// bottom-up search replaced, kept verbatim as the oracle: it recurses
// from (T, final machines) through Algorithm 3's sub-cost, reading the
// move model through the planner under test (so a table installed on
// the planner is used by both).
class RecursiveReferencePlanner {
 public:
  explicit RecursiveReferencePlanner(const DpPlanner& planner)
      : planner_(planner), params_(planner.params()) {}

  StatusOr<PlanResult> BestMoves(const std::vector<double>& predicted_load,
                                 NodeCount initial_nodes) {
    if (predicted_load.size() < 2) {
      return Status::InvalidArgument(
          "prediction horizon must cover >= 2 slots");
    }
    if (initial_nodes < NodeCount(1)) {
      return Status::InvalidArgument("initial_nodes must be >= 1");
    }
    const int horizon = static_cast<int>(predicted_load.size()) - 1;
    const double max_load =
        *std::max_element(predicted_load.begin(), predicted_load.end());
    load_ = &predicted_load;
    n0_ = initial_nodes.value();
    z_ = std::max(planner_.NodesFor(max_load), initial_nodes).value();
    memo_.assign(static_cast<size_t>(horizon + 1) * (z_ + 1), {});

    for (int final_nodes = 1; final_nodes <= z_; ++final_nodes) {
      const double total = Cost(horizon, final_nodes);
      if (total == kInf) continue;
      PlanResult result;
      result.total_cost = total;
      result.final_nodes = NodeCount(final_nodes);
      int t = horizon;
      int nodes = final_nodes;
      while (t > 0) {
        const MemoEntry& entry = At(t, nodes);
        Move move;
        move.start_slot = TimeStep(entry.prev_time);
        move.end_slot = TimeStep(t);
        move.nodes_before = NodeCount(entry.prev_nodes);
        move.nodes_after = NodeCount(nodes);
        result.moves.push_back(move);
        t = entry.prev_time;
        nodes = entry.prev_nodes;
      }
      std::reverse(result.moves.begin(), result.moves.end());
      return result;
    }
    return Status::Infeasible(
        "no feasible sequence of moves from the initial machine count");
  }

 private:
  static constexpr double kInf = std::numeric_limits<double>::infinity();

  struct MemoEntry {
    bool computed = false;
    double cost = kInf;
    int prev_time = -1;
    int prev_nodes = -1;
  };

  MemoEntry& At(int t, int nodes) { return memo_[t * (z_ + 1) + nodes]; }

  double SubCost(int t, int before, int after) {
    const int duration =
        planner_.MoveSlots(NodeCount(before), NodeCount(after));
    const int start_move = t - duration;
    if (start_move < 0) return kInf;
    for (int i = 1; i <= duration; ++i) {
      const double load = (*load_)[start_move + i];
      const double fraction =
          static_cast<double>(i) / static_cast<double>(duration);
      const double capacity =
          params_.assume_instant_capacity
              ? Capacity(NodeCount(after), params_)
              : EffectiveCapacity(NodeCount(before), NodeCount(after),
                                  fraction, params_);
      if (load > capacity) return kInf;
    }
    const double prior = Cost(start_move, before);
    if (prior == kInf) return kInf;
    return prior +
           planner_.MoveCostCharged(NodeCount(before), NodeCount(after));
  }

  double Cost(int t, int nodes) {
    if (t < 0) return kInf;
    if (t == 0 && nodes != n0_) return kInf;
    if ((*load_)[t] > Capacity(NodeCount(nodes), params_)) return kInf;
    MemoEntry& entry = At(t, nodes);
    if (entry.computed) return entry.cost;
    entry.computed = true;
    if (t == 0) {
      entry.cost = nodes;
      return entry.cost;
    }
    double best = kInf;
    int best_before = -1;
    for (int before = 1; before <= z_; ++before) {
      const double candidate = SubCost(t, before, nodes);
      if (candidate < best) {
        best = candidate;
        best_before = before;
      }
    }
    entry.cost = best;
    if (best_before >= 0 && best < kInf) {
      entry.prev_time =
          t - planner_.MoveSlots(NodeCount(best_before), NodeCount(nodes));
      entry.prev_nodes = best_before;
    }
    return entry.cost;
  }

  const DpPlanner& planner_;
  const PlannerParams params_;
  const std::vector<double>* load_ = nullptr;
  int n0_ = 0;
  int z_ = 0;
  std::vector<MemoEntry> memo_;
};

uint64_t Bits(double value) {
  uint64_t bits;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

// A seeded horizon of 2..49 slots built from ramps, one- or two-slot
// spikes, sudden drops and noisy plateaus, peaking anywhere from one to
// about twenty machines' worth of load at Q = 100.
std::vector<double> ShapedHorizon(Rng& rng) {
  const int slots = 2 + static_cast<int>(rng.NextUint64(48));
  const double peak = 100.0 * rng.NextDouble(1.0, 20.0);
  std::vector<double> load;
  double level = peak * rng.NextDouble(0.1, 0.9);
  while (static_cast<int>(load.size()) < slots) {
    const int span = 1 + static_cast<int>(rng.NextUint64(8));
    switch (rng.NextUint64(4)) {
      case 0: {  // ramp towards a new level
        const double target = peak * rng.NextDouble(0.05, 1.0);
        for (int i = 1; i <= span; ++i) {
          load.push_back(level + (target - level) * i / span);
        }
        level = target;
        break;
      }
      case 1: {  // spike of one or two slots, then back
        const int width = 1 + static_cast<int>(rng.NextUint64(2));
        for (int i = 0; i < width; ++i) {
          load.push_back(peak * rng.NextDouble(0.8, 1.0));
        }
        break;
      }
      case 2:  // sudden drop
        level *= rng.NextDouble(0.1, 0.6);
        load.push_back(level);
        break;
      default:  // noisy plateau
        for (int i = 0; i < span; ++i) {
          load.push_back(level * rng.NextDouble(0.95, 1.05));
        }
        break;
    }
  }
  load.resize(static_cast<size_t>(slots));
  return load;
}

struct DiffOutcome {
  int feasible = 0;
  int infeasible = 0;
  int reconfiguring = 0;
};

// Plans `load` from `n0` with both planners and requires the same
// status code and, when feasible, a bit-identical PlanResult.
void ExpectSamePlan(const DpPlanner& planner, const std::vector<double>& load,
                    int n0, const std::string& context, DiffOutcome* outcome) {
  RecursiveReferencePlanner reference(planner);
  const StatusOr<PlanResult> want = reference.BestMoves(load, NodeCount(n0));
  const StatusOr<PlanResult> got = planner.BestMoves(load, NodeCount(n0));
  ASSERT_EQ(want.ok(), got.ok()) << context;
  if (!want.ok()) {
    EXPECT_EQ(want.status().code(), got.status().code()) << context;
    if (want.status().code() == StatusCode::kInfeasible) ++outcome->infeasible;
    return;
  }
  ++outcome->feasible;
  if (got->FirstReconfiguration() != nullptr) ++outcome->reconfiguring;
  EXPECT_EQ(Bits(want->total_cost), Bits(got->total_cost))
      << context << ": " << want->total_cost << " vs " << got->total_cost;
  EXPECT_EQ(want->final_nodes, got->final_nodes) << context;
  EXPECT_EQ(want->moves, got->moves) << context;
}

struct DiffParams {
  const char* name;
  double d_slots;
  int partitions_per_node;
};

void PrintTo(const DiffParams& params, std::ostream* os) { *os << params.name; }

enum class TableMode { kNone, kFull, kTooSmall };

void PrintTo(TableMode mode, std::ostream* os) {
  *os << (mode == TableMode::kNone   ? "no table"
          : mode == TableMode::kFull ? "full table"
                                     : "small table");
}

class DpVersusRecursive
    : public ::testing::TestWithParam<std::tuple<DiffParams, bool, TableMode>> {
};

TEST_P(DpVersusRecursive, SeededHorizonsGiveBitIdenticalPlans) {
  const auto& [shape, instant, table_mode] = GetParam();
  PlannerParams params = FastParams();
  params.d_slots = shape.d_slots;
  params.partitions_per_node = shape.partitions_per_node;
  params.assume_instant_capacity = instant;
  DpPlanner planner(params);
  std::unique_ptr<MoveModelTable> table;
  if (table_mode != TableMode::kNone) {
    // Full: covers every Z the horizons can reach. Too small: pairs
    // above 3 machines fall back to direct computation.
    table = std::make_unique<MoveModelTable>(
        params, NodeCount(table_mode == TableMode::kFull ? 32 : 3));
    planner.set_move_table(table.get());
  }
  DiffOutcome outcome;
  for (uint64_t seed = 1; seed <= 150; ++seed) {
    Rng rng(seed);
    const std::vector<double> load = ShapedHorizon(rng);
    const int needed = planner.NodesFor(load[0]).value();
    // N0 below, at and above what the current load needs.
    for (const int n0 : {std::max(1, needed - 1), needed, needed + 2,
                         1 + static_cast<int>(rng.NextUint64(24))}) {
      ExpectSamePlan(planner, load, n0,
                     "seed " + std::to_string(seed) + " n0 " +
                         std::to_string(n0),
                     &outcome);
    }
  }
  // The seeded mix exercises every outcome the comparison covers.
  EXPECT_GT(outcome.feasible, 100);
  EXPECT_GT(outcome.infeasible, 10);
  EXPECT_GT(outcome.reconfiguring, 50);
}

INSTANTIATE_TEST_SUITE_P(
    ParamsInstantTable, DpVersusRecursive,
    ::testing::Combine(
        ::testing::Values(DiffParams{"fast", 4.0, 1},
                          DiffParams{"short", 2.0, 1},
                          DiffParams{"sweep", 15.4, 6},
                          DiffParams{"slow", 9.0, 2}),
        ::testing::Bool(),
        ::testing::Values(TableMode::kNone, TableMode::kFull,
                          TableMode::kTooSmall)),
    [](const auto& info) {
      const TableMode mode = std::get<2>(info.param);
      return std::string(std::get<0>(info.param).name) +
             (std::get<1>(info.param) ? "_instant" : "_eq7") +
             (mode == TableMode::kNone   ? "_notable"
              : mode == TableMode::kFull ? "_fulltable"
                                         : "_smalltable");
    });

// Hand-built infeasible and degenerate inputs: both planners reject
// them with the same status code.
TEST(DpVersusRecursiveTest, InfeasibleAndInvalidInputsAgree) {
  const DpPlanner planner(FastParams());
  DiffOutcome outcome;
  // Current load already above N0's capacity.
  ExpectSamePlan(planner, std::vector<double>(6, 500.0), 2, "overloaded now",
                 &outcome);
  // A ramp faster than any migration can follow.
  ExpectSamePlan(planner, {150.0, 800.0, 800.0, 800.0}, 2, "steep ramp",
                 &outcome);
  ExpectSamePlan(planner, {90.0, 90.0, 2000.0}, 1, "late spike", &outcome);
  EXPECT_EQ(outcome.infeasible, 3);
  ExpectSamePlan(planner, {100.0}, 2, "one slot", &outcome);
  ExpectSamePlan(planner, {100.0, 100.0}, 0, "no machines", &outcome);
  EXPECT_EQ(outcome.feasible, 0);
}

}  // namespace
}  // namespace pstore
