#include "planner/dp_planner.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <vector>

#include "common/check.h"
#include "common/status.h"
#include "common/strong_id.h"
#include "obs/tracer.h"
#include "obs/wall_timer.h"
#include "planner/move.h"
#include "planner/move_model.h"
#include "planner/validate.h"

namespace pstore {
namespace {

constexpr double kInfinity = std::numeric_limits<double>::infinity();

// Eq. 7: the capacity the system offers at slot i (1-based) of a move
// from `before` to `after` machines lasting `duration` slots, which
// Algorithm 3 checks against the predicted load.
double CapacityDuringMove(int before, int after, int i, int duration,
                          const PlannerParams& params) {
  if (params.assume_instant_capacity) {
    return Capacity(NodeCount(after), params);
  }
  const double fraction =
      static_cast<double>(i) / static_cast<double>(duration);
  return EffectiveCapacity(NodeCount(before), NodeCount(after), fraction,
                           params);
}

}  // namespace

DpPlanner::DpPlanner(const PlannerParams& params) : params_(params) {
  PSTORE_CHECK(params_.target_rate_per_node > 0.0);
  PSTORE_CHECK(params_.d_slots > 0.0);
  PSTORE_CHECK(params_.partitions_per_node >= 1);
}

NodeCount DpPlanner::NodesFor(double load) const {
  if (load <= 0.0) return NodeCount(1);
  return NodeCount(std::max(
      1, static_cast<int>(std::ceil(load / params_.target_rate_per_node))));
}

int DpPlanner::MoveSlots(NodeCount before, NodeCount after) const {
  if (before == after) return 1;  // "do nothing" occupies one slot
  const bool tabled = move_table_ != nullptr && move_table_->Covers(before, after);
  const double t = tabled ? move_table_->MoveTime(before, after)
                          : MoveTime(before, after, params_);
  return std::max(1, static_cast<int>(std::ceil(t)));
}

double DpPlanner::MoveCostCharged(NodeCount before, NodeCount after) const {
  if (before == after) return before.value();
  const bool tabled = move_table_ != nullptr && move_table_->Covers(before, after);
  const double real_time = tabled ? move_table_->MoveTime(before, after)
                                  : MoveTime(before, after, params_);
  const int slots = MoveSlots(before, after);
  const double padding = static_cast<double>(slots) - real_time;
  const double cost = tabled ? move_table_->MoveCost(before, after)
                             : MoveCost(before, after, params_);
  return cost + padding * static_cast<double>(after.value());
}

StatusOr<PlanResult> DpPlanner::BestMoves(
    const std::vector<double>& predicted_load, NodeCount initial_nodes) const {
  obs::WallTimer timer;
  StatusOr<PlanResult> result = RunSearch(predicted_load, initial_nodes);
  const bool feasible = result.ok();
  PSTORE_TRACE(
      tracer_, ::pstore::obs::TraceCategory::kPlanner,
      trace_now_ ? trace_now_() : 0, "planner.plan",
      .With("wall_us", timer.ElapsedMicros())
          .With("feasible", feasible)
          .With("n0", initial_nodes.value())
          .With("horizon", predicted_load.empty()
                               ? 0
                               : static_cast<int>(predicted_load.size()) - 1)
          .With("target", feasible ? result->final_nodes.value() : 0)
          .With("moves",
                feasible ? static_cast<int>(result->moves.size()) : 0));
  return result;
}

StatusOr<PlanResult> DpPlanner::RunSearch(
    const std::vector<double>& predicted_load, NodeCount initial_nodes) const {
  if (predicted_load.size() < 2) {
    return Status::InvalidArgument("prediction horizon must cover >= 2 slots");
  }
  if (initial_nodes < NodeCount(1)) {
    return Status::InvalidArgument("initial_nodes must be >= 1");
  }
  const int horizon = static_cast<int>(predicted_load.size()) - 1;
  const double max_load =
      *std::max_element(predicted_load.begin(), predicted_load.end());
  // Z: the maximum number of machines ever needed (Algorithm 1 line 2).
  const int z = std::max(NodesFor(max_load), initial_nodes).value();

  const int n0 = initial_nodes.value();
  const size_t stride = static_cast<size_t>(z) + 1;
  auto at = [stride](int row, int col) {
    return static_cast<size_t>(row) * stride + static_cast<size_t>(col);
  };

  // Eq. 5 for every machine count up to Z, and the move model of every
  // (B, A) transition with B, A <= Z, computed once per plan by the same
  // MoveSlots / MoveCostCharged the backtrack and the simulator use, plus
  // Eq. 7's capacity at each slot of each move:
  // move_capacity[move_capacity_at[(B, A)] + i - 1] for slot i.
  std::vector<double> node_capacity(stride, 0.0);
  for (int n = 1; n <= z; ++n) {
    node_capacity[static_cast<size_t>(n)] = Capacity(NodeCount(n), params_);
  }
  std::vector<int> move_slots(stride * stride, 0);
  std::vector<double> move_charged(stride * stride, 0.0);
  std::vector<size_t> move_capacity_at(stride * stride, 0);
  size_t move_capacity_size = 0;
  for (int before = 1; before <= z; ++before) {
    for (int after = 1; after <= z; ++after) {
      const size_t pair = at(before, after);
      move_slots[pair] = MoveSlots(NodeCount(before), NodeCount(after));
      move_charged[pair] = MoveCostCharged(NodeCount(before), NodeCount(after));
      move_capacity_at[pair] = move_capacity_size;
      move_capacity_size += static_cast<size_t>(move_slots[pair]);
    }
  }
  std::vector<double> move_capacity(move_capacity_size);
  for (int before = 1; before <= z; ++before) {
    for (int after = 1; after <= z; ++after) {
      const size_t pair = at(before, after);
      for (int i = 1; i <= move_slots[pair]; ++i) {
        move_capacity[move_capacity_at[pair] + static_cast<size_t>(i) - 1] =
            CapacityDuringMove(before, after, i, move_slots[pair], params_);
      }
    }
  }

  // Algorithm 2's cost matrix, filled bottom-up: cost[t][n] is the
  // minimum cost of a feasible sequence of moves ending with n machines
  // at slot t, and prev[t][n] the machine count before the last move
  // (Algorithm 2's matrix m; the move started MoveSlots(prev, n) slots
  // earlier). Every move lasts at least one slot, so row t reads only
  // rows below it. The rows do not depend on the final-machine target,
  // so unlike the paper's pseudocode one fill serves every candidate.
  const size_t rows = static_cast<size_t>(horizon) + 1;
  std::vector<double> cost(rows * stride, kInfinity);
  std::vector<int> prev(rows * stride, -1);
  // Base case: slot 0 holds only N0 machines, billed for slot 0. Like
  // every check below, only load > capacity rules a state out.
  if (!(predicted_load[0] > node_capacity[static_cast<size_t>(n0)])) {
    cost[at(0, n0)] = static_cast<double>(n0);
  }
  for (int t = 1; t <= horizon; ++t) {
    const double load_t = predicted_load[static_cast<size_t>(t)];
    for (int after = 1; after <= z; ++after) {
      if (load_t > node_capacity[static_cast<size_t>(after)]) continue;
      // Algorithm 3 for every predecessor; ties keep the smallest
      // `before` (ascending scan, strict <).
      double best = kInfinity;
      int best_before = -1;
      for (int before = 1; before <= z; ++before) {
        const size_t pair = at(before, after);
        const int duration = move_slots[pair];
        const int start = t - duration;
        if (start < 0) continue;
        const double prior = cost[at(start, before)];
        if (prior == kInfinity) continue;
        // Eq. 7 over slots start+1 .. t of the move.
        const double* load = &predicted_load[static_cast<size_t>(start) + 1];
        const double* capacity = &move_capacity[move_capacity_at[pair]];
        int i = 0;
        while (i < duration && !(load[i] > capacity[i])) ++i;
        if (i < duration) continue;
        const double candidate = prior + move_charged[pair];
        if (candidate < best) {
          best = candidate;
          best_before = before;
        }
      }
      cost[at(t, after)] = best;
      prev[at(t, after)] = best_before;
    }
  }

  // Try to end the horizon with as few machines as possible (Algorithm 1
  // lines 3-12); the first feasible target is the answer.
  for (int final_nodes = 1; final_nodes <= z; ++final_nodes) {
    const double total = cost[at(horizon, final_nodes)];
    if (total == kInfinity) continue;

    // Walk the best moves backwards (Algorithm 1 lines 6-11).
    PlanResult result;
    result.total_cost = total;
    result.final_nodes = NodeCount(final_nodes);
    int t = horizon;
    int nodes = final_nodes;
    result.moves.reserve(static_cast<size_t>(horizon));
    while (t > 0) {
      PSTORE_CHECK(cost[at(t, nodes)] < kInfinity);
      const int before = prev[at(t, nodes)];
      PSTORE_CHECK(before >= 1);
      const int start = t - move_slots[at(before, nodes)];
      PSTORE_CHECK_MSG(start >= 0 && start < t,
                       "best move does not advance time");
      Move move;
      move.start_slot = TimeStep(start);
      move.end_slot = TimeStep(t);
      move.nodes_before = NodeCount(before);
      move.nodes_after = NodeCount(nodes);
      result.moves.push_back(move);
      t = start;
      nodes = before;
    }
    std::reverse(result.moves.begin(), result.moves.end());
    // Debug builds mechanically re-verify every emitted plan against the
    // paper's invariants (coverage, chaining, Eq. 7 feasibility, cost).
    PSTORE_DCHECK_OK(
        PlanValidator(params_).Validate(result, predicted_load, initial_nodes));
    return result;
  }
  return Status::Infeasible(
      "no feasible sequence of moves from the initial machine count");
}

}  // namespace pstore
