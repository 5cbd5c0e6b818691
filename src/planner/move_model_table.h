#ifndef PSTORE_PLANNER_MOVE_MODEL_TABLE_H_
#define PSTORE_PLANNER_MOVE_MODEL_TABLE_H_

#include <cstddef>
#include <vector>

#include "common/check.h"
#include "common/strong_id.h"
#include "planner/move_model.h"

namespace pstore {

// Precomputed, immutable grids of T(B,A), C(B,A) (Eqs. 3-4) and
// avg-mach-alloc(B,A) (Algorithm 4) for all 1 <= B, A <= max_nodes.
// The dynamic program evaluates these for every (B, A) pair of every
// plan, and the values depend only on (B, A) plus two PlannerParams
// fields (d_slots, partitions_per_node) — so a sweep computes the grid
// once and shares it read-only across planners and threads.
//
// Entries are produced by calling the exact move-model functions, never
// a re-derivation, so lookups are bit-identical to direct computation;
// the move-model tests assert this over the full grid. The table is
// immutable after construction and therefore safe to read concurrently.
class MoveModelTable {
 public:
  MoveModelTable(const PlannerParams& params, NodeCount max_nodes);

  // True when both cluster sizes fall inside the precomputed grid.
  bool Covers(NodeCount before, NodeCount after) const {
    return before >= NodeCount(1) && after >= NodeCount(1) &&
           before.value() <= max_nodes_ && after.value() <= max_nodes_;
  }

  // True when `params` would reproduce this table: MoveTime / MoveCost
  // read only these two fields, so a planner may adopt the table iff
  // they match exactly.
  bool MatchesParams(const PlannerParams& params) const {
    return params.d_slots == d_slots_ &&
           params.partitions_per_node == partitions_per_node_;
  }

  // Eq. 3, via lookup. Requires Covers(before, after).
  double MoveTime(NodeCount before, NodeCount after) const {
    return move_time_[Index(before, after)];
  }

  // Eq. 4, via lookup. Requires Covers(before, after).
  double MoveCost(NodeCount before, NodeCount after) const {
    return move_cost_[Index(before, after)];
  }

  // Algorithm 4, via lookup. Requires Covers(before, after).
  double AvgMachinesAllocated(NodeCount before, NodeCount after) const {
    return avg_machines_[Index(before, after)];
  }

  int max_nodes() const { return max_nodes_; }

 private:
  size_t Index(NodeCount before, NodeCount after) const {
    PSTORE_DCHECK(Covers(before, after));
    return static_cast<size_t>(before.value() - 1) *
               static_cast<size_t>(max_nodes_) +
           static_cast<size_t>(after.value() - 1);
  }

  int max_nodes_;
  double d_slots_;
  int partitions_per_node_;
  std::vector<double> move_time_;
  std::vector<double> move_cost_;
  std::vector<double> avg_machines_;
};

}  // namespace pstore

#endif  // PSTORE_PLANNER_MOVE_MODEL_TABLE_H_
