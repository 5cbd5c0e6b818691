#include "fleet/placement.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/strong_id.h"
#include "planner/move_model.h"
#include "planner/move_model_table.h"

namespace pstore {
namespace fleet {
namespace {

constexpr size_t kNoMachine = static_cast<size_t>(-1);

// An upper bound on the demands d for which `load + d <= capacity`
// holds in rounded arithmetic, or +inf when either input is not finite.
// With unit roundoff u = 2^-53 the rounded test implies the real
// inequality load + d <= capacity + 2u|capacity|; the margin of
// 1e-15 (|capacity| + |load|) exceeds that slack plus the rounding of
// this expression itself (about 4u (|capacity| + |load|) in all), and
// the DBL_MIN term covers underflow of the margin.
double FitBound(double load, double capacity) {
  const double bound =
      (capacity - load) + ((std::fabs(capacity) + std::fabs(load)) * 1e-15 +
                           std::numeric_limits<double>::min());
  return std::isfinite(bound) ? bound
                              : std::numeric_limits<double>::infinity();
}

// Mutable pool state during one Pack, kept as flat per-machine arrays:
// load, partition count, distinct-tenant count, the capacity at that
// count, and the capacity if one more distinct tenant arrived (both
// computed by EffectiveMachineCapacity and refreshed whenever the count
// changes). Residency is read from the items themselves: tenant t's
// items are the contiguous range [offsets[t], offsets[t+1]), and
// `where_` holds each item's machine (kUnplaced while it is not in the
// pool), so "is t on m" is a scan of t's few partitions rather than a
// per-machine tenant map.
//
// Best fit visits every machine, yet almost every machine of a packed
// pool is too full for the item at hand. Each machine therefore carries
// FitBound for an arriving tenant, an upper bound on the demands that
// can fit it, and machines are grouped into blocks of kBlock that carry
// their largest bound; a block whose bound is below the demand is
// skipped whole. The bound only filters: every machine it admits is
// tested with the exact expressions.
class Pool {
 public:
  Pool(const PlacementOptions& options, const std::vector<double>& item_demand,
       const std::vector<int>& item_tenant, const std::vector<size_t>& offsets)
      : options_(&options),
        item_demand_(&item_demand),
        item_tenant_(&item_tenant),
        offsets_(&offsets),
        where_(item_demand.size(), kUnplaced),
        empty_capacity_(EffectiveMachineCapacity(options, 0)),
        arrival_capacity_(EffectiveMachineCapacity(options, 1)) {}

  size_t size() const { return load_.size(); }
  double load(size_t m) const { return load_[m]; }
  int64_t partitions(size_t m) const { return partitions_[m]; }
  int distinct_tenants(size_t m) const { return distinct_[m]; }

  // Places `item` on machine m (growing the pool if m is new).
  void Add(size_t item, size_t m) {
    if (m >= load_.size()) Grow(m + 1);
    if (!Resident((*item_tenant_)[item], m)) SetDistinct(m, distinct_[m] + 1);
    where_[item] = static_cast<int>(m);
    load_[m] += (*item_demand_)[item];
    ++partitions_[m];
    UpdateFitBound(m);
  }

  // Takes `item` off its machine; it is unplaced until the next Add.
  void Remove(size_t item) {
    const size_t m = static_cast<size_t>(where_[item]);
    where_[item] = kUnplaced;
    load_[m] -= (*item_demand_)[item];
    --partitions_[m];
    if (!Resident((*item_tenant_)[item], m)) SetDistinct(m, distinct_[m] - 1);
    if (partitions_[m] == 0) load_[m] = 0.0;  // cancel rounding residue
    UpdateFitBound(m);
  }

  // Over-capacity check for the machine as currently populated.
  bool Overloaded(size_t m) const { return load_[m] > capacity_[m]; }

  // The item on m with the largest demand, lowest index on ties, or
  // kNoMachine when m holds none.
  size_t LargestItemOn(size_t m) const {
    const int target = static_cast<int>(m);
    size_t victim = kNoMachine;
    for (size_t i = 0; i < where_.size(); ++i) {
      if (where_[i] != target) continue;
      if (victim == kNoMachine ||
          (*item_demand_)[i] > (*item_demand_)[victim]) {
        victim = i;
      }
    }
    return victim;
  }

  // Best-fit machine for `item` among [0, size()), or kNoMachine. The
  // fitting machine with the least capacity left after placement wins;
  // ties break to the lowest machine id. Machines the item's tenant
  // already occupies are charged no extra tenant: their scan capacity
  // is raised to the current-count value for the scan and restored
  // after it. The block bounds do not cover that raised capacity, so
  // those few machines are also tested on their own.
  size_t BestFit(size_t item) {
    const double demand = (*item_demand_)[item];
    const size_t tenant = static_cast<size_t>((*item_tenant_)[item]);
    const size_t first = (*offsets_)[tenant];
    const size_t last = (*offsets_)[tenant + 1];
    for (size_t i = first; i < last; ++i) {
      if (where_[i] == kUnplaced) continue;
      const size_t m = static_cast<size_t>(where_[i]);
      scan_capacity_[m] = capacity_[m];
    }

    // The fit test and the remaining capacity keep the exact expressions
    // `load + demand <= cap` and `cap - (load + demand)`: a rearranged
    // form such as `cap - load >= demand` rounds differently and would
    // change which machines fit. Candidates are compared on (remaining,
    // machine id), so the resident machines tested out of order still
    // lose ties to lower ids.
    const double* load = load_.data();
    const double* cap = scan_capacity_.data();
    size_t best = kNoMachine;
    double best_remaining = 0.0;
    const auto consider = [&](size_t m) {
      const double after = load[m] + demand;
      if (!(after <= cap[m])) return;
      const double remaining = cap[m] - after;
      if (best == kNoMachine || remaining < best_remaining ||
          (remaining == best_remaining && m < best)) {
        best = m;
        best_remaining = remaining;
      }
    };
    const size_t n = load_.size();
    for (size_t block = 0; block < block_fit_bound_.size(); ++block) {
      if (demand > block_fit_bound_[block]) continue;
      const size_t end = std::min(n, (block + 1) * kBlock);
      for (size_t m = block * kBlock; m < end; ++m) consider(m);
    }
    for (size_t i = first; i < last; ++i) {
      if (where_[i] != kUnplaced) consider(static_cast<size_t>(where_[i]));
    }

    for (size_t i = first; i < last; ++i) {
      if (where_[i] == kUnplaced) continue;
      const size_t m = static_cast<size_t>(where_[i]);
      scan_capacity_[m] = capacity_if_new_[m];
    }
    return best;
  }

  // Lowest-id empty machine, or size() to open a new one.
  size_t LowestFreeMachine() const {
    for (size_t m = 0; m < partitions_.size(); ++m) {
      if (partitions_[m] == 0) return m;
    }
    return partitions_.size();
  }

  int MachinesUsed() const {
    int used = 0;
    for (size_t m = 0; m < partitions_.size(); ++m) {
      if (partitions_[m] > 0) ++used;
    }
    return used;
  }

  // Every item's machine; all items must be placed.
  std::vector<MachineId> Machines() const {
    std::vector<MachineId> machine(where_.size(), MachineId(0));
    for (size_t i = 0; i < where_.size(); ++i) {
      machine[i] = MachineId(where_[i]);
    }
    return machine;
  }

 private:
  static constexpr int kUnplaced = -1;
  static constexpr size_t kBlock = 16;

  // True when a placed item of `tenant` sits on machine m.
  bool Resident(int tenant, size_t m) const {
    const int target = static_cast<int>(m);
    const size_t first = (*offsets_)[static_cast<size_t>(tenant)];
    const size_t last = (*offsets_)[static_cast<size_t>(tenant) + 1];
    for (size_t i = first; i < last; ++i) {
      if (where_[i] == target) return true;
    }
    return false;
  }

  void SetDistinct(size_t m, int distinct) {
    distinct_[m] = distinct;
    capacity_[m] = EffectiveMachineCapacity(*options_, distinct);
    capacity_if_new_[m] = EffectiveMachineCapacity(*options_, distinct + 1);
    scan_capacity_[m] = capacity_if_new_[m];
  }

  // Adds empty machines up to `machines` in all.
  void Grow(size_t machines) {
    const size_t old_size = load_.size();
    load_.resize(machines, 0.0);
    partitions_.resize(machines, 0);
    distinct_.resize(machines, 0);
    capacity_.resize(machines, empty_capacity_);
    capacity_if_new_.resize(machines, arrival_capacity_);
    scan_capacity_.resize(machines, arrival_capacity_);
    fit_bound_.resize(machines, 0.0);
    block_fit_bound_.resize((machines + kBlock - 1) / kBlock,
                            -std::numeric_limits<double>::infinity());
    for (size_t m = old_size; m < machines; ++m) UpdateFitBound(m);
  }

  // Refreshes machine m's fit bound for an arriving tenant and its
  // block's bound.
  void UpdateFitBound(size_t m) {
    const double old_bound = fit_bound_[m];
    const double bound = FitBound(load_[m], capacity_if_new_[m]);
    fit_bound_[m] = bound;
    double& block_bound = block_fit_bound_[m / kBlock];
    if (bound >= block_bound) {
      block_bound = bound;
    } else if (old_bound == block_bound) {
      const size_t begin = m / kBlock * kBlock;
      const size_t end = std::min(fit_bound_.size(), begin + kBlock);
      block_bound = fit_bound_[begin];
      for (size_t k = begin + 1; k < end; ++k) {
        block_bound = std::max(block_bound, fit_bound_[k]);
      }
    }
  }

  const PlacementOptions* options_;
  const std::vector<double>* item_demand_;
  const std::vector<int>* item_tenant_;
  const std::vector<size_t>* offsets_;
  std::vector<int> where_;  // by item
  double empty_capacity_;
  double arrival_capacity_;
  // By machine.
  std::vector<double> load_;
  std::vector<int64_t> partitions_;
  std::vector<int> distinct_;
  std::vector<double> capacity_;         // at the current tenant count
  std::vector<double> capacity_if_new_;  // with one more distinct tenant
  std::vector<double> scan_capacity_;    // what BestFit tests against
  std::vector<double> fit_bound_;
  std::vector<double> block_fit_bound_;  // by block of kBlock machines
};

// Items ordered for placement: demand descending, flat index ascending.
// A tenant's items share one demand and hold contiguous indices, so
// ordering tenants by (share desc, tenant asc) and expanding each
// tenant's range yields exactly that item order.
std::vector<size_t> PlacementOrder(const std::vector<double>& item_demand,
                                   const std::vector<size_t>& offsets) {
  struct TenantKey {
    double share;
    size_t tenant;
  };
  std::vector<TenantKey> tenants(offsets.size() - 1);
  for (size_t t = 0; t < tenants.size(); ++t) {
    tenants[t] = {item_demand[offsets[t]], t};
  }
  std::sort(tenants.begin(), tenants.end(),
            [](const TenantKey& a, const TenantKey& b) {
              if (a.share != b.share) return a.share > b.share;
              return a.tenant < b.tenant;
            });
  std::vector<size_t> order;
  order.reserve(item_demand.size());
  for (const TenantKey& key : tenants) {
    for (size_t i = offsets[key.tenant]; i < offsets[key.tenant + 1]; ++i) {
      order.push_back(i);
    }
  }
  return order;
}

Placement Finalize(const Pool& pool, std::vector<size_t> offsets,
                   const Placement* previous) {
  Placement placement;
  placement.partition_offset = std::move(offsets);
  placement.machine = pool.Machines();
  placement.machine_load.resize(pool.size());
  placement.machine_partitions.resize(pool.size());
  placement.machine_tenant_counts.resize(pool.size());
  for (size_t m = 0; m < pool.size(); ++m) {
    placement.machine_load[m] = pool.load(m);
    placement.machine_partitions[m] = pool.partitions(m);
    placement.machine_tenant_counts[m] = pool.distinct_tenants(m);
  }
  placement.machines_used = pool.MachinesUsed();
  if (previous != nullptr &&
      previous->machine.size() == placement.machine.size()) {
    for (size_t i = 0; i < placement.machine.size(); ++i) {
      if (placement.machine[i] != previous->machine[i]) {
        ++placement.moved_partitions;
      }
    }
  }
  return placement;
}

}  // namespace

double EffectiveMachineCapacity(const PlacementOptions& options,
                                int distinct_tenants) {
  return EffectiveServeCapacity(options, options.machine_capacity,
                                distinct_tenants);
}

double EffectiveServeCapacity(const PlacementOptions& options,
                              double serve_capacity, int distinct_tenants) {
  const int extra = distinct_tenants > 1 ? distinct_tenants - 1 : 0;
  double fraction =
      1.0 - options.interference_per_tenant * static_cast<double>(extra);
  if (fraction < options.min_capacity_fraction) {
    fraction = options.min_capacity_fraction;
  }
  return serve_capacity * fraction;
}

PlacementPlanner::PlacementPlanner(const PlacementOptions& options,
                                   const MoveModelTable* move_table)
    : options_(options), move_table_(move_table) {}

StatusOr<Placement> PlacementPlanner::PackFresh(
    const std::vector<double>& item_demand,
    const std::vector<int>& item_tenant,
    const std::vector<size_t>& offsets) const {
  Pool pool(options_, item_demand, item_tenant, offsets);
  for (size_t item : PlacementOrder(item_demand, offsets)) {
    size_t target = pool.BestFit(item);
    if (target == kNoMachine) {
      // Nothing fits: open a machine. An item larger than one machine
      // is placed alone and simply overloads it (the fleet layer does
      // not split partitions further).
      target = pool.size();
      if (target >= static_cast<size_t>(options_.max_machines)) {
        return Status::OutOfRange(
            "placement needs more than max_machines = " +
            std::to_string(options_.max_machines));
      }
    }
    pool.Add(item, target);
  }
  Placement placement = Finalize(pool, offsets, nullptr);
  placement.repacked = true;
  return placement;
}

StatusOr<Placement> PlacementPlanner::PackIncremental(
    const std::vector<double>& item_demand,
    const std::vector<int>& item_tenant, const std::vector<size_t>& offsets,
    const Placement& previous) const {
  Pool pool(options_, item_demand, item_tenant, offsets);
  for (size_t i = 0; i < previous.machine.size(); ++i) {
    pool.Add(i, static_cast<size_t>(previous.machine[i].value()));
  }

  // Evict from overloaded machines, largest item first (fewest moves);
  // removing a tenant's last partition lifts the interference penalty,
  // so capacity is re-evaluated after every eviction. An evicted item
  // leaves the pool, so a machine needing several evictions never
  // picks the same victim twice.
  std::vector<size_t> evicted;
  evicted.reserve(previous.machine.size());
  for (size_t m = 0; m < pool.size(); ++m) {
    while (pool.partitions(m) > 1 && pool.Overloaded(m)) {
      const size_t victim = pool.LargestItemOn(m);
      if (victim == kNoMachine) break;
      pool.Remove(victim);
      evicted.push_back(victim);
    }
  }

  // Re-place evicted items (demand desc, index asc); beyond best fit,
  // reuse the lowest-id empty machine before growing the pool.
  std::sort(evicted.begin(), evicted.end(), [&](size_t a, size_t b) {
    if (item_demand[a] != item_demand[b]) {
      return item_demand[a] > item_demand[b];
    }
    return a < b;
  });
  for (size_t item : evicted) {
    size_t target = pool.BestFit(item);
    if (target == kNoMachine) {
      target = pool.LowestFreeMachine();
      if (target >= static_cast<size_t>(options_.max_machines)) {
        return Status::OutOfRange(
            "placement needs more than max_machines = " +
            std::to_string(options_.max_machines));
      }
    }
    pool.Add(item, target);
  }

  Placement sticky = Finalize(pool, offsets, &previous);

  // Consolidation: when total demand suggests the pool could shrink,
  // price a from-scratch repack against the move-model resize cost.
  double total = 0.0;
  for (double d : item_demand) total += d;
  const double best_case_capacity = EffectiveMachineCapacity(options_, 1);
  const int lower_bound = static_cast<int>(
      std::ceil(total / (best_case_capacity > 0.0 ? best_case_capacity
                                                  : 1.0)));
  if (sticky.machines_used > lower_bound) {
    StatusOr<Placement> fresh = PackFresh(item_demand, item_tenant, offsets);
    if (!fresh.ok()) return sticky;  // fresh pack can only need more; keep
    const int saved = sticky.machines_used - fresh->machines_used;
    if (saved > 0) {
      double resize_cost = 0.0;
      if (move_table_ != nullptr &&
          move_table_->Covers(NodeCount(sticky.machines_used),
                              NodeCount(fresh->machines_used))) {
        resize_cost = move_table_->MoveCost(
            NodeCount(sticky.machines_used),
            NodeCount(fresh->machines_used));
      }
      // Moves against the *previous* placement, not sticky: the churn a
      // repack is charged for is what it moves beyond the evictions the
      // sticky pack had to do anyway.
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
      const double amortized_savings =
          static_cast<double>(saved) *
          static_cast<double>(options_.repack_amortize_slots);
      if (amortized_savings >
          resize_cost + options_.partition_move_cost *
                            static_cast<double>(extra_moves)) {
        return fresh;
      }
    }
  }
  return sticky;
}

StatusOr<Placement> PlacementPlanner::Pack(
    const std::vector<double>& tenant_demand,
    const std::vector<int>& tenant_partitions,
    const Placement* previous) const {
  if (tenant_demand.size() != tenant_partitions.size()) {
    return Status::InvalidArgument(
        "tenant_demand and tenant_partitions sizes differ");
  }
  // Flatten: demand splits evenly across a tenant's partitions.
  std::vector<size_t> offsets(tenant_demand.size() + 1, 0);
  for (size_t t = 0; t < tenant_demand.size(); ++t) {
    if (tenant_partitions[t] < 1) {
      return Status::InvalidArgument("tenant " + std::to_string(t) +
                                     " has no partitions");
    }
    if (!(tenant_demand[t] >= 0.0) || std::isinf(tenant_demand[t])) {
      return Status::InvalidArgument("tenant " + std::to_string(t) +
                                     " has invalid demand");
    }
    offsets[t + 1] = offsets[t] + static_cast<size_t>(tenant_partitions[t]);
  }
  std::vector<double> item_demand(offsets.back());
  std::vector<int> item_tenant(offsets.back());
  for (size_t t = 0; t < tenant_demand.size(); ++t) {
    const double share =
        tenant_demand[t] / static_cast<double>(tenant_partitions[t]);
    for (size_t i = offsets[t]; i < offsets[t + 1]; ++i) {
      item_demand[i] = share;
      item_tenant[i] = static_cast<int>(t);
    }
  }

  if (previous != nullptr) {
    if (previous->partition_offset != offsets) {
      return Status::InvalidArgument(
          "previous placement has a different tenant/partition shape");
    }
    return PackIncremental(item_demand, item_tenant, offsets, *previous);
  }
  return PackFresh(item_demand, item_tenant, offsets);
}

}  // namespace fleet
}  // namespace pstore
