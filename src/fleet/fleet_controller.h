#ifndef PSTORE_FLEET_FLEET_CONTROLLER_H_
#define PSTORE_FLEET_FLEET_CONTROLLER_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/sim_time.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "fleet/placement.h"
#include "obs/tracer.h"
#include "planner/move_model_table.h"
#include "prediction/online_predictor.h"

namespace pstore {
namespace fleet {

struct FleetControllerOptions {
  PlacementOptions placement;
  // Multiplier applied to per-tenant forecasts before packing (the
  // paper's §8.2 inflation, applied per tenant).
  double inflation = 1.15;
  // Spike re-plan: when a tenant's observed demand exceeds this factor
  // times what was forecast for it, the controller re-plans the cycle
  // with the observed demand instead of waiting for the forecaster to
  // learn the new level.
  double spike_replan_factor = 1.5;
  // Demands below this are never treated as spikes (a tiny tenant going
  // from ~0 to a few txn/s is noise, not a flash crowd).
  double spike_min_demand = 1.0;
  // Per-tenant forecaster: a predictor spec (prediction/predictor_spec.h,
  // e.g. "ar(p=8)" or "shift(spar)") built for every tenant, with the
  // seasonal period in provisioning-cycle slots and a re-fit every
  // `forecast_refit_interval` cycles. The default is SPAR's
  // seasonal-plus-recent-offset structure with unit coefficients: the
  // value one period ago lifted by the mean of the last 6 seasonal
  // residuals. The spec must build — check with MakeTenantPredictor
  // first; the controller CHECKs.
  size_t forecast_period_slots = 288;
  std::string forecast_spec = "seasonal_naive(m=6)";
  size_t forecast_refit_interval = 288;
};

// One tenant's forecaster, as both provisioning modes build it: the spec
// model under an OnlinePredictor that keeps the tenant's history (the
// only copy), re-fits on the interval and leaves inflation to the fleet.
// Fails when the spec does not parse or names unknown kinds or params.
StatusOr<OnlinePredictor> MakeTenantPredictor(
    const FleetControllerOptions& options);

// The next cycle's demand forecast, clamped at 0. Before the first
// successful fit, or when the model declines to predict, it is the last
// observation (0 with no history). Calls the model directly: a per-cycle
// PredictHorizon would allocate and read the clock for every tenant.
double TenantForecast(const OnlinePredictor& predictor);

// What one provisioning cycle decided.
struct FleetCycleDecision {
  int64_t cycle = 0;
  double total_forecast = 0.0;  // inflated, what was packed
  int machines = 0;
  int64_t moved_partitions = 0;
  bool repacked = false;
  bool spike_replan = false;
};

// The fleet-level layer above the per-tenant controller stack: owns one
// forecaster per tenant and the shared-pool placement, and re-plans the
// placement every provisioning cycle from the per-tenant forecasts.
// Mirrors Seagull's structure — per-tenant load forecasts feeding a
// fleet-wide allocator — on top of this repo's planner economics.
//
// Deterministic: the per-tenant forecast fan-out writes by tenant index
// (bit-identical for any thread count) and the packer is serial.
class FleetController {
 public:
  // `tenant_partitions[t]` is tenant t's placement-unit count (>= 1).
  // `move_table` and `tracer` are borrowed and may be null.
  FleetController(const FleetControllerOptions& options,
                  std::vector<int> tenant_partitions,
                  const MoveModelTable* move_table, obs::Tracer* tracer);

  // Feeds pre-horizon history into the forecasters without planning:
  // history[t][s] is tenant t's demand in warmup cycle s. All tenants
  // must have the same number of warmup slots.
  Status WarmUp(const std::vector<std::vector<double>>& history);

  // Runs one provisioning cycle at sim time `now`: observes the demands
  // of the finished cycle (empty on the first call), detects spikes,
  // forecasts every tenant one cycle ahead (fanned out on `pool` when
  // given), and packs. Emits fleet.pack and fleet.tenant_move events.
  StatusOr<FleetCycleDecision> Tick(SimTime now,
                                    const std::vector<double>& observed,
                                    ThreadPool* pool);

  const Placement& placement() const { return placement_; }
  const std::vector<double>& last_forecast() const { return forecast_; }
  size_t tenants() const { return tenant_partitions_.size(); }

  // Lifetime counters.
  int64_t cycles() const { return cycles_; }
  int64_t repacks() const { return repacks_; }
  int64_t spike_replans() const { return spike_replans_; }
  int64_t moved_partitions() const { return moved_partitions_; }

 private:
  FleetControllerOptions options_;
  std::vector<int> tenant_partitions_;
  PlacementPlanner planner_;
  obs::Tracer* tracer_;

  std::vector<OnlinePredictor> forecasters_;
  std::vector<double> forecast_;  // uninflated, by tenant
  Placement placement_;
  bool has_placement_ = false;

  int64_t cycles_ = 0;
  int64_t repacks_ = 0;
  int64_t spike_replans_ = 0;
  int64_t moved_partitions_ = 0;
};

}  // namespace fleet
}  // namespace pstore

#endif  // PSTORE_FLEET_FLEET_CONTROLLER_H_
