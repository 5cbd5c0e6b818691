#ifndef PERFBENCH_DRIVER_PROBES_H_
#define PERFBENCH_DRIVER_PROBES_H_

// Outside-in instrumentation for the benchmark's traced runs. Nothing
// here reaches into the program: every number comes from perfbench_driver
// timing its own calls into public APIs, from decorators it hands to
// the program (a forwarding LoadPredictor, a counting TxnFactory), from
// the EventLoop pre-event hook, or from the program's own trace events
// read by an in-memory TraceSink.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "b2w/workload.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/time_series.h"
#include "engine/transaction.h"
#include "engine/workload_driver.h"
#include "obs/tracer.h"
#include "prediction/predictor.h"

namespace perfbench {

// Monotonic host clock in nanoseconds.
int64_t NowNs();

// Host-time spans with parent links, kept in memory and written out when
// the run ends. Single-threaded; names must be string literals.
class Spans {
 public:
  struct Span {
    const char* name;
    int64_t start_ns;
    int64_t end_ns;
    int parent;  // index into spans(), -1 for a root
  };

  // Opens a span as a child of the innermost open one.
  int Begin(const char* name);
  // Closes span `index`, which must be the innermost open one.
  void End(int index);

  const std::vector<Span>& spans() const { return spans_; }
  // Sum of durations of every span called `name`.
  double TotalSeconds(const char* name) const;
  // Sum over spans called `name` of duration minus what their direct
  // children cover.
  double TotalSelfSeconds(const char* name) const;
  // One JSON object per line: name, start/end in ns, parent, self_ns.
  std::string ToJsonl() const;

 private:
  // Per span: the time its direct children cover.
  std::vector<int64_t> ChildNs() const;

  std::vector<Span> spans_;
  std::vector<int> open_;
};

// RAII span; a null Spans* makes it a no-op (untraced runs).
class ScopedSpan {
 public:
  ScopedSpan(Spans* spans, const char* name)
      : spans_(spans), index_(spans != nullptr ? spans->Begin(name) : -1) {}
  ~ScopedSpan() {
    if (spans_ != nullptr) spans_->End(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Spans* spans_;
  int index_;
};

// What the forwarding predictor saw.
struct PredictionStats {
  int64_t fit_calls = 0;
  int64_t fit_ns = 0;
  int64_t forecast_calls = 0;
  int64_t forecast_ns = 0;
  std::vector<double> forecast_us;  // one sample per forecast call
  int64_t update_calls = 0;
  int64_t update_ns = 0;

  int64_t calls() const { return fit_calls + forecast_calls + update_calls; }
  int64_t total_ns() const { return fit_ns + forecast_ns + update_ns; }
};

// Forwarding LoadPredictor decorator: times every call into the wrapped
// model and otherwise changes nothing, so the simulation it drives is
// bit-identical to one driven by the bare model. `on_forecast`, when
// set, sees each successful horizon forecast with its input history.
class TimedPredictor : public pstore::LoadPredictor {
 public:
  using ForecastObserver = std::function<void(
      const pstore::TimeSeries& history, const std::vector<double>& forecast)>;

  TimedPredictor(std::unique_ptr<pstore::LoadPredictor> inner,
                 PredictionStats* stats, Spans* spans);

  void set_on_forecast(ForecastObserver observer) {
    on_forecast_ = std::move(observer);
  }

  pstore::Status Fit(const pstore::TimeSeries& training) override;
  pstore::StatusOr<double> PredictAhead(const pstore::TimeSeries& history,
                                        size_t tau) const override;
  pstore::StatusOr<std::vector<double>> PredictHorizon(
      const pstore::TimeSeries& history, size_t horizon) const override;
  pstore::StatusOr<bool> Update(const pstore::TimeSeries& history) override;
  std::string name() const override { return inner_->name(); }
  std::string active_name() const override { return inner_->active_name(); }

 private:
  std::unique_ptr<pstore::LoadPredictor> inner_;
  PredictionStats* stats_;
  Spans* spans_;
  ForecastObserver on_forecast_;
};

// What the counting transaction factory saw.
struct FactoryStats {
  int64_t calls = 0;
  int64_t timed_calls = 0;
  int64_t timed_ns = 0;
  // Keys of the timed transactions, for the post-run storage probe.
  std::vector<uint64_t> keys;

  // Host time of all calls, extrapolated from the timed sample.
  double EstimatedSeconds() const;
};

// Wraps b2w::Workload::NextTransaction: counts every call and times one
// call in kSampleEvery (keeping its keys, up to kMaxKeys).
pstore::WorkloadDriver::TxnFactory MakeCountingFactory(
    pstore::b2w::Workload* workload, FactoryStats* stats);

// Reads the program's own trace events in memory: counts by name plus
// the fields the per-layer metrics need. Shares its state through a
// pointer because the Tracer owns the sink.
class StatsSink : public pstore::obs::TraceSink {
 public:
  struct State {
    int64_t events = 0;
    int64_t planner_plans = 0;
    int64_t planner_infeasible = 0;
    int64_t planner_us_total = 0;
    std::vector<double> planner_us;
    int64_t controller_cycles = 0;
    int64_t migration_chunks = 0;
    int64_t fault_applies = 0;
    int64_t sim_cycles = 0;
    int64_t sim_last_machines = 0;  // machines of the latest sim.cycle
    int64_t fleet_cycles = 0;
    int64_t fleet_packs = 0;
    int64_t fleet_repacks = 0;
    int64_t fleet_spike_replans = 0;
    int64_t fleet_partition_moves = 0;
  };

  explicit StatsSink(State* state) : state_(state) {}
  void Write(const pstore::obs::TraceEvent& event) override;
  pstore::Status Close() override { return pstore::Status::OK(); }

 private:
  State* state_;
};

// Attributes host time to the events of an EventLoop through its
// pre-event hook: an event runs from its hook call to the next one (the
// last until Finish()). Events with factory calls are driver ticks;
// events with predictor calls are controller cycles; the rest
// (migration chunks, faults, reconfiguration bookkeeping) are "other".
class EventClassifier {
 public:
  EventClassifier(const FactoryStats* factory,
                  const PredictionStats* prediction,
                  const StatsSink::State* trace);

  void OnEvent();  // install as the pre-event hook
  void Finish();   // call once after RunUntil returns

  int64_t events() const { return events_; }
  int64_t tick_events() const { return tick_events_; }
  double tick_s() const { return tick_ns_ * 1e-9; }
  double other_s() const { return other_ns_ * 1e-9; }
  // Controller events minus the prediction and planner time inside them.
  double controller_self_s() const;

 private:
  void Close(int64_t now);

  const FactoryStats* factory_;
  const PredictionStats* prediction_;
  const StatsSink::State* trace_;
  int64_t events_ = 0;
  int64_t start_ns_ = 0;
  int64_t factory_calls_ = 0;
  int64_t predictor_calls_ = 0;
  int64_t predictor_ns_ = 0;
  int64_t planner_us_ = 0;
  int64_t tick_events_ = 0;
  int64_t tick_ns_ = 0;
  int64_t controller_ns_ = 0;
  int64_t controller_inner_ns_ = 0;
  int64_t other_ns_ = 0;
};

// Percentiles of a sample.
double Median(std::vector<double> values);
// The highest percentile p in {99.9, 99, 95, 90, 75, 50} that leaves at
// least ten samples above it; p = 0 (and value 0) when the sample is too
// small for any.
struct Tail {
  double percentile = 0.0;
  double value = 0.0;
  int64_t n = 0;
};
Tail TailOf(std::vector<double> values);

// 64-bit FNV-1a over the exact bytes of simulated outputs.
class Digest {
 public:
  void Add(const void* data, size_t size);
  void Add(int64_t value) { Add(&value, sizeof(value)); }
  void Add(double value) { Add(&value, sizeof(value)); }
  void Add(const std::string& text) { Add(text.data(), text.size()); }
  std::string Hex() const;

 private:
  uint64_t hash_ = 0xcbf29ce484222325ULL;
};

}  // namespace perfbench

#endif  // PERFBENCH_DRIVER_PROBES_H_
