#include "probes.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <utility>

#include "common/check.h"

namespace perfbench {

using pstore::LoadPredictor;
using pstore::Status;
using pstore::StatusOr;
using pstore::TimeSeries;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ---- Spans -----------------------------------------------------------------

int Spans::Begin(const char* name) {
  const int parent = open_.empty() ? -1 : open_.back();
  spans_.push_back(Span{name, NowNs(), 0, parent});
  const int index = static_cast<int>(spans_.size()) - 1;
  open_.push_back(index);
  return index;
}

void Spans::End(int index) {
  PSTORE_CHECK(!open_.empty() && open_.back() == index);
  spans_[index].end_ns = NowNs();
  open_.pop_back();
}

double Spans::TotalSeconds(const char* name) const {
  int64_t total = 0;
  for (const Span& span : spans_) {
    if (std::strcmp(span.name, name) == 0) total += span.end_ns - span.start_ns;
  }
  return total * 1e-9;
}

std::vector<int64_t> Spans::ChildNs() const {
  std::vector<int64_t> children(spans_.size(), 0);
  for (const Span& span : spans_) {
    if (span.parent >= 0) children[span.parent] += span.end_ns - span.start_ns;
  }
  return children;
}

double Spans::TotalSelfSeconds(const char* name) const {
  const std::vector<int64_t> children = ChildNs();
  int64_t total = 0;
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (std::strcmp(spans_[i].name, name) != 0) continue;
    total += spans_[i].end_ns - spans_[i].start_ns - children[i];
  }
  return total * 1e-9;
}

std::string Spans::ToJsonl() const {
  const std::vector<int64_t> children = ChildNs();
  const int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  std::string out;
  char line[256];
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    std::snprintf(line, sizeof(line),
                  "{\"id\":%zu,\"name\":\"%s\",\"start_ns\":%lld,"
                  "\"end_ns\":%lld,\"parent\":%d,\"self_ns\":%lld}\n",
                  i, span.name, static_cast<long long>(span.start_ns - origin),
                  static_cast<long long>(span.end_ns - origin), span.parent,
                  static_cast<long long>(span.end_ns - span.start_ns -
                                         children[i]));
    out += line;
  }
  return out;
}

// ---- TimedPredictor ----------------------------------------------------------

TimedPredictor::TimedPredictor(std::unique_ptr<LoadPredictor> inner,
                               PredictionStats* stats, Spans* spans)
    : inner_(std::move(inner)), stats_(stats), spans_(spans) {
  PSTORE_CHECK(inner_ != nullptr && stats_ != nullptr);
}

Status TimedPredictor::Fit(const TimeSeries& training) {
  ScopedSpan span(spans_, "prediction.fit");
  const int64_t start = NowNs();
  Status status = inner_->Fit(training);
  stats_->fit_ns += NowNs() - start;
  ++stats_->fit_calls;
  return status;
}

StatusOr<double> TimedPredictor::PredictAhead(const TimeSeries& history,
                                              size_t tau) const {
  ScopedSpan span(spans_, "prediction.forecast");
  const int64_t start = NowNs();
  StatusOr<double> value = inner_->PredictAhead(history, tau);
  const int64_t elapsed = NowNs() - start;
  stats_->forecast_ns += elapsed;
  ++stats_->forecast_calls;
  stats_->forecast_us.push_back(elapsed * 1e-3);
  return value;
}

StatusOr<std::vector<double>> TimedPredictor::PredictHorizon(
    const TimeSeries& history, size_t horizon) const {
  StatusOr<std::vector<double>> forecast = [&] {
    ScopedSpan span(spans_, "prediction.forecast");
    const int64_t start = NowNs();
    StatusOr<std::vector<double>> result =
        inner_->PredictHorizon(history, horizon);
    const int64_t elapsed = NowNs() - start;
    stats_->forecast_ns += elapsed;
    ++stats_->forecast_calls;
    stats_->forecast_us.push_back(elapsed * 1e-3);
    return result;
  }();
  if (on_forecast_ && forecast.ok()) on_forecast_(history, *forecast);
  return forecast;
}

StatusOr<bool> TimedPredictor::Update(const TimeSeries& history) {
  const int64_t start = NowNs();
  StatusOr<bool> changed = inner_->Update(history);
  stats_->update_ns += NowNs() - start;
  ++stats_->update_calls;
  return changed;
}

// ---- Counting factory ------------------------------------------------------

namespace {
constexpr int64_t kSampleEvery = 64;
constexpr size_t kMaxKeys = 1 << 16;
}  // namespace

double FactoryStats::EstimatedSeconds() const {
  if (timed_calls == 0) return 0.0;
  return static_cast<double>(timed_ns) / static_cast<double>(timed_calls) *
         static_cast<double>(calls) * 1e-9;
}

pstore::WorkloadDriver::TxnFactory MakeCountingFactory(
    pstore::b2w::Workload* workload, FactoryStats* stats) {
  return [workload, stats](pstore::Rng& rng) {
    if (stats->calls++ % kSampleEvery != 0) {
      return workload->NextTransaction(rng);
    }
    const int64_t start = NowNs();
    const pstore::TxnRequest request = workload->NextTransaction(rng);
    stats->timed_ns += NowNs() - start;
    ++stats->timed_calls;
    if (stats->keys.size() < kMaxKeys) {
      stats->keys.push_back(request.key);
      for (int i = 0; i < request.num_extra_keys; ++i) {
        stats->keys.push_back(request.extra_keys[i]);
      }
    }
    return request;
  };
}

// ---- StatsSink ---------------------------------------------------------------

namespace {

const pstore::obs::TraceEvent::Field* FindField(
    const pstore::obs::TraceEvent& event, const char* key) {
  for (const auto& field : event.fields()) {
    if (std::strcmp(field.key, key) == 0) return &field;
  }
  return nullptr;
}

int64_t IntField(const pstore::obs::TraceEvent& event, const char* key) {
  const auto* field = FindField(event, key);
  return field == nullptr ? 0 : field->int_value;
}

bool BoolField(const pstore::obs::TraceEvent& event, const char* key) {
  const auto* field = FindField(event, key);
  return field != nullptr && field->bool_value;
}

}  // namespace

void StatsSink::Write(const pstore::obs::TraceEvent& event) {
  State& s = *state_;
  ++s.events;
  const char* name = event.name();
  if (std::strcmp(name, "planner.plan") == 0) {
    const int64_t wall_us = IntField(event, "wall_us");
    ++s.planner_plans;
    if (!BoolField(event, "feasible")) ++s.planner_infeasible;
    s.planner_us_total += wall_us;
    s.planner_us.push_back(static_cast<double>(wall_us));
  } else if (std::strcmp(name, "controller.cycle") == 0) {
    ++s.controller_cycles;
  } else if (std::strcmp(name, "migration.chunk") == 0) {
    ++s.migration_chunks;
  } else if (std::strcmp(name, "fault.apply") == 0) {
    ++s.fault_applies;
  } else if (std::strcmp(name, "sim.cycle") == 0) {
    ++s.sim_cycles;
    s.sim_last_machines = IntField(event, "machines");
  } else if (std::strcmp(name, "fleet.cycle") == 0) {
    ++s.fleet_cycles;
  } else if (std::strcmp(name, "fleet.pack") == 0) {
    ++s.fleet_packs;
    if (BoolField(event, "repacked")) ++s.fleet_repacks;
    if (BoolField(event, "spike_replan")) ++s.fleet_spike_replans;
    s.fleet_partition_moves += IntField(event, "moved_partitions");
  }
}

// ---- EventClassifier ---------------------------------------------------------

EventClassifier::EventClassifier(const FactoryStats* factory,
                                 const PredictionStats* prediction,
                                 const StatsSink::State* trace)
    : factory_(factory), prediction_(prediction), trace_(trace) {}

void EventClassifier::Close(int64_t now) {
  const int64_t elapsed = now - start_ns_;
  if (factory_->calls != factory_calls_) {
    tick_ns_ += elapsed;
    ++tick_events_;
  } else if (prediction_->calls() != predictor_calls_) {
    controller_ns_ += elapsed;
    controller_inner_ns_ += prediction_->total_ns() - predictor_ns_ +
                            (trace_->planner_us_total - planner_us_) * 1000;
  } else {
    other_ns_ += elapsed;
  }
}

void EventClassifier::OnEvent() {
  const int64_t now = NowNs();
  if (events_ > 0) Close(now);
  ++events_;
  factory_calls_ = factory_->calls;
  predictor_calls_ = prediction_->calls();
  predictor_ns_ = prediction_->total_ns();
  planner_us_ = trace_->planner_us_total;
  start_ns_ = NowNs();
}

void EventClassifier::Finish() {
  if (events_ > 0) Close(NowNs());
}

double EventClassifier::controller_self_s() const {
  return (controller_ns_ - controller_inner_ns_) * 1e-9;
}

// ---- Statistics --------------------------------------------------------------

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

Tail TailOf(std::vector<double> values) {
  Tail tail;
  tail.n = static_cast<int64_t>(values.size());
  std::sort(values.begin(), values.end());
  for (const double p : {99.9, 99.0, 95.0, 90.0, 75.0, 50.0}) {
    // Nearest-rank index of the p-th percentile.
    const size_t rank = static_cast<size_t>(
        std::ceil(p / 100.0 * static_cast<double>(values.size())));
    if (rank == 0 || values.size() - rank < 10) continue;
    tail.percentile = p;
    tail.value = values[rank - 1];
    break;
  }
  return tail;
}

// ---- Digest --------------------------------------------------------------------

void Digest::Add(const void* data, size_t size) {
  const unsigned char* bytes = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < size; ++i) {
    hash_ ^= bytes[i];
    hash_ *= 0x100000001b3ULL;
  }
}

std::string Digest::Hex() const {
  char text[17];
  std::snprintf(text, sizeof(text), "%016llx",
                static_cast<unsigned long long>(hash_));
  return text;
}

}  // namespace perfbench
