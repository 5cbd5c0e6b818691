#include "prediction/naive_models.h"

#include "common/logging.h"
#include "common/status.h"
#include "common/time_series.h"

namespace pstore {

SeasonalNaivePredictor::SeasonalNaivePredictor(size_t period, size_t recent)
    : period_(period), recent_(recent) {
  PSTORE_CHECK(period_ >= 1);
}

Status SeasonalNaivePredictor::Fit(const TimeSeries& training) {
  if (training.size() < period_) {
    return Status::InvalidArgument("SeasonalNaive: series shorter than period");
  }
  return Status::OK();
}

StatusOr<double> SeasonalNaivePredictor::PredictAhead(
    const TimeSeries& history, size_t tau) const {
  if (tau == 0) return Status::InvalidArgument("tau must be >= 1");
  if (tau > period_) {
    return Status::OutOfRange("SeasonalNaive: tau exceeds the period");
  }
  const size_t t = history.size() - 1;
  const size_t target = t + tau;
  if (target < period_ || history.size() < period_ - tau + 1) {
    return Status::InvalidArgument("SeasonalNaive: history too short");
  }
  const double seasonal = history[target - period_];
  if (recent_ == 0) return seasonal;

  // Recent offset, newest residual first.
  const size_t n = history.size();
  double offset = 0.0;
  size_t samples = 0;
  for (size_t back = 0; back < recent_ && back + period_ < n; ++back) {
    const size_t i = n - 1 - back;
    offset += history[i] - history[i - period_];
    ++samples;
  }
  if (samples > 0) offset /= static_cast<double>(samples);
  return seasonal + offset;
}

Status LastValuePredictor::Fit(const TimeSeries& training) {
  (void)training;
  return Status::OK();
}

StatusOr<double> LastValuePredictor::PredictAhead(const TimeSeries& history,
                                                  size_t tau) const {
  if (tau == 0) return Status::InvalidArgument("tau must be >= 1");
  if (history.empty()) {
    return Status::InvalidArgument("LastValue: empty history");
  }
  return history[history.size() - 1];
}

OraclePredictor::OraclePredictor(TimeSeries truth)
    : truth_(std::move(truth)) {}

Status OraclePredictor::Fit(const TimeSeries& training) {
  (void)training;
  return Status::OK();
}

StatusOr<double> OraclePredictor::PredictAhead(const TimeSeries& history,
                                               size_t tau) const {
  if (tau == 0) return Status::InvalidArgument("tau must be >= 1");
  const size_t target = history.size() - 1 + tau;
  if (history.empty() || target >= truth_.size()) {
    return Status::OutOfRange("Oracle: target beyond reference series");
  }
  return truth_[target];
}

}  // namespace pstore
