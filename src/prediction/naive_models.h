#ifndef PSTORE_PREDICTION_NAIVE_MODELS_H_
#define PSTORE_PREDICTION_NAIVE_MODELS_H_

#include <cstddef>

#include "common/status.h"
#include "common/time_series.h"
#include "prediction/predictor.h"

namespace pstore {

// Predicts y(t+tau) = y(t+tau-T): the value one period ago at the same
// time of day. The simplest periodic baseline; SPAR must beat it to be
// worth its extra machinery.
//
// With a recent-residual window m > 0 the forecast is lifted by the mean
// of the last min(m, n-T) seasonal residuals y[i] - y[i-T] of the n-slot
// history: SPAR's seasonal-plus-recent-offset structure with unit
// coefficients, cheap enough for a fleet to re-forecast thousands of
// tenants every provisioning cycle (Sibyl's argument: at fleet scale the
// forecast must be cheap to update). O(m) per prediction; m = 0 is the
// plain seasonal baseline.
class SeasonalNaivePredictor : public LoadPredictor {
 public:
  explicit SeasonalNaivePredictor(size_t period, size_t recent = 0);

  Status Fit(const TimeSeries& training) override;
  StatusOr<double> PredictAhead(const TimeSeries& history,
                                size_t tau) const override;
  std::string name() const override { return "SeasonalNaive"; }

 private:
  size_t period_;
  size_t recent_;
};

// Predicts y(t+tau) = y(t): flat continuation of the last observation.
class LastValuePredictor : public LoadPredictor {
 public:
  Status Fit(const TimeSeries& training) override;
  StatusOr<double> PredictAhead(const TimeSeries& history,
                                size_t tau) const override;
  std::string name() const override { return "LastValue"; }
};

// Returns the true future values from a reference series. The history
// passed to PredictAhead must be a prefix of the reference series; the
// prediction for slot history.size()-1+tau is the reference value there.
// Used for the "P-Store Oracle" upper bound (Fig. 12).
class OraclePredictor : public LoadPredictor {
 public:
  explicit OraclePredictor(TimeSeries truth);

  Status Fit(const TimeSeries& training) override;
  StatusOr<double> PredictAhead(const TimeSeries& history,
                                size_t tau) const override;
  std::string name() const override { return "Oracle"; }

 private:
  TimeSeries truth_;
};

}  // namespace pstore

#endif  // PSTORE_PREDICTION_NAIVE_MODELS_H_
