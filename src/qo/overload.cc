#include "qo/overload.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "obs/metrics.h"

namespace aqo {

namespace {

// Estimates saturate here: past 2^50 evaluations every request is "too
// expensive to matter how much", and the cap keeps bucket arithmetic far
// from double rounding trouble.
constexpr double kCostCap = 1125899906842624.0;  // 2^50

double Cap(double v) { return std::min(v, kCostCap); }

// n! via lgamma, saturating. Exact enough for an admission estimate.
double Factorial(int n) {
  if (n <= 1) return 1.0;
  double log_fact = std::lgamma(static_cast<double>(n) + 1.0);
  if (log_fact > 50.0 * 0.6931471805599453) return kCostCap;  // > 2^50
  return Cap(std::exp(log_fact));
}

double PowN(double base, int exp) {
  double v = std::pow(base, static_cast<double>(exp));
  return Cap(v);
}

double ApplyBudget(double estimate, const Budget& budget) {
  if (budget.max_evaluations > 0) {
    estimate =
        std::min(estimate, static_cast<double>(budget.max_evaluations));
  }
  return Cap(std::max(estimate, 1.0));
}

}  // namespace

const char* OverloadTierName(OverloadTier tier) {
  switch (tier) {
    case OverloadTier::kAdmit:
      return "admit";
    case OverloadTier::kDegrade:
      return "degrade";
    case OverloadTier::kShed:
      return "shed";
  }
  return "unknown";
}

double EstimateQonCostUnits(std::string_view optimizer,
                            const OptimizerOptions& options, int n) {
  double nd = static_cast<double>(std::max(n, 1));
  double estimate;
  if (optimizer == "greedy" || optimizer == "kbz") {
    estimate = nd * nd;
  } else if (optimizer == "random") {
    estimate = static_cast<double>(std::max(options.samples, 1)) * nd;
  } else if (optimizer == "ii") {
    estimate = static_cast<double>(std::max(options.restarts, 1)) * nd * nd *
               nd;
  } else if (optimizer == "sa") {
    estimate = static_cast<double>(std::max(options.sa.restarts, 1)) *
               static_cast<double>(std::max(options.sa.iterations, 1));
  } else if (optimizer == "genetic") {
    estimate = static_cast<double>(std::max(options.ga.population, 1)) *
               static_cast<double>(std::max(options.ga.generations, 1));
  } else if (optimizer == "dp" || optimizer == "cout") {
    estimate = nd * PowN(2.0, n);
  } else if (optimizer == "bnb") {
    estimate = options.bnb_node_limit > 0
                   ? static_cast<double>(options.bnb_node_limit)
                   : PowN(2.0, n);
  } else {
    // Unknown names (including "exhaustive") estimate like the most
    // expensive entry — a typo can only over-throttle, never sneak work
    // past the governor.
    estimate = Factorial(n);
  }
  return ApplyBudget(estimate, options.budget);
}

double EstimateQohCostUnits(std::string_view optimizer,
                            const QohOptimizerOptions& options, int n) {
  double nd = static_cast<double>(std::max(n, 1));
  double estimate;
  if (optimizer == "greedy") {
    estimate = nd * nd;
  } else if (optimizer == "random") {
    estimate = static_cast<double>(std::max(options.samples, 1)) * nd;
  } else if (optimizer == "ii") {
    estimate = static_cast<double>(std::max(options.restarts, 1)) * nd * nd *
               nd;
  } else if (optimizer == "sa") {
    estimate = static_cast<double>(std::max(options.sa.restarts, 1)) *
               static_cast<double>(std::max(options.sa.iterations, 1));
  } else {
    // exhaustive, unknown.
    estimate = Factorial(n);
  }
  return ApplyBudget(estimate, options.budget);
}

std::string DegradeQon(std::string_view optimizer, OptimizerOptions* options) {
  // Exact/exponential entries fall back to the declared cheap heuristic;
  // stochastic entries keep their identity with clamped effort.
  if (optimizer == "exhaustive" || optimizer == "dp" || optimizer == "bnb" ||
      optimizer == "cout") {
    return "greedy";
  }
  if (optimizer == "random") {
    options->samples = std::min(options->samples, 64);
  } else if (optimizer == "ii") {
    options->restarts = std::min(options->restarts, 2);
  } else if (optimizer == "sa") {
    options->sa.restarts = std::min(options->sa.restarts, 1);
    options->sa.iterations = std::min(options->sa.iterations, 2000);
  } else if (optimizer == "genetic") {
    options->ga.population = std::min(options->ga.population, 16);
    options->ga.generations = std::min(options->ga.generations, 16);
  }
  // greedy / kbz are already the floor. A degraded stochastic entry
  // answers exactly what an undegraded request with the clamped knobs
  // would.
  return std::string(optimizer);
}

std::string DegradeQoh(std::string_view optimizer,
                       QohOptimizerOptions* options) {
  if (optimizer == "exhaustive") return "greedy";
  if (optimizer == "random") {
    options->samples = std::min(options->samples, 64);
  } else if (optimizer == "ii") {
    options->restarts = std::min(options->restarts, 2);
  } else if (optimizer == "sa") {
    options->sa.restarts = std::min(options->sa.restarts, 1);
    options->sa.iterations = std::min(options->sa.iterations, 1000);
  }
  return std::string(optimizer);
}

LoadGovernor::LoadGovernor(const OverloadOptions& options)
    : options_(options) {
  if (options_.drain_cost <= 0.0 && options_.cost_capacity > 0.0) {
    options_.drain_cost = options_.cost_capacity / 16.0;
  }
  if (options_.drain_requests <= 0.0) options_.drain_requests = 1.0;
  options_.degrade_threshold =
      std::clamp(options_.degrade_threshold, 0.0, 1.0);
}

void LoadGovernor::Drain() {
  pending_requests_ =
      std::max(0.0, pending_requests_ - options_.drain_requests);
  pending_cost_ = std::max(0.0, pending_cost_ - options_.drain_cost);
}

uint64_t LoadGovernor::PressurePermille() const {
  double fill = 0.0;
  if (options_.queue_capacity > 0.0) {
    fill = std::max(fill, pending_requests_ / options_.queue_capacity);
  }
  if (options_.cost_capacity > 0.0) {
    fill = std::max(fill, pending_cost_ / options_.cost_capacity);
  }
  return static_cast<uint64_t>(std::min(fill, 1.0) * 1000.0);
}

void LoadGovernor::OnControlFrame() {
  if (!armed()) return;
  Drain();
}

OverloadDecision LoadGovernor::OnArrival(double cost_units,
                                         double degraded_cost_units) {
  static obs::Counter& admit_counter =
      obs::Registry::Get().GetCounter("qo.overload.admits");
  static obs::Counter& degrade_counter =
      obs::Registry::Get().GetCounter("qo.overload.degrades");
  static obs::Counter& shed_counter =
      obs::Registry::Get().GetCounter("qo.overload.sheds");
  static obs::Gauge& pressure_gauge =
      obs::Registry::Get().GetGauge("qo.overload.pressure_permille");

  OverloadDecision decision;
  decision.cost_units = cost_units;
  if (!armed()) {
    ++admits_;
    return decision;
  }
  Drain();
  decision.pressure_permille = PressurePermille();

  auto fits = [&](double c) {
    if (options_.queue_capacity > 0.0 &&
        pending_requests_ + 1.0 > options_.queue_capacity) {
      return false;
    }
    if (options_.cost_capacity > 0.0 &&
        pending_cost_ + c > options_.cost_capacity) {
      return false;
    }
    return true;
  };
  bool over_degrade =
      decision.pressure_permille >=
      static_cast<uint64_t>(options_.degrade_threshold * 1000.0);

  if (fits(cost_units) && !over_degrade) {
    decision.tier = OverloadTier::kAdmit;
    pending_requests_ += 1.0;
    pending_cost_ += cost_units;
    ++admits_;
    admit_counter.Increment();
  } else if (fits(degraded_cost_units)) {
    decision.tier = OverloadTier::kDegrade;
    decision.cost_units = degraded_cost_units;
    pending_requests_ += 1.0;
    pending_cost_ += degraded_cost_units;
    ++degrades_;
    degrade_counter.Increment();
    std::ostringstream why;
    why << "pressure " << decision.pressure_permille
        << " permille >= degrade threshold "
        << static_cast<uint64_t>(options_.degrade_threshold * 1000.0);
    decision.reason = why.str();
  } else {
    decision.tier = OverloadTier::kShed;
    ++sheds_;
    shed_counter.Increment();
    std::ostringstream why;
    why << "pending work over capacity (pressure "
        << decision.pressure_permille << " permille, request cost "
        << degraded_cost_units << " units)";
    decision.reason = why.str();
  }
  pressure_gauge.Set(static_cast<double>(PressurePermille()));
  return decision;
}

}  // namespace aqo
