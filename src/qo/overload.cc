#include "qo/overload.h"

#include <algorithm>
#include <sstream>

namespace aqo {

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
  } else if (fits(degraded_cost_units)) {
    decision.tier = OverloadTier::kDegrade;
    decision.cost_units = degraded_cost_units;
    pending_requests_ += 1.0;
    pending_cost_ += degraded_cost_units;
    ++degrades_;
    std::ostringstream why;
    why << "pressure " << decision.pressure_permille
        << " permille >= degrade threshold "
        << static_cast<uint64_t>(options_.degrade_threshold * 1000.0);
    decision.reason = why.str();
  } else {
    decision.tier = OverloadTier::kShed;
    ++sheds_;
    std::ostringstream why;
    why << "pending work over capacity (pressure "
        << decision.pressure_permille << " permille, request cost "
        << degraded_cost_units << " units)";
    decision.reason = why.str();
  }
  return decision;
}

}  // namespace aqo
