#ifndef AQO_QO_OVERLOAD_H_
#define AQO_QO_OVERLOAD_H_

// Deterministic load governor for the serve path (tools/aqo_serve.cc).
//
// The serve loop is serial, so real queue depth is invisible to it: by
// the time a frame is parsed the kernel pipe holds whatever backlog the
// clients built up, and peeking at it would make admission depend on
// scheduling. Instead the governor models pressure as a pair of leaky
// buckets indexed by *arrival slot*, which makes every decision a pure
// function of the request stream:
//
//   * a depth bucket counts admitted requests; it drains a fixed number
//     of request units per arrival (the capacity the server is assumed
//     to clear between arrivals);
//   * a cost bucket accumulates per-request work estimates
//     (EstimateCostUnits: the registry entry's own estimate, a
//     deterministic function of its knobs and n — roughly "evaluations
//     this request will burn"); it drains a fixed number of cost units
//     per arrival.
//
// Pressure is the fuller bucket's fill fraction, reported in permille.
// Two thresholds carve it into tiers:
//
//   tier 0 (admit)   pressure <  degrade threshold  — run as requested
//   tier 1 (degrade) pressure >= degrade threshold  — rewrite to the
//            entry's declared cheap fallback (its degrade rule: dp →
//            greedy, SA/GA restart counts clamped, ...) and stamp the
//            response degraded=1
//   tier 2 (shed)    admitting would overflow a bucket — reject with
//            `err <id> shed: <reason>` before any optimization work
//
// Same request stream + same thresholds => byte-identical shed and
// degrade sets, across runs and thread counts (tests/overload_test.cc).
// A default-constructed (disarmed) governor admits everything and
// touches nothing — the serve path stays byte-identical to an ungoverned
// build.
//
// Telemetry: the admits()/degrades()/sheds() totals and
// PressurePermille() (the serve `ping` and `health` verbs report them),
// and an `overload_decision` JSONL record per shed/degrade when a run log
// is attached (docs/robustness.md).

#include <algorithm>
#include <cstdint>
#include <string>
#include <string_view>

#include "qo/registry.h"

namespace aqo {

struct OverloadOptions {
  // Depth bucket: capacity in request units; 0 disables the dimension.
  double queue_capacity = 0.0;
  // Request units drained per arrival slot.
  double drain_requests = 1.0;

  // Cost bucket: capacity in cost units (see EstimateCostUnits); 0
  // disables the dimension.
  double cost_capacity = 0.0;
  // Cost units drained per arrival slot. 0 = cost_capacity / 16 (a
  // server assumed to clear 1/16th of its backlog ceiling per arrival).
  double drain_cost = 0.0;

  // Fill fraction at which tier 1 (degrade) starts, in [0, 1]. Admission
  // into a bucket past its capacity is tier 2 (shed) regardless.
  double degrade_threshold = 0.75;

  bool armed() const { return queue_capacity > 0.0 || cost_capacity > 0.0; }
};

enum class OverloadTier {
  kAdmit = 0,
  kDegrade = 1,
  kShed = 2,
};

const char* OverloadTierName(OverloadTier tier);

struct OverloadDecision {
  OverloadTier tier = OverloadTier::kAdmit;
  // Pressure *after* this arrival's drain, *before* admitting it, in
  // permille of the fuller armed bucket.
  uint64_t pressure_permille = 0;
  // Cost estimate the decision was based on (post-degrade estimate when
  // tier == kDegrade).
  double cost_units = 0.0;
  // Human-readable reason, non-empty for kDegrade/kShed (the shed reason
  // is what `err <id> shed: <reason>` carries).
  std::string reason;
};

// The governor. Not thread-safe: the serve loop is the single caller,
// and determinism comes from arrival order.
class LoadGovernor {
 public:
  explicit LoadGovernor(const OverloadOptions& options = {});

  bool armed() const { return options_.armed(); }
  const OverloadOptions& options() const { return options_; }

  // One arrival: drains both buckets by one slot, then decides the tier
  // for a request estimated at `cost_units`. kAdmit/kDegrade add the
  // (possibly degraded) estimate to the buckets; kShed adds nothing.
  // `degraded_cost_units` is the estimate under the degrade rewrite —
  // the governor degrades rather than sheds whenever the cheap form
  // still fits. Disarmed governors return kAdmit with pressure 0.
  OverloadDecision OnArrival(double cost_units, double degraded_cost_units);

  // Control frames (ping/health/snapshot) drain but never shed; they
  // cost nothing. Keeps "pressure" meaning arrival slots, not verbs.
  void OnControlFrame();

  // Current fill fraction of the fuller armed bucket, in permille.
  uint64_t PressurePermille() const;

  uint64_t admits() const { return admits_; }
  uint64_t degrades() const { return degrades_; }
  uint64_t sheds() const { return sheds_; }

 private:
  void Drain();

  OverloadOptions options_;
  double pending_requests_ = 0.0;
  double pending_cost_ = 0.0;
  uint64_t admits_ = 0;
  uint64_t degrades_ = 0;
  uint64_t sheds_ = 0;
};

// Estimates saturate here: past 2^50 evaluations every request is "too
// expensive to matter how much", and the cap keeps bucket arithmetic far
// from double rounding trouble.
inline constexpr double kMaxCostUnits = 1125899906842624.0;  // 2^50

// The governor's charge for running `entry` on n relations: the entry's
// estimate, capped at the evaluation budget when set, floored at 1.
template <typename Entry>
double EstimateCostUnits(const Entry& entry,
                         const typename Entry::Options& options, int n) {
  double estimate = entry.estimate(options, n);
  if (uint64_t cap = options.budget.max_evaluations; cap > 0) {
    estimate = std::min(estimate, static_cast<double>(cap));
  }
  return std::min(std::max(estimate, 1.0), kMaxCostUnits);
}

template <typename Entry>
struct Admission {
  const Entry* requested = nullptr;  // the named entry; null when unknown
  const Entry* entry = nullptr;  // what runs: `requested` or its fallback
  OverloadDecision decision;  // kAdmit unless an armed governor decided
  std::string error;  // non-empty: nothing runs, reply `err <id> <error>`
};

// Admits one optimize request for `optimizer` (a name or alias) on n
// relations. An unknown name or an n outside the entry's domain is refused
// without touching the governor; otherwise an armed governor decides on
// the entry's estimate and degrade rule, and on kDegrade `options` becomes
// the clamped knobs the fallback runs with. A disarmed governor is not
// consulted.
template <typename Entry>
Admission<Entry> Admit(const registry_internal::RegistryT<Entry>& registry,
                       std::string_view optimizer, int n,
                       LoadGovernor& governor,
                       typename Entry::Options* options) {
  Admission<Entry> admission;
  admission.requested = admission.entry = registry.Find(optimizer);
  if (admission.requested == nullptr) {
    admission.error = "optimizer: unknown " + std::string(registry.Label()) +
                      " entry '" + std::string(optimizer) + "'";
    return admission;
  }
  const Entry& entry = *admission.requested;
  if (n < entry.min_n || n > entry.max_n) {
    admission.error = "domain: " + entry.name + " takes " +
                      entry.DomainText() + ", got n=" + std::to_string(n);
    return admission;
  }
  if (!governor.armed()) return admission;
  typename Entry::Options degraded = *options;
  if (entry.clamp != nullptr) entry.clamp(&degraded);
  const Entry& fallback = *registry.Find(entry.degrade_to);
  admission.decision =
      governor.OnArrival(EstimateCostUnits(entry, *options, n),
                         EstimateCostUnits(fallback, degraded, n));
  if (admission.decision.tier == OverloadTier::kShed) {
    admission.error = "shed: " + admission.decision.reason;
  } else if (admission.decision.tier == OverloadTier::kDegrade) {
    admission.entry = &fallback;
    *options = degraded;
  }
  return admission;
}

}  // namespace aqo

#endif  // AQO_QO_OVERLOAD_H_
