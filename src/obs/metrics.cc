#include "obs/metrics.h"

#include <algorithm>

#include "obs/histogram.h"

namespace aqo::obs {

namespace {

// Innermost active tally of the current thread. A plain thread_local
// pointer: reading it is the whole hot-path cost when tallies are off.
thread_local ThreadCounterTally* tls_tally = nullptr;

}  // namespace

ThreadCounterTally::ThreadCounterTally() : parent_(tls_tally) {
  tls_tally = this;
}

ThreadCounterTally::~ThreadCounterTally() {
  tls_tally = parent_;
  if (parent_ != nullptr) {
    for (const auto& [counter, delta] : deltas_) {
      parent_->deltas_[counter] += delta;
    }
  }
}

ThreadCounterTally* ThreadCounterTally::Current() { return tls_tally; }

std::vector<std::pair<std::string, uint64_t>> ThreadCounterTally::Snapshot()
    const {
  std::vector<std::pair<std::string, uint64_t>> out;
  out.reserve(deltas_.size());
  for (const auto& [counter, delta] : deltas_) {
    if (delta != 0) out.emplace_back(counter->name(), delta);
  }
  std::sort(out.begin(), out.end());
  return out;
}

Registry& Registry::Get() {
  static Registry* registry = new Registry();  // never destroyed
  return *registry;
}

Counter& Registry::GetCounter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_
             .emplace(std::string(name),
                      std::unique_ptr<Counter>(new Counter(std::string(name))))
             .first;
  }
  return *it->second;
}

Gauge& Registry::GetGauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_
             .emplace(std::string(name),
                      std::unique_ptr<Gauge>(new Gauge(std::string(name))))
             .first;
  }
  return *it->second;
}

Histogram& Registry::GetHistogram(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_
             .emplace(std::string(name), std::unique_ptr<Histogram>(
                                             new Histogram(std::string(name))))
             .first;
  }
  return *it->second;
}

std::vector<std::pair<std::string, HistogramData>> Registry::Histograms()
    const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<std::string, HistogramData>> out;
  out.reserve(histograms_.size());
  for (const auto& [name, histogram] : histograms_) {
    out.emplace_back(name, histogram->Snapshot());
  }
  return out;
}

CounterSnapshot Registry::Counters() const {
  std::lock_guard<std::mutex> lock(mu_);
  CounterSnapshot out;
  out.reserve(counters_.size());
  for (const auto& [name, counter] : counters_) {
    out.emplace_back(name, counter->Value());
  }
  return out;
}

CounterSnapshot Registry::Delta(const CounterSnapshot& before,
                                const CounterSnapshot& after) {
  CounterSnapshot out;
  size_t i = 0;
  for (const auto& [name, value] : after) {
    // Both snapshots are name-sorted; advance `before` to the match.
    while (i < before.size() && before[i].first < name) ++i;
    uint64_t prev =
        (i < before.size() && before[i].first == name) ? before[i].second : 0;
    if (value != prev) out.emplace_back(name, value - prev);
  }
  return out;
}

}  // namespace aqo::obs
