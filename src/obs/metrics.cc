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

CounterSnapshot ThreadCounterTally::Snapshot() const {
  CounterSnapshot out;
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

}  // namespace aqo::obs
