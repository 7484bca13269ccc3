#include "replay_serve.h"

#include <cstdio>
#include <filesystem>
#include <optional>
#include <sstream>
#include <vector>

#include "io/framing.h"
#include "io/serialization.h"
#include "obs/metrics.h"
#include "qo/fingerprint.h"
#include "qo/registry.h"
#include "qo/service.h"
#include "util/cancellation.h"
#include "util/random.h"

namespace e2ebench {

namespace {

// The batch service folds this fixed sentinel into the cache key of
// deterministic optimizers instead of the seed (qo/service.cc); the replay
// must build the same keys for its LRU to evict what the server's does.
constexpr uint64_t kDeterministicSeed = 0x64657465726d696eULL;

std::string G17(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// aqo_serve's response text for a feasible or infeasible plan: a replica
// of the server's own formatting (tools/aqo_serve.cc), which no library
// exports. Replay parity keeps it printing what the server prints; its
// time (io.encode) is the replica's, not the server's.
std::string FormatResponse(const std::string& id, const char* family,
                           const aqo::CachedPlan& plan,
                           const std::vector<int>& seq, bool qoh) {
  std::ostringstream out;
  out << "ok " << id << " " << family
      << " feasible=" << (plan.feasible ? 1 : 0)
      << " status=" << aqo::PlanStatusName(plan.status)
      << " cost_log2=" << G17(plan.cost.Log2())
      << " evaluations=" << plan.evaluations;
  if (plan.feasible) {
    out << "\nseq";
    for (int v : seq) out << " " << v;
    if (qoh) {
      out << "\npipelines";
      for (int v : plan.pipeline_starts) out << " " << v;
    }
  }
  return out.str();
}

struct QonFamily {
  using Instance = aqo::QonInstance;
  using Options = aqo::OptimizerOptions;
  static constexpr const char* kName = "qon";
  static constexpr bool kQoh = false;

  static const aqo::OptimizerRegistry& Registry() {
    return aqo::OptimizerRegistry::Qon();
  }
  static aqo::CanonicalQon Canonicalize(const Instance& inst) {
    return aqo::CanonicalizeQon(inst);
  }
  static aqo::Hash128 Key(const aqo::Hash128& fingerprint,
                          const std::string& name, uint64_t seed) {
    return aqo::QonPlanCacheKey(fingerprint, name, Options{}, seed);
  }
  static aqo::CachedPlan ToPlan(const aqo::OptimizerResult& r) {
    return aqo::CachedPlan{r.feasible, r.sequence, {}, r.cost, r.evaluations,
                           r.status};
  }
  static aqo::CachedPlan Batch(const Instance& inst,
                               const aqo::BatchOptions& options) {
    aqo::QonBatchItem item = aqo::OptimizeQonBatch({inst}, options).front();
    return ToPlan(item.result);
  }
};

struct QohFamily {
  using Instance = aqo::QohInstance;
  using Options = aqo::QohOptimizerOptions;
  static constexpr const char* kName = "qoh";
  static constexpr bool kQoh = true;

  static const aqo::QohOptimizerRegistry& Registry() {
    return aqo::QohOptimizerRegistry::Get();
  }
  static aqo::CanonicalQoh Canonicalize(const Instance& inst) {
    return aqo::CanonicalizeQoh(inst);
  }
  // The workloads never set sentinel_first, so the default knobs need no
  // canonical remapping.
  static aqo::Hash128 Key(const aqo::Hash128& fingerprint,
                          const std::string& name, uint64_t seed) {
    return aqo::QohPlanCacheKey(fingerprint, name, Options{}, seed);
  }
  static aqo::CachedPlan ToPlan(const aqo::QohOptimizerResult& r) {
    return aqo::CachedPlan{r.feasible, r.sequence, r.decomposition.starts,
                           r.cost, r.evaluations, r.status};
  }
  static aqo::CachedPlan Batch(const Instance& inst,
                               const aqo::BatchOptions& options) {
    aqo::QohBatchItem item = aqo::OptimizeQohBatch({inst}, options).front();
    return ToPlan(item.result);
  }
};

const char* OptimizerSpan(bool qoh, const std::string& name) {
  if (qoh) {
    if (name == "ii") return "optimizer.qoh.ii";
    if (name == "greedy") return "optimizer.qoh.greedy";
    if (name == "sa") return "optimizer.qoh.sa";
    if (name == "random") return "optimizer.qoh.random";
    return "optimizer.qoh.other";
  }
  if (name == "dp") return "optimizer.qon.dp";
  if (name == "ii") return "optimizer.qon.ii";
  if (name == "greedy") return "optimizer.qon.greedy";
  if (name == "sa") return "optimizer.qon.sa";
  if (name == "random") return "optimizer.qon.random";
  return "optimizer.qon.other";
}

}  // namespace

aqo::PlanCacheOptions ServeCacheOptions() {
  aqo::PlanCacheOptions options;
  options.byte_budget = static_cast<size_t>(kPlanCacheMb) << 20;
  options.shards = kPlanCacheShards;
  return options;
}

ReplayCounters ReplayCounters::Read() {
  static aqo::obs::Counter& pipeline_evals =
      aqo::obs::Registry::Get().GetCounter("qoh.decomp.pipeline_evals");
  static aqo::obs::Counter& candidates =
      aqo::obs::Registry::Get().GetCounter("qo.fast_eval.candidates");
  static aqo::obs::Counter& repricings =
      aqo::obs::Registry::Get().GetCounter("qo.fast_eval.exact_repricings");
  static aqo::obs::Counter& appends =
      aqo::obs::Registry::Get().GetCounter("qo.persist.appends");
  static aqo::obs::Counter& append_bytes =
      aqo::obs::Registry::Get().GetCounter("qo.persist.append_bytes");
  static aqo::obs::Counter& fsyncs =
      aqo::obs::Registry::Get().GetCounter("qo.persist.fsyncs");
  ReplayCounters out;
  out.pipeline_evals = pipeline_evals.Value();
  out.fast_candidates = candidates.Value();
  out.fast_repricings = repricings.Value();
  out.appends = appends.Value();
  out.append_bytes = append_bytes.Value();
  out.fsyncs = fsyncs.Value();
  return out;
}

void ReplayCounters::AddDelta(const ReplayCounters& before,
                              const ReplayCounters& after) {
  pipeline_evals += after.pipeline_evals - before.pipeline_evals;
  fast_candidates += after.fast_candidates - before.fast_candidates;
  fast_repricings += after.fast_repricings - before.fast_repricings;
  appends += after.appends - before.appends;
  append_bytes += after.append_bytes - before.append_bytes;
  fsyncs += after.fsyncs - before.fsyncs;
}

ServeReplay::ServeReplay(const std::string& dir, const std::string& prefill_dir,
                         bool batch_mode)
    : batch_mode_(batch_mode), cache_(ServeCacheOptions()) {
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  if (!prefill_dir.empty()) {
    std::filesystem::copy(prefill_dir, dir,
                          std::filesystem::copy_options::recursive, ec);
  }
  aqo::PersistOptions persist;
  persist.dir = dir;
  persist.fsync = false;
  store_ = std::make_unique<aqo::PlanStore>(persist);
  store_->LoadAndRecover(&cache_);
  if (batch_mode_) {
    store_->AttachTo(&cache_);
    return;
  }
  // Inserts are appended by the replay itself, outside the insert span,
  // so each layer keeps its own time; the observer only reports whether
  // the insert was new (the server appends exactly those).
  cache_.SetInsertObserver(
      [this](const aqo::Hash128&, const aqo::CachedPlan&) { inserted_ = true; });
}

template <typename Family>
std::string ServeReplay::Serve(const typename Family::Instance& inst,
                               const std::string& id,
                               const std::string& optimizer, int64_t op) {
  const auto* entry = Family::Registry().Find(optimizer);
  if (entry == nullptr) return "err " + id + " optimizer: unknown entry";
  const std::string& name = entry->name;

  auto canon = [&] {
    Tracer::Scope span(tracer_, "fingerprint.canon", op);
    return Family::Canonicalize(inst);
  }();
  aqo::Hash128 key;
  aqo::CachedPlan plan;
  bool hit = false;
  {
    Tracer::Scope span(tracer_, "plan_cache.probe", op);
    key = Family::Key(canon.fingerprint, name,
                      entry->deterministic ? kDeterministicSeed : kServeSeed);
    hit = cache_.Lookup(key, &plan);
  }
  if (!hit) {
    const char* span_name = OptimizerSpan(Family::kQoh, name);
    ReplayCounters before = ReplayCounters::Read();
    {
      Tracer::Scope span(tracer_, span_name, op);
      aqo::Rng rng(aqo::MixSeed(kServeSeed, canon.fingerprint.lo));
      plan = Family::ToPlan(Family::Registry().Run(
          name, canon.instance, typename Family::Options{}, &rng));
    }
    counters_.AddDelta(before, ReplayCounters::Read());
    evaluations_[span_name] += plan.evaluations;
    if (plan.status == aqo::PlanStatus::kComplete ||
        plan.status == aqo::PlanStatus::kBudgetExhausted) {
      inserted_ = false;
      {
        Tracer::Scope span(tracer_, "plan_cache.insert", op);
        cache_.Insert(key, plan);
      }
      if (inserted_) {
        before = ReplayCounters::Read();
        {
          Tracer::Scope span(tracer_, "persist.append", op);
          store_->AppendEntry(key, plan);
        }
        counters_.AddDelta(before, ReplayCounters::Read());
      }
    }
  }
  std::vector<int> seq;
  {
    Tracer::Scope span(tracer_, "fingerprint.map", op);
    seq = aqo::MapSequenceFromCanonical(plan.sequence, canon.from_canonical);
  }
  std::string response;
  {
    Tracer::Scope span(tracer_, "io.encode", op);
    response = FormatResponse(id, Family::kName, plan, seq, Family::kQoh);
    std::ostringstream frame;
    aqo::WriteFrame(frame, response);
  }

  return response;
}

template <typename Family>
std::string ServeReplay::Batch(const typename Family::Instance& inst,
                               const std::string& id,
                               const std::string& optimizer) {
  const auto* entry = Family::Registry().Find(optimizer);
  if (entry == nullptr) return "err " + id + " optimizer: unknown entry";
  aqo::BatchOptions options;
  options.optimizer = entry->name;
  options.seed = kServeSeed;
  options.cache = &cache_;
  int64_t start = NowNs();
  aqo::CachedPlan plan = Family::Batch(inst, options);
  batch_ns_ += NowNs() - start;
  // Batch results come back in the caller's labels already.
  return FormatResponse(id, Family::kName, plan, plan.sequence, Family::kQoh);
}

std::string ServeReplay::Handle(const std::string& payload, int64_t op) {
  int64_t start = NowNs();
  std::string response;
  std::string id;
  std::string optimizer;
  std::string family;
  std::optional<aqo::QonInstance> qon;
  std::optional<aqo::QohInstance> qoh;
  std::string error;
  {
    Tracer::Scope request(tracer_, "request", op);
    {
      Tracer::Scope span(tracer_, "io.parse", op);
      size_t eol = payload.find('\n');
      std::string head = payload.substr(0, eol);
      std::string body =
          eol == std::string::npos ? std::string() : payload.substr(eol + 1);
      std::istringstream header(head);
      std::string verb;
      header >> verb >> id;
      for (std::string token; header >> token;) {
        if (token.rfind("optimizer=", 0) == 0) optimizer = token.substr(10);
      }
      std::istringstream in(body);
      in >> family;
      in.seekg(0);
      if (family == "qon") {
        aqo::ParseResult<aqo::QonInstance> parsed = aqo::ParseQonInstance(in);
        if (parsed.ok()) qon = std::move(*parsed.value);
        error = parsed.error;
      } else if (family == "qoh") {
        aqo::ParseResult<aqo::QohInstance> parsed = aqo::ParseQohInstance(in);
        if (parsed.ok()) qoh = std::move(*parsed.value);
        error = parsed.error;
      } else {
        error = "unknown family";
      }
    }
    if (qon.has_value()) {
      response = batch_mode_ ? Batch<QonFamily>(*qon, id, optimizer)
                             : Serve<QonFamily>(*qon, id, optimizer, op);
    } else if (qoh.has_value()) {
      response = batch_mode_ ? Batch<QohFamily>(*qoh, id, optimizer)
                             : Serve<QohFamily>(*qoh, id, optimizer, op);
    } else {
      response = "err " + id + " parse: " + error;
    }
  }
  last_request_ns_ = NowNs() - start;
  return response;
}

}  // namespace e2ebench
