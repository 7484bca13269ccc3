// Seeded perf snapshot for the incremental cost evaluators: measures
// ns/evaluation of the naive cost functions (QonSequenceCost /
// OptimalDecomposition) against QonCostEvaluator / QohCostEvaluator on
// full-evaluation and swap-neighborhood workloads, and writes the results
// (with speedup ratios) as JSON.
//
// Regenerate the committed snapshots from a Release build:
//
//   cmake -S . -B build-release -DCMAKE_BUILD_TYPE=Release
//   cmake --build build-release -j --target bench_snapshot
//   ./build-release/tools/bench_snapshot
//       --out=BENCH_COST_EVAL.json --fast-out=BENCH_FAST_EVAL.json
//       --canon-out=BENCH_CANON.json
// (one invocation with all three flags on the command line)
//
// One run emits three snapshots: the incremental-vs-naive comparison
// (BENCH_COST_EVAL.json); QO_N swap pricing vs exact neighborhood
// pricing (BENCH_FAST_EVAL.json), on a random instance ("neighborhood",
// certified prices) and on the f_N NO instance the gap tables build
// ("neighborhood_fN", integer regime: exact prices); and the served
// request's front half (BENCH_CANON.json): per family, on a seeded
// Gnp(n, 0.5) instance, ns per ParseQ*Instance of its text (the flat
// read and the build), per label step on the instance, per
// CanonicalizeQ* (the labels plus the relabeled instance), and per served
// hit before its probe ("hit": the flat read of the text, then the label
// step on that flat form). The cost-eval rows "sentinel_first" price the
// plans E6 samples on its f_{H,e} NO instance (m = 81 and 144 relations).
//
// Workloads are fully seeded (instances, start sequences, and the swap
// schedule), so reruns on the same machine are directly comparable; only
// the timings themselves vary. The swap schedule is the one local search
// actually generates: uniform random position pairs (the SA move) applied
// to the current sequence, never undone — each candidate differs from its
// predecessor by one transposition.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "graph/generators.h"
#include "io/serialization.h"
#include "qo/cost_eval.h"
#include "qo/fast_eval.h"
#include "qo/fingerprint.h"
#include "qo/qoh.h"
#include "qo/qon.h"
#include "reductions/clique_to_qon.h"
#include "reductions/sparse.h"
#include "util/random.h"

namespace aqo {
namespace {

constexpr int kSizes[] = {10, 30, 100, 300};
constexpr int kCanonSizes[] = {10, 30, 100};

QonInstance MakeQonInstance(int n, uint64_t seed) {
  Rng rng(seed);
  Graph g = Gnp(n, 0.5, &rng);
  std::vector<LogDouble> sizes;
  for (int i = 0; i < n; ++i) {
    sizes.push_back(
        LogDouble::FromLinear(static_cast<double>(rng.UniformInt(2, 100000))));
  }
  QonInstance inst(g, std::move(sizes));
  for (const auto& [u, v] : g.Edges()) {
    inst.SetSelectivity(u, v,
                        LogDouble::FromLinear(rng.UniformReal(0.001, 1.0)));
  }
  return inst;
}

// The f_N NO instance of qon_gap at lg alpha = 8: complete
// (n/3)-partite source graph, every log2 input an integer.
QonInstance MakeGapNoInstance(int n) {
  QonGapParams params{.c = 2.0 / 3.0, .d = 1.0 / 3.0, .log2_alpha = 8.0};
  return ReduceCliqueToQon(CompleteMultipartite(n, n / 3), params).instance;
}

QohInstance MakeQohInstance(int n, uint64_t seed) {
  Rng rng(seed);
  Graph g = Gnp(n, 0.6, &rng);
  std::vector<LogDouble> sizes(static_cast<size_t>(n),
                               LogDouble::FromLinear(4096.0));
  QohInstance inst(g, std::move(sizes), 8192.0);
  for (const auto& [u, v] : g.Edges()) {
    inst.SetSelectivity(u, v, LogDouble::FromLinear(0.25));
  }
  return inst;
}

// The NO instance of E6 (bench/sparse_qoh) at source size n: f_{H,e} over
// the complete 3-partite graph, m = n^2 relations, R_0 a sentinel past
// 2^52 pages.
QohInstance MakeSparseQohNoInstance(int n) {
  SparseQohParams params;
  params.base.log2_alpha = 2.0;
  params.k = 2;
  params.edge_budget = SparseEdgeBudget(n * n, 0.9);
  Rng rng(6);
  return ReduceTwoThirdsCliqueToSparseQoh(CompleteMultipartite(n, 3), params,
                                          &rng)
      .instance;
}

std::vector<std::pair<int, int>> SwapSchedule(int n, int count,
                                              uint64_t seed) {
  Rng rng(seed);
  std::vector<std::pair<int, int>> swaps;
  swaps.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    swaps.emplace_back(static_cast<int>(rng.UniformInt(0, n - 1)),
                       static_cast<int>(rng.UniformInt(0, n - 1)));
  }
  return swaps;
}

// Runs `body(iteration)` until both the minimum rep count and the minimum
// wall time are met; returns ns per iteration. The body's per-iteration
// work must not depend on how many iterations ran before it (the swap
// workloads walk a precomputed cyclic schedule).
template <typename Body>
double TimeNs(int min_reps, double min_seconds, Body&& body) {
  using Clock = std::chrono::steady_clock;
  long iters = 0;
  Clock::time_point start = Clock::now();
  double elapsed = 0.0;
  do {
    for (int r = 0; r < min_reps; ++r) body(iters++);
    elapsed = std::chrono::duration<double>(Clock::now() - start).count();
  } while (elapsed < min_seconds);
  return elapsed * 1e9 / static_cast<double>(iters);
}

struct Row {
  const char* family;
  const char* workload;
  int n;
  double naive_ns;
  double eval_ns;
  double speedup() const { return naive_ns / eval_ns; }
};

// Accumulates costs so the optimizer cannot discard the evaluations.
LogDouble g_sink;

// Leaks a pointer to `p` into an empty asm so the compiler must assume the
// object is read and written externally. GCC 12's -O3 IPA otherwise decides
// an internal-linkage accumulator like g_sink is effectively constant and
// places it in .rodata — while still emitting stores to it, which fault.
void EscapeSink(void* p) { asm volatile("" : : "r"(p) : "memory"); }

Row MeasureQonFull(int n, double min_seconds) {
  QonInstance inst = MakeQonInstance(n, 42);
  QonCostEvaluator eval(inst);
  // A cyclic pool of start sequences so "full" really is full every time.
  Rng rng(7);
  std::vector<JoinSequence> pool(16, IdentitySequence(n));
  for (JoinSequence& seq : pool) rng.Shuffle(&seq);
  double naive = TimeNs(64, min_seconds, [&](long it) {
    g_sink += QonSequenceCost(inst, pool[static_cast<size_t>(it) % 16]);
  });
  double fast = TimeNs(64, min_seconds, [&](long it) {
    // Consecutive pool sequences are independent shuffles, so Cost
    // recomputes (almost always) from position 0.
    g_sink += eval.Cost(pool[static_cast<size_t>(it) % 16]);
  });
  return {"qon", "full", n, naive, fast};
}

Row MeasureQonSwap(int n, double min_seconds) {
  QonInstance inst = MakeQonInstance(n, 42);
  std::vector<std::pair<int, int>> swaps = SwapSchedule(n, 4096, 11);
  JoinSequence seq = IdentitySequence(n);
  Rng rng(7);
  rng.Shuffle(&seq);

  JoinSequence naive_seq = seq;
  double naive = TimeNs(64, min_seconds, [&](long it) {
    auto [i, j] = swaps[static_cast<size_t>(it) % swaps.size()];
    std::swap(naive_seq[static_cast<size_t>(i)],
              naive_seq[static_cast<size_t>(j)]);
    g_sink += QonSequenceCost(inst, naive_seq);
  });

  QonCostEvaluator eval(inst);
  JoinSequence fast_seq = seq;
  eval.Cost(fast_seq);
  double fast = TimeNs(64, min_seconds, [&](long it) {
    auto [i, j] = swaps[static_cast<size_t>(it) % swaps.size()];
    std::swap(fast_seq[static_cast<size_t>(i)],
              fast_seq[static_cast<size_t>(j)]);
    g_sink += eval.Cost(fast_seq);
  });
  return {"qon", "swap", n, naive, fast};
}

Row MeasureQohFull(int n, double min_seconds) {
  QohInstance inst = MakeQohInstance(n, 5);
  QohCostEvaluator eval(inst);
  Rng rng(7);
  std::vector<JoinSequence> pool(16, IdentitySequence(n));
  for (JoinSequence& seq : pool) rng.Shuffle(&seq);
  double naive = TimeNs(4, min_seconds, [&](long it) {
    g_sink += OptimalDecomposition(inst, pool[static_cast<size_t>(it) % 16]).cost;
  });
  double fast = TimeNs(4, min_seconds, [&](long it) {
    g_sink += eval.Evaluate(pool[static_cast<size_t>(it) % 16]).cost;
  });
  return {"qoh", "full", n, naive, fast};
}

Row MeasureQohSwap(int n, double min_seconds) {
  QohInstance inst = MakeQohInstance(n, 5);
  std::vector<std::pair<int, int>> swaps = SwapSchedule(n, 4096, 13);
  JoinSequence seq = IdentitySequence(n);
  Rng rng(7);
  rng.Shuffle(&seq);

  JoinSequence naive_seq = seq;
  double naive = TimeNs(4, min_seconds, [&](long it) {
    auto [i, j] = swaps[static_cast<size_t>(it) % swaps.size()];
    std::swap(naive_seq[static_cast<size_t>(i)],
              naive_seq[static_cast<size_t>(j)]);
    g_sink += OptimalDecomposition(inst, naive_seq).cost;
  });

  QohCostEvaluator eval(inst);
  JoinSequence fast_seq = seq;
  eval.Evaluate(fast_seq);
  double fast = TimeNs(4, min_seconds, [&](long it) {
    auto [i, j] = swaps[static_cast<size_t>(it) % swaps.size()];
    std::swap(fast_seq[static_cast<size_t>(i)],
              fast_seq[static_cast<size_t>(j)]);
    g_sink += eval.Evaluate(fast_seq).cost;
  });
  return {"qoh", "swap", n, naive, fast};
}

// E6's sampling: R_0 first and the other relations reshuffled for every
// plan, so each evaluation recomputes from position 1.
Row MeasureQohSentinelFirst(int n, double min_seconds) {
  QohInstance inst = MakeSparseQohNoInstance(n);
  int m = inst.NumRelations();
  Rng rng(7);
  std::vector<JoinSequence> pool;
  for (int i = 0; i < 16; ++i) {
    JoinSequence rest;
    for (int v = 1; v < m; ++v) rest.push_back(v);
    rng.Shuffle(&rest);
    JoinSequence seq = {0};
    seq.insert(seq.end(), rest.begin(), rest.end());
    pool.push_back(std::move(seq));
  }
  double naive = TimeNs(4, min_seconds, [&](long it) {
    g_sink += OptimalDecomposition(inst, pool[static_cast<size_t>(it) % 16]).cost;
  });
  QohCostEvaluator eval(inst);
  double fast = TimeNs(4, min_seconds, [&](long it) {
    g_sink += eval.Evaluate(pool[static_cast<size_t>(it) % 16]).cost;
  });
  return {"qoh", "sentinel_first", m, naive, fast};
}

// Double sink for the raw log2 prices of QonNeighborhoodEvaluator.
double g_fast_sink;

// Neighborhood pricing: all n-1 adjacent transpositions of one sequence,
// reported per candidate. "Exact" swaps and pays a Cost probe, then swaps
// back and pays the Cost that rebuilds the incremental state after the
// (typical) rejection; "fast" is one Load plus a PriceSwap per candidate,
// the calls iterative improvement makes when it ranks swaps.
Row MeasureQonNeighborhood(const QonInstance& inst, const char* workload,
                           double min_seconds) {
  int n = inst.NumRelations();
  JoinSequence seq = IdentitySequence(n);
  Rng rng(7);
  rng.Shuffle(&seq);
  double candidates = static_cast<double>(n - 1);

  QonCostEvaluator eval(inst);
  JoinSequence probe = seq;
  eval.Cost(probe);
  double exact = TimeNs(4, min_seconds, [&](long) {
    for (size_t i = 0; i + 1 < probe.size(); ++i) {
      std::swap(probe[i], probe[i + 1]);
      g_sink += eval.Cost(probe);  // probe
      std::swap(probe[i], probe[i + 1]);
      g_sink += eval.Cost(probe);  // restore
    }
  }) / candidates;

  QonNeighborhoodEvaluator fast_eval(inst);
  double fast = TimeNs(4, min_seconds, [&](long) {
    fast_eval.Load(seq);
    for (int i = 0; i + 1 < n; ++i) {
      g_fast_sink += fast_eval.PriceSwap(i, i + 1);
    }
  }) / candidates;
  return {"qon", workload, n, exact, fast};
}

// MakeQonInstance's query as a QO_H instance, memory half the summed
// sizes.
QohInstance ToQohInstance(const QonInstance& qon) {
  std::vector<LogDouble> sizes;
  double total = 0.0;
  for (int i = 0; i < qon.NumRelations(); ++i) {
    sizes.push_back(qon.size(i));
    total += qon.size(i).ToLinear();
  }
  QohInstance inst(qon.graph(), std::move(sizes), 0.5 * total);
  for (const auto& [u, v] : qon.graph().Edges()) {
    inst.SetSelectivity(u, v, qon.selectivity(u, v));
  }
  return inst;
}

struct CanonRow {
  const char* family;
  int n;
  int edges;
  double parse_ns;
  double label_ns;
  double canonicalize_ns;
  double hit_ns;
};

// Folds fingerprints and parsed sizes so no timed call can be discarded.
uint64_t g_canon_sink;

// One family's row: `text` is the instance as a request body carries it,
// `label` takes the instance or its flat form.
template <typename Parse, typename ParseFlat, typename Label,
          typename Canonicalize, typename Instance>
CanonRow MeasureCanon(const char* family, const Instance& inst,
                      const std::string& text, Parse parse,
                      ParseFlat parse_flat, Label label,
                      Canonicalize canonicalize, double min_seconds) {
  CanonRow row{family, inst.NumRelations(), inst.graph().NumEdges(), 0, 0, 0,
               0};
  row.parse_ns = TimeNs(16, min_seconds, [&](long) {
    g_canon_sink += static_cast<uint64_t>(parse(text).value->NumRelations());
  });
  row.label_ns = TimeNs(16, min_seconds, [&](long) {
    g_canon_sink += label(inst).fingerprint.lo;
  });
  row.canonicalize_ns = TimeNs(16, min_seconds, [&](long) {
    g_canon_sink += canonicalize(inst).fingerprint.lo;
  });
  row.hit_ns = TimeNs(16, min_seconds, [&](long) {
    g_canon_sink += label(*parse_flat(text).value).fingerprint.lo;
  });
  return row;
}

std::vector<CanonRow> MeasureCanonRows(double min_seconds) {
  std::vector<CanonRow> rows;
  for (int n : kCanonSizes) {
    QonInstance qon = MakeQonInstance(n, 42);
    QohInstance qoh = ToQohInstance(qon);
    std::ostringstream qoh_text;
    WriteQohInstance(qoh, qoh_text);
    rows.push_back(MeasureCanon(
        "qon", qon, QonToString(qon),
        [](std::string_view t) { return ParseQonInstance(t); },
        [](std::string_view t) { return ParseFlatQon(t); },
        [](const auto& x) { return LabelQon(x); }, CanonicalizeQon,
        min_seconds));
    rows.push_back(MeasureCanon(
        "qoh", qoh, qoh_text.str(),
        [](std::string_view t) { return ParseQohInstance(t); },
        [](std::string_view t) { return ParseFlatQoh(t); },
        [](const auto& x) { return LabelQoh(x); }, CanonicalizeQoh,
        min_seconds));
  }
  return rows;
}

int WriteCanonSnapshot(const std::string& out,
                       const std::vector<CanonRow>& rows) {
  std::FILE* f = std::fopen(out.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", out.c_str());
    return 1;
  }
  std::fprintf(f, "{\n  \"benchmark\": \"canon\",\n");
  std::fprintf(f, "  \"unit\": \"ns_per_call\",\n  \"rows\": [\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    const CanonRow& r = rows[i];
    std::fprintf(f,
                 "    {\"family\": \"%s\", \"n\": %d, \"edges\": %d, "
                 "\"parse_ns\": %.1f, \"label_ns\": %.1f, "
                 "\"canonicalize_ns\": %.1f, \"hit_ns\": %.1f, "
                 "\"speedup\": %.2f}%s\n",
                 r.family, r.n, r.edges, r.parse_ns, r.label_ns,
                 r.canonicalize_ns, r.hit_ns, r.canonicalize_ns / r.label_ns,
                 i + 1 < rows.size() ? "," : "");
    std::printf("%-4s canon        n=%-4d parse=%10.1f ns  label=%10.1f ns  "
                "canonicalize=%10.1f ns  hit=%10.1f ns  %6.2fx\n",
                r.family, r.n, r.parse_ns, r.label_ns, r.canonicalize_ns,
                r.hit_ns, r.canonicalize_ns / r.label_ns);
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", out.c_str());
  return 0;
}

// Writes one snapshot file. `baseline_key`/`eval_key` name the two timing
// columns ("naive"/"eval" for the cost-eval snapshot, "exact"/"fast" for
// the fast-eval one).
int WriteSnapshot(const std::string& out, const char* benchmark,
                  const char* unit, const char* baseline_key,
                  const char* eval_key, const std::vector<Row>& rows) {
  std::FILE* f = std::fopen(out.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", out.c_str());
    return 1;
  }
  std::fprintf(f, "{\n  \"benchmark\": \"%s\",\n", benchmark);
  std::fprintf(f, "  \"unit\": \"%s\",\n  \"rows\": [\n", unit);
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(f,
                 "    {\"family\": \"%s\", \"workload\": \"%s\", \"n\": %d, "
                 "\"%s_ns\": %.1f, \"%s_ns\": %.1f, "
                 "\"speedup\": %.2f}%s\n",
                 r.family, r.workload, r.n, baseline_key, r.naive_ns,
                 eval_key, r.eval_ns, r.speedup(),
                 i + 1 < rows.size() ? "," : "");
    std::printf("%-4s %-12s n=%-4d %s=%10.1f ns  %s=%10.1f ns  %6.2fx\n",
                r.family, r.workload, r.n, baseline_key, r.naive_ns,
                eval_key, r.eval_ns, r.speedup());
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", out.c_str());
  return 0;
}

int Main(int argc, char** argv) {
  EscapeSink(&g_sink);
  EscapeSink(&g_fast_sink);
  EscapeSink(&g_canon_sink);
  std::string out = "BENCH_COST_EVAL.json";
  std::string fast_out = "BENCH_FAST_EVAL.json";
  std::string canon_out = "BENCH_CANON.json";
  double min_seconds = 0.2;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--out=", 6) == 0) {
      out = argv[i] + 6;
    } else if (std::strncmp(argv[i], "--fast-out=", 11) == 0) {
      fast_out = argv[i] + 11;
    } else if (std::strncmp(argv[i], "--canon-out=", 12) == 0) {
      canon_out = argv[i] + 12;
    } else if (std::strncmp(argv[i], "--min-seconds=", 14) == 0) {
      min_seconds = std::atof(argv[i] + 14);
    } else {
      std::fprintf(stderr,
                   "usage: %s [--out=FILE] [--fast-out=FILE]"
                   " [--canon-out=FILE] [--min-seconds=S]\n",
                   argv[0]);
      return 2;
    }
  }

  std::vector<Row> rows;
  std::vector<Row> fast_rows;
  for (int n : kSizes) {
    rows.push_back(MeasureQonFull(n, min_seconds));
    rows.push_back(MeasureQonSwap(n, min_seconds));
    rows.push_back(MeasureQohFull(n, min_seconds));
    rows.push_back(MeasureQohSwap(n, min_seconds));
    fast_rows.push_back(MeasureQonNeighborhood(MakeQonInstance(n, 42),
                                               "neighborhood", min_seconds));
  }
  for (int n : {9, 12}) rows.push_back(MeasureQohSentinelFirst(n, min_seconds));
  for (int n : kSizes) {
    fast_rows.push_back(MeasureQonNeighborhood(
        MakeGapNoInstance(n), "neighborhood_fN", min_seconds));
  }

  int rc = WriteSnapshot(out, "cost_eval", "ns_per_evaluation", "naive",
                         "eval", rows);
  if (rc != 0) return rc;
  rc = WriteSnapshot(fast_out, "fast_eval", "ns_per_candidate", "exact",
                     "fast", fast_rows);
  if (rc != 0) return rc;
  rc = WriteCanonSnapshot(canon_out, MeasureCanonRows(min_seconds));
  if (rc != 0) return rc;
  std::printf("(sink=%g fast_sink=%g canon_sink=%llu)\n", g_sink.Log2(),
              g_fast_sink, static_cast<unsigned long long>(g_canon_sink));
  return 0;
}

}  // namespace
}  // namespace aqo

int main(int argc, char** argv) { return aqo::Main(argc, argv); }
