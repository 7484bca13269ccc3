// aqo_opt — join-order optimizer CLI.
//
// Reads a QO_N instance (library text format, see io/serialization.h) from
// stdin and optimizes it with every optimizer named in --optimizers=:
//
//   aqo_gen --kind=random --n=14 | aqo_opt --optimizers=dp
//   aqo_gen --kind=gap-no --n=60 | aqo_opt --optimizers=greedy,ii,sa
//
// The names come from the optimizer registry (qo/registry.h): dp (exact
// subset DP), bnb (exact branch & bound, anytime under --budget-evals=),
// exhaustive, greedy, random, ii, sa, genetic/ga, kbz (trees only, else
// infeasible), cout (the C_out-optimal order, priced under QO_N like
// every entry); --optimizers=help
// lists each entry's relation-count domain. Unknown names are a hard
// error listing the valid set. Knob flags (--samples=,
// --restarts=, --sa-iterations=, ...) apply to whichever optimizers read
// them. Prints one line per optimizer.
//
// --in=<file> reads the instance from a file instead of stdin; malformed
// input prints `error: <file>: <reason>` and exits nonzero instead of
// aborting. --budget-evals=N / --deadline-ms=M cut runs short (anytime
// mode, docs/robustness.md); cut-short lines carry a [status] marker.
//
// --json-out=<path> writes a JSONL run-log, --trace-out=<path> a Chrome
// trace-event JSON of the run, and --latency-table=1 a percentile table
// of every latency histogram (docs/observability.md).

#include <fstream>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_common.h"
#include "io/serialization.h"
#include "obs/runlog.h"
#include "qo/optimizers.h"
#include "qo/registry.h"
#include "util/random.h"

namespace aqo {
namespace {

void Report(const std::string& name, const OptimizerResult& r) {
  if (!r.feasible) {
    std::cout << name << ": infeasible\n";
    return;
  }
  std::cout << name << ": lg cost = " << r.cost.Log2() << "  (" << r.evaluations
            << " evaluations)";
  // Cut-short runs are flagged; complete runs keep the historical line.
  if (r.status != PlanStatus::kComplete) {
    std::cout << "  [" << PlanStatusName(r.status) << "]";
  }
  std::cout << "\n  sequence:";
  for (int v : r.sequence) std::cout << " " << v;
  std::cout << "\n";
}

int Main(int argc, char** argv) {
  bench::Flags flags(argc, argv);
  bench::RunLogSession session(flags, "aqo_opt", /*default_seed=*/1);

  std::vector<std::string> names =
      bench::SelectedQonOptimizersOrDie(flags, "dp,greedy,ii");

  // --in=<file> reads the instance from a file instead of stdin. Malformed
  // input is a structured error (ParseResult), not an abort.
  std::string in_path = flags.GetString("in");
  ParseResult<QonInstance> parsed;
  if (in_path.empty()) {
    parsed = ParseQonInstance(std::cin);
  } else {
    std::ifstream in(in_path);
    if (!in.is_open()) {
      std::cerr << "error: " << in_path << ": cannot open\n";
      return 1;
    }
    parsed = ParseQonInstance(in);
  }
  if (!parsed.ok()) {
    std::cerr << "error: " << (in_path.empty() ? "<stdin>" : in_path) << ": "
              << parsed.error << "\n";
    return 1;
  }
  QonInstance inst = *std::move(parsed.value);
  std::cout << "instance: " << inst.NumRelations() << " relations, "
            << inst.graph().NumEdges() << " predicates\n";
  obs::InstanceShape shape{.family = "qon",
                           .kind = "stdin",
                           .side = "",
                           .source = "",
                           .n = inst.NumRelations(),
                           .edges = inst.graph().NumEdges()};

  Rng rng(static_cast<uint64_t>(flags.GetInt("seed", 1)));
  OptimizerOptions defaults;
  defaults.samples = 1000;
  defaults.restarts = 4;
  OptimizerOptions knobs = bench::ReadQonKnobs(flags, defaults);

  // Run through InstrumentedRun so --json-out records each algorithm.
  for (const std::string& name : names) {
    Report(name, obs::InstrumentedRun("qon." + name, shape, [&] {
             return OptimizerRegistry::Qon().Run(name, inst, knobs, &rng);
           }));
  }
  return 0;
}

}  // namespace
}  // namespace aqo

int main(int argc, char** argv) { return aqo::Main(argc, argv); }
