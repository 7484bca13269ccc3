// benchkit — the compiled half of the end-to-end benchmark (run.py drives
// it). Modes:
//
//   benchkit serve --server=<aqo_serve> --workload=serve_hot|serve_cold
//                  --seed=<n> --seconds=<s> --workdir=<dir>
//                  [--count=<n>] [--trace=1]
//                  [--save-responses=<file>]
//       closed-loop load against one aqo_serve --threads=1, output oracle,
//       and with --trace=1 the telemetry server run plus the traced
//       in-process replay with parity checks
//   benchkit check --workload=<w> --seed=<n> --responses=<file>
//       the oracle alone, over saved response frames
//   benchkit tables [--spans=<file>]
//       traced replay of the E1, E6, E7 and E8 table cells
//
// Each mode prints one JSON object on stdout.

#include <cstdlib>
#include <iostream>
#include <map>
#include <string>

#include "replay_tables.h"
#include "serve.h"

namespace {

std::map<std::string, std::string> ParseFlags(int argc, char** argv) {
  std::map<std::string, std::string> flags;
  for (int i = 2; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) continue;
    size_t eq = arg.find('=');
    if (eq == std::string::npos) {
      flags.insert_or_assign(arg.substr(2), std::string("1"));
    } else {
      flags[arg.substr(2, eq - 2)] = arg.substr(eq + 1);
    }
  }
  return flags;
}

std::string Get(const std::map<std::string, std::string>& flags,
                const std::string& name, const std::string& def = "") {
  auto it = flags.find(name);
  return it == flags.end() ? def : it->second;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::cerr << "usage: benchkit serve|check|tables [--flags]\n";
    return 2;
  }
  std::string mode = argv[1];
  std::map<std::string, std::string> flags = ParseFlags(argc, argv);
  if (mode == "serve") {
    e2ebench::ServeOptions options;
    options.server = Get(flags, "server");
    options.workload = Get(flags, "workload");
    options.workdir = Get(flags, "workdir");
    options.seed = std::strtoull(Get(flags, "seed", "1").c_str(), nullptr, 10);
    options.seconds = std::strtod(Get(flags, "seconds", "10").c_str(), nullptr);
    options.count = std::strtoull(Get(flags, "count", "0").c_str(), nullptr, 10);
    options.trace = Get(flags, "trace", "0") == "1";
    options.save_responses = Get(flags, "save-responses");
    if (options.server.empty() || options.workdir.empty()) {
      std::cerr << "benchkit serve: --server and --workdir are required\n";
      return 2;
    }
    return e2ebench::RunServe(options);
  }
  if (mode == "check") {
    return e2ebench::RunCheck(
        Get(flags, "workload"),
        std::strtoull(Get(flags, "seed", "1").c_str(), nullptr, 10),
        Get(flags, "responses"));
  }
  if (mode == "tables") return e2ebench::RunTablesReplay(Get(flags, "spans"));
  std::cerr << "benchkit: unknown mode '" << mode << "'\n";
  return 2;
}
