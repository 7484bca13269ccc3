#ifndef AQO_E2EBENCH_SERVE_H_
#define AQO_E2EBENCH_SERVE_H_

// The serve_* load: one closed-loop client on one pipe pair to one
// `aqo_serve --threads=1`. The next request leaves when the previous
// answer arrives.

#include <cstdint>
#include <string>

namespace e2ebench {

// Set-ups measured in a run with tracing off (a traced run makes one); the
// last one serves the timed requests. run.py's WARMUP_REPS gives
// gap_tables the same count.
inline constexpr int kSetupReps = 5;

struct ServeOptions {
  std::string server;    // path to aqo_serve
  std::string workload;  // serve_hot | serve_cold
  std::string workdir;   // run directory for cache dirs and logs
  uint64_t seed = 1;
  double seconds = 10.0;  // timed run length
  size_t count = 0;       // > 0: send exactly this many timed requests
  bool trace = false;     // telemetry server + in-process traced replay
  std::string save_responses;  // optional: frames of the timed responses
};

// Runs the workload and prints one JSON object of raw measurements.
// Returns the process exit code.
int RunServe(const ServeOptions& options);

// Checks saved responses (frames, timed request order) with the oracle.
int RunCheck(const std::string& workload, uint64_t seed,
             const std::string& responses_path);

}  // namespace e2ebench

#endif  // AQO_E2EBENCH_SERVE_H_
