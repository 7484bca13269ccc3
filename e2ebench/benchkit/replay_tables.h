#ifndef AQO_E2EBENCH_REPLAY_TABLES_H_
#define AQO_E2EBENCH_REPLAY_TABLES_H_

#include <string>

namespace e2ebench {

// Replays the E1, E6, E7 and E8 cells with spans and prints one JSON
// object: the replayed rows, wall time per table, layer self times and
// counters. Spans go to `spans_path` when it is non-empty.
int RunTablesReplay(const std::string& spans_path);

}  // namespace e2ebench

#endif  // AQO_E2EBENCH_REPLAY_TABLES_H_
