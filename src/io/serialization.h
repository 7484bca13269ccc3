#ifndef AQO_IO_SERIALIZATION_H_
#define AQO_IO_SERIALIZATION_H_

// Plain-text serialization for the library's instance types, so generated
// hardness instances can be shipped to / consumed by external optimizers.
//
// Formats (line-oriented, '#' comments):
//
//   graph:      "graph <n> <m>" then m lines "e <u> <v>"
//   cnf:        DIMACS: "p cnf <vars> <clauses>" then clauses, 0-terminated
//   qon:        "qon <n>"
//               "rel <i> <log2_size>"                      (n lines)
//               "edge <i> <j> <log2_selectivity>"          (per predicate)
//               "w <i> <j> <log2_cost>"                    (only overrides)
//   qoh:        "qoh <n> <memory> <eta>" + rel/edge lines as above
//
// Sizes/selectivities/costs are written as log2 values: the gap instances
// do not fit in any linear-domain notation.
//
// Error handling: the Parse* readers never abort on malformed input —
// they validate every line (tags, indices, ranges, duplicates, semantic
// constraints like selectivity <= 1) and return a ParseResult carrying
// either the value or a one-line reason. Tools report it as
// `error: <file>: <reason>`.

#include <iosfwd>
#include <optional>
#include <string>
#include <utility>

#include "graph/graph.h"
#include "qo/qoh.h"
#include "qo/qon.h"
#include "sat/cnf.h"
// ParseResult<T> lives in util/parse_result.h so lower layers (the binary
// persistence in qo/persist.h) can report recoverable decode errors the
// same way without depending on aqo_io.
#include "util/parse_result.h"

namespace aqo {

// Ceiling on the relation/vertex count a parser will accept. Instance
// state is quadratic in n, so the bound is what keeps a 12-byte
// "qon 2000000000" header from costing gigabytes before any admission
// check can run (the fuzz harnesses under fuzz/ hammer exactly this).
// Far above anything the optimizers can process anyway.
inline constexpr int kMaxSerializedRelations = 4096;

// Recoverable readers: structured error instead of abort, for any
// malformed input reachable from files a user hands to a tool. Also the
// "io.parse" fault-injection site (util/fault_injection.h): the k-th
// Parse* call process-wide can be armed to fail with an injected error.
ParseResult<Graph> ParseGraph(std::istream& is);
ParseResult<CnfFormula> ParseDimacs(std::istream& is);
ParseResult<QonInstance> ParseQonInstance(std::istream& is);
ParseResult<QohInstance> ParseQohInstance(std::istream& is);

void WriteGraph(const Graph& g, std::ostream& os);
void WriteDimacs(const CnfFormula& f, std::ostream& os);
void WriteQonInstance(const QonInstance& inst, std::ostream& os);
void WriteQohInstance(const QohInstance& inst, std::ostream& os);

// Convenience string writers (used by tests and the CLI tools).
std::string GraphToString(const Graph& g);
std::string QonToString(const QonInstance& inst);

}  // namespace aqo

#endif  // AQO_IO_SERIALIZATION_H_
