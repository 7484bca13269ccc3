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
// do not fit in any linear-domain notation. Every number is written with
// %.17g, and a w line goes out whenever the cost's log2 bits differ from
// its default's (-0 and +0 included), so a reparse of a written instance
// has every bit of the original and the same fingerprint.
//
// Error handling: the Parse* readers never abort on malformed input —
// they validate every line (tags, indices, ranges, duplicates, semantic
// constraints like selectivity <= 1) and return a ParseResult carrying
// either the value or a one-line reason. Tools report it as
// `error: <file>: <reason>`.
//
// The qon/qoh grammar, which the instance readers implement by hand in
// one std::from_chars pass; it is the grammar operator>> on a
// std::istringstream gives in the "C" locale (libstdc++ num_get, then
// strtod), and tests/reference_reader.h keeps that reader to prove it:
//
//   lines      end at '\n'; a trailing '\r' is a separator. A line whose
//              first byte outside " \t\r" is '#', or is 'c' followed by
//              ' ' or '\t', is a comment; lines of " \t\r" are blank.
//              Both are skipped.
//   separators ' ', '\t', '\v', '\f', '\r'. Fields need none between
//              them: a number ends at the first byte it cannot take, and
//              the next field starts there. Text after a line's last
//              field is ignored ("rel 0 3.5 trailing", "qon 2x").
//   tag        a maximal run of non-separators. A line of separators
//              alone (it holds '\v' or '\f') has none and keeps the
//              previous line's tag, so it fails as that tag's line.
//   integer    [+-]?[0-9]+ within int's range. "+3", "-0" and "007"
//              read; "+-1" fails; "0x10" reads 0 and leaves "x10".
//   real       [+-]? digits with at most one '.', then optionally e or E,
//              [+-]? and digits; the bytes taken must form a whole
//              decimal. "+1.5", ".5", "5." and "5.e3" read; "1e", "1e+",
//              ".", "+-1", "inf" and "nan" fail; "0x1p3" reads 0 and
//              leaves "x1p3". A decimal beyond double's range fails when
//              too large and reads as a signed zero when too small
//              ("1e-400" is 0, "-1e-400" is -0).
//   log2 value a rel, edge or w line's real; its magnitude must be at
//              most kMaxSerializedLog2 (1e300), or the line fails as
//              "bad <tag> line". The qoh header's memory and eta are
//              linear values and take no such bound.

#include <iosfwd>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <utility>

#include "graph/graph.h"
#include "qo/flat_instance.h"
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

// Ceiling on the magnitude of a log2 size, selectivity or access cost a
// reader accepts. A plan's cost multiplies, that is adds in log2, at most
// n sizes, n^2 selectivities and n access costs; at n =
// kMaxSerializedRelations that sum stays within a tenth of double's range,
// so no parsed instance can overflow a cost to infinity. The bound is far
// above every instance the project builds: the largest |log2| in a table
// is 240000 (E5, alpha = 2^60000), in a test about 1.1e15 (f_N at
// lg alpha = 2^45); only number-grammar probes go higher.
inline constexpr double kMaxSerializedLog2 = 1e300;
static_assert(kMaxSerializedLog2 * kMaxSerializedRelations *
                  (kMaxSerializedRelations + 2.0) <
              0.1 * std::numeric_limits<double>::max());

// Recoverable readers: structured error instead of abort, for any
// malformed input reachable from files a user hands to a tool. Also the
// "io.parse" fault-injection site (util/fault_injection.h): the k-th
// Parse* call process-wide can be armed to fail with an injected error;
// each call takes one ordinal, whichever overload it enters through.
ParseResult<Graph> ParseGraph(std::istream& is);
ParseResult<CnfFormula> ParseDimacs(std::istream& is);
ParseResult<QonInstance> ParseQonInstance(std::string_view text);
ParseResult<QohInstance> ParseQohInstance(std::string_view text);
// The flat form of the text (qo/flat_instance.h), with every decision and
// error string of ParseQ*Instance, which is this read and then
// BuildQ*Instance; no n x n matrix of values is allocated (the
// duplicate-edge check keeps one bit per pair). (ParseQonInstance also
// keeps a w line between relations with no edge, which can differ from
// its default only in the sign of a zero log2; the flat form, like a
// relabeling, drops it.)
ParseResult<FlatQon> ParseFlatQon(std::string_view text);
ParseResult<FlatQoh> ParseFlatQoh(std::string_view text);
// The rest of the stream, read in bulk and parsed as text.
ParseResult<QonInstance> ParseQonInstance(std::istream& is);
ParseResult<QohInstance> ParseQohInstance(std::istream& is);

void WriteGraph(const Graph& g, std::ostream& os);
void WriteDimacs(const CnfFormula& f, std::ostream& os);
void WriteQonInstance(const QonInstance& inst, std::ostream& os);
void WriteQohInstance(const QohInstance& inst, std::ostream& os);

// WriteQonInstance into a string.
std::string QonToString(const QonInstance& inst);

}  // namespace aqo

#endif  // AQO_IO_SERIALIZATION_H_
