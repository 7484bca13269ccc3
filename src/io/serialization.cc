#include "io/serialization.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <istream>
#include <limits>
#include <ostream>
#include <sstream>
#include <string_view>
#include <system_error>
#include <tuple>
#include <type_traits>
#include <vector>

#include "util/fault_injection.h"

namespace aqo {

namespace {

// False for the lines every reader skips: blank (only " \t\r"), '#'
// comments and DIMACS "c " comments.
bool IsContentLine(std::string_view line) {
  size_t start = line.find_first_not_of(" \t\r");
  if (start == std::string_view::npos) return false;
  if (line[start] == '#') return false;
  return !(line[start] == 'c' && start + 1 < line.size() &&
           (line[start + 1] == ' ' || line[start + 1] == '\t'));
}

// Reads the next content line into `line`; returns false at EOF.
bool NextLine(std::istream& is, std::string* line) {
  while (std::getline(is, *line)) {
    if (IsContentLine(*line)) return true;
  }
  return false;
}

// The same over text: `line` views the next content line of `*text`,
// which advances past it. Lines end at '\n'; a '\r' before it stays in
// the line (and in error messages), as std::getline leaves it.
bool NextLine(std::string_view* text, std::string_view* line) {
  while (!text->empty()) {
    size_t eol = text->find('\n');
    *line = text->substr(0, eol);
    text->remove_prefix(eol == std::string_view::npos ? text->size()
                                                      : eol + 1);
    if (IsContentLine(*line)) return true;
  }
  return false;
}

// The field separators of operator>> in the "C" locale.
bool IsSpace(char c) {
  return c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' ||
         c == '\r';
}

bool IsDigit(char c) { return c >= '0' && c <= '9'; }

// Whether `field`, a decimal that std::from_chars found outside double's
// range, lies above it rather than below: the power of ten of its leading
// significant digit is positive. (Out of range means beyond 1e308 or
// below 2.5e-324, so the sign alone decides.)
bool AboveDoubleRange(std::string_view field) {
  size_t k = field[0] == '+' || field[0] == '-' ? 1 : 0;
  int64_t lead = 0;
  bool point = false, significant = false;
  for (; k < field.size() && field[k] != 'e' && field[k] != 'E'; ++k) {
    if (field[k] == '.') {
      point = true;
    } else if (significant || field[k] != '0') {
      significant = true;
      if (!point) ++lead;
    } else if (point) {
      --lead;
    }
  }
  if (k == field.size()) return lead > 0;
  ++k;  // past the 'e' or 'E'
  bool negative = k < field.size() && field[k] == '-';
  if (k < field.size() && (field[k] == '+' || negative)) ++k;
  constexpr int64_t kCap = int64_t{1} << 40;  // far past any exponent
  int64_t exponent = 0;
  for (; k < field.size(); ++k) {
    exponent = std::min(kCap, exponent * 10 + (field[k] - '0'));
  }
  return lead + (negative ? -exponent : exponent) > 0;
}

// Reads one line's whitespace-separated fields the way operator>> on a
// std::istringstream does in the "C" locale (the grammar is spelled out
// in serialization.h). Every read first skips separators and fails at
// the end of the line; a number ends at the first byte its grammar does
// not take, and the next read starts there.
class Fields {
 public:
  explicit Fields(std::string_view line)
      : p_(line.data()), end_(line.data() + line.size()) {}

  // The next maximal run of non-separator bytes. Leaves `*token` as it
  // was when only separators remain.
  bool Token(std::string_view* token) {
    if (!SkipSpace()) return false;
    const char* start = p_;
    while (p_ != end_ && !IsSpace(*p_)) ++p_;
    *token = std::string_view(start, static_cast<size_t>(p_ - start));
    return true;
  }

  // [+-]?[0-9]+ within int's range.
  bool Int(int* value) {
    if (!SkipSpace()) return false;
    const char* start = p_;
    if (*p_ == '+' || *p_ == '-') ++p_;
    while (p_ != end_ && IsDigit(*p_)) ++p_;
    return Convert(start, value);
  }

  // [+-]? then digits holding at most one '.', then optionally e or E,
  // [+-]? and digits; the taken bytes must form a whole decimal.
  bool Double(double* value) {
    if (!SkipSpace()) return false;
    const char* start = p_;
    if (*p_ == '+' || *p_ == '-') ++p_;
    for (bool point = false; p_ != end_; ++p_) {
      if (*p_ == '.' && !point) {
        point = true;
      } else if (!IsDigit(*p_)) {
        break;
      }
    }
    if (p_ != end_ && (*p_ == 'e' || *p_ == 'E')) {
      ++p_;
      if (p_ != end_ && (*p_ == '+' || *p_ == '-')) ++p_;
      while (p_ != end_ && IsDigit(*p_)) ++p_;
    }
    return Convert(start, value);
  }

 private:
  bool SkipSpace() {
    while (p_ != end_ && IsSpace(*p_)) ++p_;
    return p_ != end_;
  }

  // Converts exactly [start, p_). std::from_chars takes no leading '+'
  // (so "+-1" stays an error), and reports a decimal beyond double's
  // range as out of range where strtod, the iostreams converter, returns
  // a signed zero below it and an infinity, which it rejects, above it.
  template <typename T>
  bool Convert(const char* start, T* value) {
    const char* first = *start == '+' ? start + 1 : start;
    auto [end, error] = std::from_chars(first, p_, *value);
    if (end != p_) return false;
    if (error == std::errc()) return true;
    if constexpr (std::is_floating_point_v<T>) {
      std::string_view field(start, static_cast<size_t>(p_ - start));
      if (error == std::errc::result_out_of_range &&
          !AboveDoubleRange(field)) {
        *value = *start == '-' ? -0.0 : 0.0;
        return true;
      }
    }
    return false;
  }

  const char* p_;
  const char* end_;
};

// The rest of `is`, read in bulk through its buffer. A stream that is not
// good() reads as empty, as std::getline would see it.
std::string ReadRest(std::istream& is) {
  std::string text;
  if (!is.good()) return text;
  char chunk[4096];
  while (std::streamsize got = is.rdbuf()->sgetn(chunk, sizeof chunk)) {
    text.append(chunk, static_cast<size_t>(got));
  }
  return text;
}

// Writes a log2 value with enough digits to round-trip.
void WriteLog2(std::ostream& os, LogDouble v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v.Log2());
  os << buf;
}

// The "io.parse" fault site: ordinals count Parse* entries process-wide,
// so "fail the k-th parse" is exact regardless of which reader runs.
// Returns a ready-made error string when the armed ordinal is hit.
std::atomic<uint64_t> parse_ordinal{0};

bool InjectedParseFault(std::string* error) {
  uint64_t ordinal = parse_ordinal.fetch_add(1, std::memory_order_relaxed);
  if (!FaultInjector::Get().ShouldFail("io.parse", ordinal)) return false;
  std::ostringstream os;
  os << "injected fault at io.parse#" << ordinal;
  *error = os.str();
  return true;
}

template <typename T>
ParseResult<T> Fail(const std::string& reason) {
  ParseResult<T> r;
  r.error = reason;
  return r;
}

template <typename T>
ParseResult<T> Fail(const std::string& reason, std::string_view line) {
  return Fail<T>(reason + ": " + std::string(line));
}

// (i, j, log2 value) of w lines, in line order.
using Costs = std::vector<std::tuple<int, int, double>>;

// The rel and edge lines after a `family` header ("qon" or "qoh") of
// flat->n relations, into `flat`'s sizes and edges in line order, plus w
// lines into `costs` when it is given: log2 values, validated line by
// line. Returns the error, empty on success.
template <typename Flat>
std::string ReadBody(std::string_view text, std::string_view family,
                     Flat* flat, Costs* costs) {
  int n = flat->n;
  flat->sizes.assign(static_cast<size_t>(n), 0.0);  // log2 of t_i = 1
  // A line of separators alone (it holds a '\v' or '\f') reads no tag,
  // so the previous line's tag stands, as it did in operator>>'s string.
  std::string_view tag = family;
  std::string_view line;
  while (NextLine(&text, &line)) {
    Fields fields(line);
    fields.Token(&tag);
    int i = -1, j = -1;
    double lg = 0.0;
    if (tag == "rel") {
      if (!fields.Int(&i) || !fields.Double(&lg) || i < 0 || i >= n ||
          !(std::abs(lg) <= kMaxSerializedLog2)) {
        return "bad rel line: " + std::string(line);
      }
      flat->sizes[static_cast<size_t>(i)] = lg;
    } else if (tag == "edge" || (tag == "w" && costs != nullptr)) {
      if (!fields.Int(&i) || !fields.Int(&j) || !fields.Double(&lg) ||
          i < 0 || i >= n || j < 0 || j >= n || i == j ||
          !(std::abs(lg) <= kMaxSerializedLog2)) {
        return "bad " + std::string(tag) + " line: " + std::string(line);
      }
      if (costs != nullptr && tag == "w") {
        costs->emplace_back(i, j, lg);
      } else if (lg > 0.0) {
        return "edge selectivity above 1: " + std::string(line);
      } else {
        auto& edge = flat->edges.emplace_back();
        edge.u = i;
        edge.v = j;
        edge.selectivity = lg;
      }
    } else {
      return "unknown " + std::string(family) + " line: " + std::string(line);
    }
  }
  return "";
}

// The join-graph half of both readers: the body (ReadBody), then the
// check that no pair has two edge lines, in line order. Returns the
// error, empty on success.
template <typename Flat>
std::string ReadJoinGraph(std::string_view text, std::string_view family,
                          Flat* flat, Costs* costs) {
  std::string error = ReadBody(text, family, flat, costs);
  if (!error.empty()) return error;
  int n = flat->n;
  // Bit min(u, v) * n + max(u, v) marks a pair already read.
  DynamicBitset seen(n * n);
  for (const auto& e : flat->edges) {
    int pair = std::min(e.u, e.v) * n + std::max(e.u, e.v);
    if (seen.Test(pair)) {
      return "duplicate edge " + std::to_string(e.u) + " " +
             std::to_string(e.v);
    }
    seen.Set(pair);
  }
  return "";
}

// Gives every edge its two access costs: the default t_j s_ij, then the
// last w line of that direction. Each w line must lie in [t_j s_ij, t_j]
// (s_ij = 1 off the edges), or the text fails as QonInstance's setter
// would CHECK-fail; those off the edges go to `off_edge`, in line order.
// Returns the error, empty on success.
std::string ResolveAccessCosts(const Costs& costs, FlatQon* flat,
                               Costs* off_edge) {
  auto size = [&](int i) {
    return LogDouble::FromLog2(flat->sizes[static_cast<size_t>(i)]);
  };
  for (FlatQonEdge& e : flat->edges) {
    // log2 of t_j * s_ij: the sum LogDouble's product takes of two
    // finite log2 values.
    e.cost_uv = flat->sizes[static_cast<size_t>(e.v)] + e.selectivity;
    e.cost_vu = flat->sizes[static_cast<size_t>(e.u)] + e.selectivity;
  }
  if (costs.empty()) return "";
  // (min(u, v) * n + max(u, v), edge index), sorted: a w line's edge.
  int n = flat->n;
  std::vector<std::pair<int, size_t>> index;
  index.reserve(flat->edges.size());
  for (size_t e = 0; e < flat->edges.size(); ++e) {
    const FlatQonEdge& edge = flat->edges[e];
    index.emplace_back(
        std::min(edge.u, edge.v) * n + std::max(edge.u, edge.v), e);
  }
  std::sort(index.begin(), index.end());
  for (const auto& [i, j, lg] : costs) {
    int pair = std::min(i, j) * n + std::max(i, j);
    auto it = std::lower_bound(index.begin(), index.end(),
                               std::pair<int, size_t>(pair, 0));
    FlatQonEdge* edge = it != index.end() && it->first == pair
                            ? &flat->edges[it->second]
                            : nullptr;
    LogDouble w = LogDouble::FromLog2(lg);
    LogDouble lo = size(j) * LogDouble::FromLog2(
                                 edge != nullptr ? edge->selectivity : 0.0);
    LogDouble hi = size(j);
    if (!(lo <= w && w <= hi)) {
      std::ostringstream os;
      os << "access cost out of [t_j s, t_j] at (" << i << "," << j << ")";
      return os.str();
    }
    if (edge == nullptr) {
      off_edge->emplace_back(i, j, lg);
    } else {
      (edge->u == i ? edge->cost_uv : edge->cost_vu) = lg;
    }
  }
  return "";
}

// The qon reader behind ParseFlatQon and ParseQonInstance: the flat form,
// and the w lines between relations with no edge, which can differ from
// their default only in the sign of a zero log2 and which only the parsed
// instance keeps (a relabeling re-derives them), into `off_edge`.
ParseResult<FlatQon> ReadQon(std::string_view text, Costs* off_edge) {
  ParseResult<FlatQon> out;
  if (InjectedParseFault(&out.error)) return out;
  std::string_view line;
  if (!NextLine(&text, &line)) return Fail<FlatQon>("missing qon header");
  Fields header(line);
  std::string_view tag;
  int n = -1;
  if (!header.Token(&tag) || !header.Int(&n) || tag != "qon" || n < 1) {
    return Fail<FlatQon>("bad qon header", line);
  }
  if (n > kMaxSerializedRelations) {
    return Fail<FlatQon>("qon header n exceeds supported maximum", line);
  }
  FlatQon& flat = out.value.emplace();
  flat.n = n;
  Costs costs;
  std::string error = ReadJoinGraph(text, "qon", &flat, &costs);
  if (error.empty()) error = ResolveAccessCosts(costs, &flat, off_edge);
  if (!error.empty()) return Fail<FlatQon>(error);
  return out;
}

// The rel and edge lines both writers emit after their header.
void WriteJoinGraph(const JoinGraph& inst, std::ostream& os) {
  for (int i = 0; i < inst.NumRelations(); ++i) {
    os << "rel " << i << " ";
    WriteLog2(os, inst.size(i));
    os << "\n";
  }
  for (const auto& [u, v] : inst.graph().Edges()) {
    os << "edge " << u << " " << v << " ";
    WriteLog2(os, inst.selectivity(u, v));
    os << "\n";
  }
}

}  // namespace

void WriteGraph(const Graph& g, std::ostream& os) {
  os << "graph " << g.NumVertices() << " " << g.NumEdges() << "\n";
  for (const auto& [u, v] : g.Edges()) os << "e " << u << " " << v << "\n";
}

ParseResult<Graph> ParseGraph(std::istream& is) {
  using R = ParseResult<Graph>;
  R out;
  if (InjectedParseFault(&out.error)) return out;
  std::string line;
  if (!NextLine(is, &line)) return Fail<Graph>("missing graph header");
  std::istringstream header(line);
  std::string tag;
  int n = -1, m = -1;
  header >> tag >> n >> m;
  if (header.fail() || tag != "graph" || n < 0 || m < 0) {
    return Fail<Graph>("bad graph header", line);
  }
  if (n > kMaxSerializedRelations) {
    return Fail<Graph>("graph header n exceeds supported maximum", line);
  }
  Graph g(n);
  for (int i = 0; i < m; ++i) {
    if (!NextLine(is, &line)) return Fail<Graph>("truncated graph edge list");
    std::istringstream edge(line);
    int u = -1, v = -1;
    edge >> tag >> u >> v;
    if (edge.fail() || tag != "e") return Fail<Graph>("bad edge line", line);
    if (u < 0 || u >= n || v < 0 || v >= n) {
      return Fail<Graph>("edge vertex out of range", line);
    }
    if (u == v) return Fail<Graph>("self-loop edge", line);
    if (g.HasEdge(u, v)) return Fail<Graph>("duplicate edge in input", line);
    g.AddEdge(u, v);
  }
  out.value = std::move(g);
  return out;
}

void WriteDimacs(const CnfFormula& f, std::ostream& os) {
  os << "p cnf " << f.num_vars() << " " << f.NumClauses() << "\n";
  for (const Clause& c : f.clauses()) {
    for (Lit l : c) os << l << " ";
    os << "0\n";
  }
}

ParseResult<CnfFormula> ParseDimacs(std::istream& is) {
  using R = ParseResult<CnfFormula>;
  R out;
  if (InjectedParseFault(&out.error)) return out;
  std::string line;
  if (!NextLine(is, &line)) return Fail<CnfFormula>("missing DIMACS header");
  std::istringstream header(line);
  std::string p, cnf;
  int vars = -1, clauses = -1;
  header >> p >> cnf >> vars >> clauses;
  if (header.fail() || p != "p" || cnf != "cnf" || vars < 0 || clauses < 0) {
    return Fail<CnfFormula>("bad DIMACS header", line);
  }
  CnfFormula f(vars);
  Clause current;
  int read = 0;
  while (read < clauses && NextLine(is, &line)) {
    std::istringstream body(line);
    Lit l;
    while (body >> l) {
      if (l == 0) {
        if (current.empty()) {
          return Fail<CnfFormula>("empty DIMACS clause", line);
        }
        f.AddClause(current);
        current.clear();
        ++read;
      } else {
        if (std::abs(l) > vars) {
          return Fail<CnfFormula>("DIMACS literal out of range", line);
        }
        current.push_back(l);
      }
    }
    if (!body.eof()) return Fail<CnfFormula>("bad DIMACS body line", line);
  }
  if (read != clauses) return Fail<CnfFormula>("truncated DIMACS body");
  out.value = std::move(f);
  return out;
}

void WriteQonInstance(const QonInstance& inst, std::ostream& os) {
  int n = inst.NumRelations();
  os << "qon " << n << "\n";
  WriteJoinGraph(inst, os);
  // An access cost is emitted whenever its log2 bits differ from those of
  // the default the instance derives (QonInstance::ResetDefaultAccessCost),
  // so a reparse restores every cost bit for bit.
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      if (i == j) continue;
      LogDouble def = inst.size(j) * inst.selectivity(i, j);
      if (std::bit_cast<uint64_t>(inst.AccessCost(i, j).Log2()) !=
          std::bit_cast<uint64_t>(def.Log2())) {
        os << "w " << i << " " << j << " ";
        WriteLog2(os, inst.AccessCost(i, j));
        os << "\n";
      }
    }
  }
}

ParseResult<FlatQon> ParseFlatQon(std::string_view text) {
  Costs off_edge;
  return ReadQon(text, &off_edge);
}

ParseResult<QonInstance> ParseQonInstance(std::string_view text) {
  Costs off_edge;
  ParseResult<FlatQon> flat = ReadQon(text, &off_edge);
  if (!flat.ok()) return Fail<QonInstance>(flat.error);
  ParseResult<QonInstance> out;
  QonInstance& inst = out.value.emplace(BuildQonInstance(*flat.value));
  for (const auto& [i, j, lg] : off_edge) {
    inst.SetAccessCost(i, j, LogDouble::FromLog2(lg));
  }
  return out;
}

ParseResult<QonInstance> ParseQonInstance(std::istream& is) {
  return ParseQonInstance(ReadRest(is));
}

void WriteQohInstance(const QohInstance& inst, std::ostream& os) {
  int n = inst.NumRelations();
  char memory[40];
  std::snprintf(memory, sizeof(memory), "%.17g", inst.memory());
  char eta[40];
  std::snprintf(eta, sizeof(eta), "%.17g", inst.eta());
  os << "qoh " << n << " " << memory << " " << eta << "\n";
  WriteJoinGraph(inst, os);
}

ParseResult<FlatQoh> ParseFlatQoh(std::string_view text) {
  ParseResult<FlatQoh> out;
  if (InjectedParseFault(&out.error)) return out;
  std::string_view line;
  if (!NextLine(&text, &line)) return Fail<FlatQoh>("missing qoh header");
  Fields header(line);
  std::string_view tag;
  FlatQoh& flat = out.value.emplace();
  flat.n = -1;
  if (!header.Token(&tag) || !header.Int(&flat.n) ||
      !header.Double(&flat.memory) || !header.Double(&flat.eta) ||
      tag != "qoh" || flat.n < 1 || !std::isfinite(flat.memory) ||
      flat.memory <= 0.0 || !std::isfinite(flat.eta) || flat.eta <= 0.0 ||
      flat.eta >= 1.0) {
    return Fail<FlatQoh>("bad qoh header", line);
  }
  if (flat.n > kMaxSerializedRelations) {
    return Fail<FlatQoh>("qoh header n exceeds supported maximum", line);
  }
  std::string error = ReadJoinGraph(text, "qoh", &flat, nullptr);
  if (!error.empty()) return Fail<FlatQoh>(error);
  return out;
}

ParseResult<QohInstance> ParseQohInstance(std::string_view text) {
  ParseResult<FlatQoh> flat = ParseFlatQoh(text);
  if (!flat.ok()) return Fail<QohInstance>(flat.error);
  ParseResult<QohInstance> out;
  out.value.emplace(BuildQohInstance(*flat.value));
  return out;
}

ParseResult<QohInstance> ParseQohInstance(std::istream& is) {
  return ParseQohInstance(ReadRest(is));
}

std::string QonToString(const QonInstance& inst) {
  std::ostringstream os;
  WriteQonInstance(inst, os);
  return os.str();
}

}  // namespace aqo
