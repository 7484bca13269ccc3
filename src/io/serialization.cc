#include "io/serialization.h"

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <istream>
#include <limits>
#include <ostream>
#include <sstream>
#include <tuple>

#include "util/fault_injection.h"

namespace aqo {

namespace {

// Reads the next non-comment, non-empty line into `line`; returns false at
// EOF.
bool NextLine(std::istream& is, std::string* line) {
  while (std::getline(is, *line)) {
    size_t start = line->find_first_not_of(" \t\r");
    if (start == std::string::npos) continue;
    if ((*line)[start] == '#') continue;
    if ((*line)[start] == 'c' && start + 1 < line->size() &&
        ((*line)[start + 1] == ' ' || (*line)[start + 1] == '\t')) {
      continue;  // DIMACS comment
    }
    return true;
  }
  return false;
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
ParseResult<T> Fail(const std::string& reason, const std::string& line) {
  return Fail<T>(reason + ": " + line);
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
  for (int i = 0; i < n; ++i) {
    os << "rel " << i << " ";
    WriteLog2(os, inst.size(i));
    os << "\n";
  }
  for (const auto& [u, v] : inst.graph().Edges()) {
    os << "edge " << u << " " << v << " ";
    WriteLog2(os, inst.selectivity(u, v));
    os << "\n";
  }
  // Only non-default access costs are emitted.
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      if (i == j) continue;
      LogDouble def = inst.size(j) * inst.selectivity(i, j);
      if (!inst.AccessCost(i, j).ApproxEquals(def, 1e-12)) {
        os << "w " << i << " " << j << " ";
        WriteLog2(os, inst.AccessCost(i, j));
        os << "\n";
      }
    }
  }
}

ParseResult<QonInstance> ParseQonInstance(std::istream& is) {
  using R = ParseResult<QonInstance>;
  R out;
  if (InjectedParseFault(&out.error)) return out;
  std::string line;
  if (!NextLine(is, &line)) return Fail<QonInstance>("missing qon header");
  std::istringstream header(line);
  std::string tag;
  int n = -1;
  header >> tag >> n;
  if (header.fail() || tag != "qon" || n < 1) {
    return Fail<QonInstance>("bad qon header", line);
  }
  if (n > kMaxSerializedRelations) {
    return Fail<QonInstance>("qon header n exceeds supported maximum", line);
  }

  std::vector<LogDouble> sizes(static_cast<size_t>(n), LogDouble::One());
  std::vector<std::tuple<int, int, double>> edges;
  std::vector<std::tuple<int, int, double>> costs;
  while (NextLine(is, &line)) {
    std::istringstream body(line);
    body >> tag;
    if (tag == "rel") {
      int i = -1;
      double lg = 0.0;
      body >> i >> lg;
      if (body.fail() || i < 0 || i >= n || !std::isfinite(lg)) {
        return Fail<QonInstance>("bad rel line", line);
      }
      sizes[static_cast<size_t>(i)] = LogDouble::FromLog2(lg);
    } else if (tag == "edge") {
      int i = -1, j = -1;
      double lg = 0.0;
      body >> i >> j >> lg;
      if (body.fail() || i < 0 || i >= n || j < 0 || j >= n || i == j ||
          !std::isfinite(lg)) {
        return Fail<QonInstance>("bad edge line", line);
      }
      if (lg > 0.0) {
        return Fail<QonInstance>("edge selectivity above 1", line);
      }
      edges.emplace_back(i, j, lg);
    } else if (tag == "w") {
      int i = -1, j = -1;
      double lg = 0.0;
      body >> i >> j >> lg;
      if (body.fail() || i < 0 || i >= n || j < 0 || j >= n || i == j ||
          !std::isfinite(lg)) {
        return Fail<QonInstance>("bad w line", line);
      }
      costs.emplace_back(i, j, lg);
    } else {
      return Fail<QonInstance>("unknown qon line", line);
    }
  }
  Graph g(n);
  for (const auto& [i, j, lg] : edges) {
    if (g.HasEdge(i, j)) {
      std::ostringstream os;
      os << "duplicate edge " << i << " " << j;
      return Fail<QonInstance>(os.str());
    }
    g.AddEdge(i, j);
  }
  QonInstance inst(std::move(g), std::move(sizes));
  for (const auto& [i, j, lg] : edges) {
    inst.SetSelectivity(i, j, LogDouble::FromLog2(lg));
  }
  for (const auto& [i, j, lg] : costs) {
    // SetAccessCost CHECK-fails outside [t_j s, t_j]; pre-validate so a
    // malformed file reports instead of aborting.
    LogDouble w = LogDouble::FromLog2(lg);
    LogDouble lo = inst.size(j) * inst.selectivity(i, j);
    LogDouble hi = inst.size(j);
    if (!(lo <= w && w <= hi)) {
      std::ostringstream os;
      os << "access cost out of [t_j s, t_j] at (" << i << "," << j << ")";
      return Fail<QonInstance>(os.str());
    }
    inst.SetAccessCost(i, j, w);
  }
  inst.Validate();
  out.value = std::move(inst);
  return out;
}

void WriteQohInstance(const QohInstance& inst, std::ostream& os) {
  int n = inst.NumRelations();
  char memory[40];
  std::snprintf(memory, sizeof(memory), "%.17g", inst.memory());
  char eta[40];
  std::snprintf(eta, sizeof(eta), "%.17g", inst.eta());
  os << "qoh " << n << " " << memory << " " << eta << "\n";
  for (int i = 0; i < n; ++i) {
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

ParseResult<QohInstance> ParseQohInstance(std::istream& is) {
  using R = ParseResult<QohInstance>;
  R out;
  if (InjectedParseFault(&out.error)) return out;
  std::string line;
  if (!NextLine(is, &line)) return Fail<QohInstance>("missing qoh header");
  std::istringstream header(line);
  std::string tag;
  int n = -1;
  double memory = 0.0, eta = 0.5;
  header >> tag >> n >> memory >> eta;
  if (header.fail() || tag != "qoh" || n < 1 || !std::isfinite(memory) ||
      memory <= 0.0 || !std::isfinite(eta) || eta <= 0.0 || eta >= 1.0) {
    return Fail<QohInstance>("bad qoh header", line);
  }
  if (n > kMaxSerializedRelations) {
    return Fail<QohInstance>("qoh header n exceeds supported maximum", line);
  }

  std::vector<LogDouble> sizes(static_cast<size_t>(n), LogDouble::One());
  std::vector<std::tuple<int, int, double>> edges;
  while (NextLine(is, &line)) {
    std::istringstream body(line);
    body >> tag;
    if (tag == "rel") {
      int i = -1;
      double lg = 0.0;
      body >> i >> lg;
      if (body.fail() || i < 0 || i >= n || !std::isfinite(lg)) {
        return Fail<QohInstance>("bad rel line", line);
      }
      sizes[static_cast<size_t>(i)] = LogDouble::FromLog2(lg);
    } else if (tag == "edge") {
      int i = -1, j = -1;
      double lg = 0.0;
      body >> i >> j >> lg;
      if (body.fail() || i < 0 || i >= n || j < 0 || j >= n || i == j ||
          !std::isfinite(lg)) {
        return Fail<QohInstance>("bad edge line", line);
      }
      if (lg > 0.0) {
        return Fail<QohInstance>("edge selectivity above 1", line);
      }
      edges.emplace_back(i, j, lg);
    } else {
      return Fail<QohInstance>("unknown qoh line", line);
    }
  }
  Graph g(n);
  for (const auto& [i, j, lg] : edges) {
    if (g.HasEdge(i, j)) {
      std::ostringstream os;
      os << "duplicate edge " << i << " " << j;
      return Fail<QohInstance>(os.str());
    }
    g.AddEdge(i, j);
  }
  QohInstance inst(std::move(g), std::move(sizes), memory, eta);
  for (const auto& [i, j, lg] : edges) {
    inst.SetSelectivity(i, j, LogDouble::FromLog2(lg));
  }
  inst.Validate();
  out.value = std::move(inst);
  return out;
}

std::string GraphToString(const Graph& g) {
  std::ostringstream os;
  WriteGraph(g, os);
  return os.str();
}

std::string QonToString(const QonInstance& inst) {
  std::ostringstream os;
  WriteQonInstance(inst, os);
  return os.str();
}

}  // namespace aqo
