#include "tests/reference_reader.h"

#include <bit>
#include <cmath>
#include <cstdint>
#include <istream>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "io/serialization.h"
#include "tests/instance_oracle.h"

namespace aqo::reference {

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

ParseResult<QonInstance> ParseQonInstance(std::istream& is) {
  using R = ParseResult<QonInstance>;
  R out;
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
      if (body.fail() || i < 0 || i >= n ||
          !(std::abs(lg) <= kMaxSerializedLog2)) {
        return Fail<QonInstance>("bad rel line", line);
      }
      sizes[static_cast<size_t>(i)] = LogDouble::FromLog2(lg);
    } else if (tag == "edge") {
      int i = -1, j = -1;
      double lg = 0.0;
      body >> i >> j >> lg;
      if (body.fail() || i < 0 || i >= n || j < 0 || j >= n || i == j ||
          !(std::abs(lg) <= kMaxSerializedLog2)) {
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
          !(std::abs(lg) <= kMaxSerializedLog2)) {
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
  std::string violation = QonInvariantViolation(inst);
  AQO_CHECK(violation.empty()) << violation;
  out.value = std::move(inst);
  return out;
}

ParseResult<QohInstance> ParseQohInstance(std::istream& is) {
  using R = ParseResult<QohInstance>;
  R out;
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
      if (body.fail() || i < 0 || i >= n ||
          !(std::abs(lg) <= kMaxSerializedLog2)) {
        return Fail<QohInstance>("bad rel line", line);
      }
      sizes[static_cast<size_t>(i)] = LogDouble::FromLog2(lg);
    } else if (tag == "edge") {
      int i = -1, j = -1;
      double lg = 0.0;
      body >> i >> j >> lg;
      if (body.fail() || i < 0 || i >= n || j < 0 || j >= n || i == j ||
          !(std::abs(lg) <= kMaxSerializedLog2)) {
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
  std::string violation = QohInvariantViolation(inst);
  AQO_CHECK(violation.empty()) << violation;
  out.value = std::move(inst);
  return out;
}

namespace {

std::string Bits(LogDouble v) {
  return std::to_string(std::bit_cast<uint64_t>(v.Log2()));
}

// The first size or selectivity whose bits differ.
template <typename Instance>
std::string FieldDiff(const Instance& a, const Instance& b) {
  if (!(a.graph() == b.graph())) return "query graphs differ";
  int n = a.NumRelations();
  for (int i = 0; i < n; ++i) {
    if (Bits(a.size(i)) != Bits(b.size(i))) {
      return "size " + std::to_string(i) + ": " + Bits(a.size(i)) + " vs " +
             Bits(b.size(i));
    }
    for (int j = 0; j < n; ++j) {
      if (Bits(a.selectivity(i, j)) != Bits(b.selectivity(i, j))) {
        return "selectivity " + std::to_string(i) + "," + std::to_string(j);
      }
    }
  }
  return "";
}

std::string InstanceDiff(const QonInstance& a, const QonInstance& b) {
  std::string diff = FieldDiff(a, b);
  for (int i = 0; diff.empty() && i < a.NumRelations(); ++i) {
    for (int j = 0; j < a.NumRelations(); ++j) {
      if (Bits(a.AccessCost(i, j)) != Bits(b.AccessCost(i, j))) {
        return "access cost " + std::to_string(i) + "," + std::to_string(j);
      }
    }
  }
  return diff;
}

std::string InstanceDiff(const QohInstance& a, const QohInstance& b) {
  std::string diff = FieldDiff(a, b);
  if (diff.empty() && std::bit_cast<uint64_t>(a.memory()) !=
                          std::bit_cast<uint64_t>(b.memory())) {
    diff = "memory";
  }
  if (diff.empty() &&
      std::bit_cast<uint64_t>(a.eta()) != std::bit_cast<uint64_t>(b.eta())) {
    diff = "eta";
  }
  return diff;
}

template <typename T>
std::string ResultDiff(const std::string& reader, const ParseResult<T>& got,
                       const ParseResult<T>& want) {
  std::string diff;
  if (got.ok() != want.ok() || got.error != want.error) {
    diff = "got '" + (got.ok() ? std::string("ok") : got.error) +
           "', reference '" + (want.ok() ? std::string("ok") : want.error) +
           "'";
  } else if (got.ok()) {
    diff = InstanceDiff(*got.value, *want.value);
  }
  return diff.empty() ? diff : reader + ": " + diff;
}

template <typename T>
std::string Compare(std::string_view text, const char* family,
                    ParseResult<T> (*view)(std::string_view),
                    ParseResult<T> (*stream)(std::istream&),
                    ParseResult<T> (*reference)(std::istream&)) {
  std::istringstream want_in{std::string(text)};
  ParseResult<T> want = reference(want_in);
  std::istringstream got_in{std::string(text)};
  std::string diff =
      ResultDiff(std::string(family) + " istream", stream(got_in), want);
  if (!diff.empty()) return diff;
  return ResultDiff(std::string(family) + " string_view", view(text), want);
}

}  // namespace

std::string CompareWithReference(std::string_view text) {
  std::string diff = Compare<QonInstance>(
      text, "qon", &aqo::ParseQonInstance, &aqo::ParseQonInstance,
      &ParseQonInstance);
  if (!diff.empty()) return diff;
  return Compare<QohInstance>(text, "qoh", &aqo::ParseQohInstance,
                              &aqo::ParseQohInstance, &ParseQohInstance);
}

}  // namespace aqo::reference
