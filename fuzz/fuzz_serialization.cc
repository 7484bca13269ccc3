// Fuzz target: io/serialization.h Parse* readers. Malformed text must
// come back as a ParseResult error (never a crash or unbounded
// allocation — the kMaxSerializedRelations guard); accepted values must
// survive a write/reparse round trip, and a reparsed instance must keep
// every log2 bit of its sizes, selectivities, access costs, memory and
// eta, and so its fingerprint. The instance readers must also
// agree, through both entry points, with the iostreams reader they
// replaced (tests/reference_reader.h): same decision, same error string,
// same instance bits; and every accepted instance must hold the invariants
// of tests/instance_oracle.h.

#include <bit>
#include <cstdint>
#include <sstream>
#include <string>

#include "io/serialization.h"
#include "qo/fingerprint.h"
#include "tests/instance_oracle.h"
#include "tests/reference_reader.h"
#include "util/check.h"

namespace {

// Anything accepted must hold the instance invariants (instance_oracle.h);
// graphs and formulas have none beyond what their types enforce.
std::string Violation(const aqo::QonInstance& inst) {
  return aqo::QonInvariantViolation(inst);
}
std::string Violation(const aqo::QohInstance& inst) {
  return aqo::QohInvariantViolation(inst);
}
std::string Violation(const aqo::Graph&) { return ""; }
std::string Violation(const aqo::CnfFormula&) { return ""; }

bool SameBits(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

// `b` is the reparse of what the writer wrote for `a`.
void CheckSameJoinGraphBits(const aqo::JoinGraph& a, const aqo::JoinGraph& b) {
  AQO_CHECK(a.graph() == b.graph());
  int n = a.NumRelations();
  for (int i = 0; i < n; ++i) {
    AQO_CHECK(SameBits(a.size(i).Log2(), b.size(i).Log2())) << "size " << i;
    for (int j = 0; j < n; ++j) {
      AQO_CHECK(SameBits(a.selectivity(i, j).Log2(),
                         b.selectivity(i, j).Log2()))
          << "selectivity " << i << " " << j;
    }
  }
}
void CheckSameBits(const aqo::QonInstance& a, const aqo::QonInstance& b) {
  CheckSameJoinGraphBits(a, b);
  for (int k = 0; k < a.NumRelations(); ++k) {
    for (int j = 0; j < a.NumRelations(); ++j) {
      AQO_CHECK(SameBits(a.AccessCost(k, j).Log2(), b.AccessCost(k, j).Log2()))
          << "access cost " << k << " " << j;
    }
  }
  AQO_CHECK(aqo::LabelQon(a).fingerprint == aqo::LabelQon(b).fingerprint);
}
void CheckSameBits(const aqo::QohInstance& a, const aqo::QohInstance& b) {
  CheckSameJoinGraphBits(a, b);
  AQO_CHECK(SameBits(a.memory(), b.memory()));
  AQO_CHECK(SameBits(a.eta(), b.eta()));
  AQO_CHECK(aqo::LabelQoh(a).fingerprint == aqo::LabelQoh(b).fingerprint);
}
void CheckSameBits(const aqo::Graph&, const aqo::Graph&) {}
void CheckSameBits(const aqo::CnfFormula&, const aqo::CnfFormula&) {}

template <typename T, typename ParseFn, typename WriteFn>
void Check(const std::string& text, ParseFn parse, WriteFn write) {
  std::istringstream is(text);
  aqo::ParseResult<T> parsed = parse(is);
  if (!parsed.ok()) {
    AQO_CHECK(!parsed.error.empty());
    return;
  }
  std::string violation = Violation(*parsed.value);
  AQO_CHECK(violation.empty()) << "accepted instance breaks an invariant: "
                               << violation;
  // Anything we accept must round-trip through our own writer.
  std::ostringstream os;
  write(*parsed.value, os);
  std::istringstream is2(os.str());
  aqo::ParseResult<T> reparsed = parse(is2);
  AQO_CHECK(reparsed.ok()) << "round-trip reparse failed: " << reparsed.error;
  CheckSameBits(*parsed.value, *reparsed.value);
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  constexpr size_t kMaxInput = 1 << 14;
  if (size > kMaxInput) size = kMaxInput;
  std::string text(reinterpret_cast<const char*>(data), size);

  Check<aqo::Graph>(text, aqo::ParseGraph,
                    [](const aqo::Graph& g, std::ostream& os) {
                      aqo::WriteGraph(g, os);
                    });
  Check<aqo::CnfFormula>(text, aqo::ParseDimacs,
                         [](const aqo::CnfFormula& f, std::ostream& os) {
                           aqo::WriteDimacs(f, os);
                         });
  Check<aqo::QonInstance>(
      text, [](std::istream& is) { return aqo::ParseQonInstance(is); },
      [](const aqo::QonInstance& inst, std::ostream& os) {
        aqo::WriteQonInstance(inst, os);
      });
  Check<aqo::QohInstance>(
      text, [](std::istream& is) { return aqo::ParseQohInstance(is); },
      [](const aqo::QohInstance& inst, std::ostream& os) {
        aqo::WriteQohInstance(inst, os);
      });
  std::string diff = aqo::reference::CompareWithReference(text);
  AQO_CHECK(diff.empty()) << "differs from the reference reader: " << diff;
  return 0;
}
