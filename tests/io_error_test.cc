// Error-path coverage for the recoverable readers (io/serialization.h):
// every malformed shape returns a structured ParseResult error — never an
// abort — and the valid fixtures under examples/fixtures/ round-trip
// bit-identically.

#include "io/serialization.h"

#include <cmath>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "util/fault_injection.h"

namespace aqo {
namespace {

std::string FixturePath(const std::string& name) {
  return std::string(AQO_EXAMPLES_DIR) + "/fixtures/" + name;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.is_open()) << "missing fixture " << path;
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

template <typename T>
ParseResult<T> ParseString(ParseResult<T> (*parse)(std::istream&),
                           const std::string& text) {
  std::istringstream is(text);
  return parse(is);
}

template <typename T>
void ExpectError(ParseResult<T> (*parse)(std::istream&),
                 const std::string& text, const std::string& reason) {
  ParseResult<T> r = ParseString(parse, text);
  EXPECT_FALSE(r.ok()) << "accepted malformed input: " << text;
  EXPECT_NE(r.error.find(reason), std::string::npos)
      << "error was: " << r.error << " (wanted substring: " << reason << ")";
}

// ---------------------------------------------------------------------------
// Graph reader.

TEST(GraphParse, MalformedInputsReturnStructuredErrors) {
  ExpectError(&ParseGraph, "", "missing graph header");
  ExpectError(&ParseGraph, "grph 2 0\n", "bad graph header");
  ExpectError(&ParseGraph, "graph 2\n", "bad graph header");
  ExpectError(&ParseGraph, "graph -1 0\n", "bad graph header");
  ExpectError(&ParseGraph, "graph 2 1\n", "truncated graph edge list");
  ExpectError(&ParseGraph, "graph 2 1\nf 0 1\n", "bad edge line");
  ExpectError(&ParseGraph, "graph 2 1\ne 0 x\n", "bad edge line");
  ExpectError(&ParseGraph, "graph 2 1\ne 0 5\n", "edge vertex out of range");
  ExpectError(&ParseGraph, "graph 2 1\ne 1 1\n", "self-loop edge");
  ExpectError(&ParseGraph, "graph 3 2\ne 0 1\ne 1 0\n", "duplicate edge");
}

TEST(GraphParse, FixturesRejectWithReasons) {
  for (const auto& [file, reason] :
       {std::pair<const char*, const char*>{"graph_truncated.txt",
                                            "truncated graph edge list"},
        {"graph_bad_edge.txt", "edge vertex out of range"},
        {"graph_duplicate_edge.txt", "duplicate edge"}}) {
    ExpectError(&ParseGraph, ReadFile(FixturePath(file)), reason);
  }
}

TEST(GraphParse, ValidFixtureRoundTrips) {
  ParseResult<Graph> r =
      ParseString(&ParseGraph, ReadFile(FixturePath("graph_valid.txt")));
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_EQ(r.value->NumVertices(), 4);
  EXPECT_EQ(r.value->NumEdges(), 5);
  // Parse(Write(g)) == g, and the serialized bytes are a fixed point.
  std::ostringstream os;
  WriteGraph(*r.value, os);
  std::string text = os.str();
  ParseResult<Graph> again = ParseString(&ParseGraph, text);
  ASSERT_TRUE(again.ok()) << again.error;
  EXPECT_EQ(*again.value, *r.value);
  std::ostringstream os2;
  WriteGraph(*again.value, os2);
  EXPECT_EQ(os2.str(), text);
}

// ---------------------------------------------------------------------------
// DIMACS reader.

TEST(DimacsParse, MalformedInputsReturnStructuredErrors) {
  ExpectError(&ParseDimacs, "", "missing DIMACS header");
  ExpectError(&ParseDimacs, "p sat 2 1\n1 0\n", "bad DIMACS header");
  ExpectError(&ParseDimacs, "p cnf 2 2\n1 -2 0\n", "truncated DIMACS body");
  ExpectError(&ParseDimacs, "p cnf 2 2\n1 0\n", "truncated DIMACS body");
  ExpectError(&ParseDimacs, "p cnf 2 1\n0\n", "empty DIMACS clause");
  ExpectError(&ParseDimacs, "p cnf 2 1\n1 -9 0\n",
              "DIMACS literal out of range");
  ExpectError(&ParseDimacs, "p cnf 2 1\n1 x 0\n", "bad DIMACS body line");
}

TEST(DimacsParse, TruncatedFixtureRejects) {
  ExpectError(&ParseDimacs, ReadFile(FixturePath("dimacs_truncated.txt")),
              "truncated DIMACS body");
}

// ---------------------------------------------------------------------------
// QO_N reader.

TEST(QonParse, MalformedInputsReturnStructuredErrors) {
  ExpectError(&ParseQonInstance, "", "missing qon header");
  ExpectError(&ParseQonInstance, "qno 2\n", "bad qon header");
  ExpectError(&ParseQonInstance, "qon 0\n", "bad qon header");
  ExpectError(&ParseQonInstance, "qon 2\nrel 7 3.0\n", "bad rel line");
  ExpectError(&ParseQonInstance, "qon 2\nrel 0 nanana\n", "bad rel line");
  ExpectError(&ParseQonInstance, "qon 2\nedge 0 0 -1\n", "bad edge line");
  ExpectError(&ParseQonInstance, "qon 2\nedge 0 9 -1\n", "bad edge line");
  ExpectError(&ParseQonInstance, "qon 2\nedge 0 1 2.0\n",
              "edge selectivity above 1");
  ExpectError(&ParseQonInstance, "qon 2\nedge 0 1 -1\nedge 1 0 -1\n",
              "duplicate edge");
  ExpectError(&ParseQonInstance, "qon 2\nw 0 0 1\n", "bad w line");
  ExpectError(&ParseQonInstance,
              "qon 2\nrel 1 10\nedge 0 1 -2\nw 0 1 20\n",
              "access cost out of");
  ExpectError(&ParseQonInstance, "qon 2\nbogus 1 2 3\n", "unknown qon line");
}

TEST(QonParse, FixturesRejectWithReasons) {
  ExpectError(&ParseQonInstance,
              ReadFile(FixturePath("qon_truncated_header.txt")),
              "missing qon header");
  ExpectError(&ParseQonInstance, ReadFile(FixturePath("qon_unknown_tag.txt")),
              "unknown qon line");
}

TEST(QonParse, ValidFixtureRoundTrips) {
  ParseResult<QonInstance> r = ParseString(
      &ParseQonInstance, ReadFile(FixturePath("qon_valid.txt")));
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_EQ(r.value->NumRelations(), 3);
  std::string text = QonToString(*r.value);
  ParseResult<QonInstance> again = ParseString(&ParseQonInstance, text);
  ASSERT_TRUE(again.ok()) << again.error;
  EXPECT_EQ(QonToString(*again.value), text);
}

// ---------------------------------------------------------------------------
// QO_H reader.

TEST(QohParse, MalformedInputsReturnStructuredErrors) {
  ExpectError(&ParseQohInstance, "", "missing qoh header");
  ExpectError(&ParseQohInstance, "qoh 2\n", "bad qoh header");  // no memory/eta
  ExpectError(&ParseQohInstance, "qoh 2 -5 0.5\n", "bad qoh header");
  ExpectError(&ParseQohInstance, "qoh 2 170 1.5\n", "bad qoh header");
  ExpectError(&ParseQohInstance, "qoh 2 170 0.5\nrel 7 3\n", "bad rel line");
  ExpectError(&ParseQohInstance, "qoh 2 170 0.5\nedge 0 0 -1\n",
              "bad edge line");
  ExpectError(&ParseQohInstance, "qoh 2 170 0.5\nedge 0 1 1.0\n",
              "edge selectivity above 1");
  ExpectError(&ParseQohInstance,
              "qoh 2 170 0.5\nedge 0 1 -1\nedge 1 0 -1\n", "duplicate edge");
  ExpectError(&ParseQohInstance, "qoh 2 170 0.5\nw 0 1 1\n",
              "unknown qoh line");
}

TEST(QohParse, FixturesBehave) {
  ExpectError(&ParseQohInstance, ReadFile(FixturePath("qoh_bad_header.txt")),
              "bad qoh header");
  ParseResult<QohInstance> r = ParseString(
      &ParseQohInstance, ReadFile(FixturePath("qoh_valid.txt")));
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_EQ(r.value->NumRelations(), 3);
  EXPECT_EQ(r.value->memory(), 170.0);
  EXPECT_EQ(r.value->eta(), 0.5);
  std::ostringstream os;
  WriteQohInstance(*r.value, os);
  std::string text = os.str();
  std::istringstream is(text);
  ParseResult<QohInstance> again = ParseQohInstance(is);
  ASSERT_TRUE(again.ok()) << again.error;
  std::ostringstream os2;
  WriteQohInstance(*again.value, os2);
  EXPECT_EQ(os2.str(), text);
}

// ---------------------------------------------------------------------------
// The instance grammar (io/serialization.h) as the std::istringstream
// reader had it, pinned by name; tests/io_differential_test.cc compares
// against that reader itself.

// log2 of relation 0's size in `qon 1\nrel 0 <field>`, or the error.
std::string RelField(const std::string& field, double* log2_size) {
  ParseResult<QonInstance> r = ParseQonInstance("qon 1\nrel 0 " + field);
  if (r.ok()) *log2_size = r.value->size(0).Log2();
  return r.error;
}

TEST(InstanceGrammar, NumbersReadAsIostreamsReadThem) {
  double lg = -1.0;
  EXPECT_EQ(RelField("+1.5", &lg), "");  // a leading '+' is taken
  EXPECT_EQ(lg, 1.5);
  EXPECT_EQ(RelField("1e-400", &lg), "");  // underflow reads as zero
  EXPECT_EQ(lg, 0.0);
  EXPECT_FALSE(std::signbit(lg));
  EXPECT_EQ(RelField("-1e-400", &lg), "");
  EXPECT_TRUE(std::signbit(lg));
  EXPECT_EQ(RelField("0x1p3", &lg), "");  // "0", then "x1p3" is ignored
  EXPECT_EQ(lg, 0.0);
  EXPECT_EQ(RelField("3.5 trailing", &lg), "");
  EXPECT_EQ(lg, 3.5);
  EXPECT_EQ(RelField("5.e1", &lg), "");
  EXPECT_EQ(lg, 50.0);
  for (const char* field : {"1e", "1e+", "inf", "nan", "-inf", "+-1", ".",
                            "1e400", "x"}) {
    EXPECT_EQ(RelField(field, &lg), "bad rel line: rel 0 " + std::string(field))
        << field;
  }
}

TEST(InstanceGrammar, LinesReadAsIostreamsReadThem) {
  ParseResult<QonInstance> r = ParseQonInstance(
      "# comment\n\nc comment\nqon 2x\r\nrel 0 3.5 trailing\r\n"
      "  # indented\r\nedge 0 1 -1\r\n");
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_EQ(r.value->NumRelations(), 2);
  EXPECT_EQ(r.value->size(0).Log2(), 3.5);
  EXPECT_EQ(r.value->selectivity(0, 1).Log2(), -1.0);

  // A line of separators alone reads no tag, and the previous one stands.
  EXPECT_EQ(ParseQonInstance("qon 2\n\v\n").error, "unknown qon line: \v");
  EXPECT_EQ(ParseQonInstance("qon 2\nrel 0 1\n\f\n").error,
            "bad rel line: \f");
  EXPECT_EQ(ParseQohInstance("qoh 2 170 0.5\n\v\n").error,
            "unknown qoh line: \v");
  // "c" needs a space or tab after it to start a comment.
  EXPECT_EQ(ParseQonInstance("qon 2\nc\vx\n").error,
            "unknown qon line: c\vx");
  EXPECT_EQ(ParseQonInstance("qonx 2\n").error, "bad qon header: qonx 2");
}

// ---------------------------------------------------------------------------
// The "io.parse" fault site: an armed k-th parse fails with an injected
// error; everything before and after parses normally.

TEST(IoFaultInjection, ArmedParseFailsOnceThenRecovers) {
  const std::string good = ReadFile(FixturePath("graph_valid.txt"));
  ASSERT_TRUE(ParseString(&ParseGraph, good).ok());

  // The io.parse ordinal counter is process-wide, so arm the wildcard:
  // exactly the next parse fails, with an injected-fault reason.
  FaultInjector::Get().Arm("io.parse", FaultInjector::kAnyOrdinal,
                           /*times=*/1);
  ParseResult<Graph> injected = ParseString(&ParseGraph, good);
  EXPECT_FALSE(injected.ok());
  EXPECT_NE(injected.error.find("injected fault at io.parse"),
            std::string::npos)
      << injected.error;

  // The shot is spent: the same input parses cleanly again, both while
  // the (exhausted) spec is still armed and after disarming.
  EXPECT_TRUE(ParseString(&ParseGraph, good).ok());
  FaultInjector::Get().Disarm();
  EXPECT_TRUE(ParseString(&ParseGraph, good).ok());
}

// Every instance-reader call takes exactly one io.parse ordinal, whether
// it enters through the std::string_view or the std::istream overload.
TEST(IoFaultInjection, InstanceReadersTakeOneOrdinalPerCall) {
  const std::string qon = ReadFile(FixturePath("qon_valid.txt"));
  const std::string qoh = ReadFile(FixturePath("qoh_valid.txt"));
  auto qon_stream = [&] { return ParseString(&ParseQonInstance, qon).error; };
  auto qon_view = [&] { return ParseQonInstance(qon).error; };
  auto qoh_stream = [&] { return ParseString(&ParseQohInstance, qoh).error; };
  auto qoh_view = [&] { return ParseQohInstance(qoh).error; };

  // One wildcard shot fails exactly the next call, through any overload.
  const std::string kInjected = "injected fault at io.parse#";
  for (const auto& call : std::vector<std::function<std::string()>>{
           qon_stream, qon_view, qoh_stream, qoh_view}) {
    FaultInjector::Get().Arm("io.parse", FaultInjector::kAnyOrdinal, 1);
    EXPECT_EQ(call().rfind(kInjected, 0), 0u);
    EXPECT_EQ(call(), "");
    FaultInjector::Get().Disarm();
  }

  // Ordinals count calls: learn the next one, then hit the call two on.
  FaultInjector::Get().Arm("io.parse", FaultInjector::kAnyOrdinal, 1);
  std::string first = qon_stream();
  FaultInjector::Get().Disarm();
  ASSERT_EQ(first.rfind(kInjected, 0), 0u) << first;
  uint64_t ordinal = std::stoull(first.substr(kInjected.size()));
  FaultInjector::Get().Arm("io.parse", ordinal + 2, 1);
  EXPECT_EQ(qoh_stream(), "");
  EXPECT_EQ(qon_view(), kInjected + std::to_string(ordinal + 2));
  EXPECT_EQ(qoh_view(), "");
  FaultInjector::Get().Disarm();
}

}  // namespace
}  // namespace aqo
