// Differential test of the instance readers (io/serialization.h) against
// the std::istringstream reader they replaced (tests/reference_reader.h).
// On every input, through both entry points, the readers must make the
// reference's accept/reject decision, return its error string byte for
// byte and build an instance with the same bits in every size,
// selectivity, access cost, memory and eta. Inputs: the grammar's edge
// cases, every fixture, written gap, workload and serve-shaped instances,
// and seeded mutations of all of them.

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "graph/generators.h"
#include "io/serialization.h"
#include "qo/workloads.h"
#include "reductions/clique_to_qoh.h"
#include "reductions/clique_to_qon.h"
#include "tests/reference_reader.h"
#include "util/random.h"

namespace aqo {
namespace {

// Lines that probe the number and line grammar, each inside an otherwise
// valid instance of both families.
std::vector<std::string> EdgeCases() {
  const std::string huge(400, '1');
  const std::string tiny = "0." + std::string(400, '0') + "1";
  std::vector<std::string> fields = {
      "+1.5", "1e", "1e+", "1e-400", "-1e-400", "0x1p3", "inf", "nan",
      "-inf", "+-1", "-+1", "1e400", "-1e400", ".5", "5.", "5.e3", "-.5",
      "+.5", ".", "+", "-", "e5", ".e5", "1.5.3", "1e5e3", "1e.5", "1E5",
      "007", "-0", "0.", "4.9e-324", "2.4703282292062327e-324",
      "2.4703282292062328e-324", "1.7976931348623158e308",
      "1.7976931348623159e308", huge, tiny, tiny + "e+500", huge + "e-500",
      "1e99999999999999999999", "1e-99999999999999999999",
      "0e99999999999", "3.5 trailing", "3.5trailing", "3.5ex", "1e5x"};
  std::vector<std::string> out;
  for (const std::string& f : fields) {
    out.push_back("qon 2\nrel 0 " + f + "\nrel 1 3\nedge 0 1 -" + f + "\n");
    out.push_back("qon 2\nrel 1 2\nedge 0 1 " + f + "\nw 0 1 " + f + "\n");
    out.push_back("qoh 2 " + f + " 0.5\nrel 0 " + f + "\n");
    out.push_back("qoh 2 170 " + f + "\nedge 1 0 " + f + "\n");
  }
  for (const char* text : {
           "qon 2x\nrel 0 3.5 trailing\n",
           "qon 1\n\v\n",
           "qon 2\nrel 0 1\n\f\n",
           "qon 2\nedge 0 1 -1\n \v \n",
           "qon 2\nw 0 1 1\n\f\n",
           "qoh 2 170 0.5\n\v\n",
           "qoh 2 170 0.5\nrel 0 1\n\f\n",
           "\v\nqon 1\n",
           "# comment\nc comment\n\nqon 2\r\nrel 0 3\r\n# x\r\nedge 0 1 -1\r\n",
           "  # indented\n\tc\tx\nqon 1\n",
           "c\nqon 1\n",
           "c\rqon 1\n",
           "c\vqon 1\n",
           "\r\n\r\nqon 1\r\n",
           "qon\v2\vrel\n",
           "qon 2\nrel\v0\f3\r\n",
           "qon 2\nedge 0 1-5\n",
           "qon 2\nrel 01 3\n",
           "qon 2\nrel 0x1 3\n",
           "qon 2\nrel +0 3\n",
           "qon 2\nrel -0 3\n",
           "qon 2\nrel 1.5 2\n",
           "qon 2\nrel 2147483647 1\n",
           "qon 2\nrel 2147483648 1\n",
           "qon 2\nrel -2147483649 1\n",
           "qon 2\nrel 99999999999999999999999 1\n",
           "qon 2147483647\n",
           "qon 4097\n",
           "qoh 4097 1 0.5\n",
           "qon 3\nrel0 1\n",
           "qonx 2\n",
           "qon",
           "qon 2\nrel 0",
           "qon 2\nedge 0 1 -1\nedge 1 0 -1\n",
           "qon 2\nrel 1 10\nedge 0 1 -2\nw 0 1 20\n",
           "qon 2\nrel 1 10\nedge 0 1 -2\nw 0 1 9\n",
           "qoh 2 170 0.5\nw 0 1 1\n",
           "qoh 2 170 1\n",
           "qoh 2 1e-400 0.5\n",
           "qoh 2 +170 +.5\n",
           "qoh 2 170 0.5x\n",
       }) {
    out.push_back(text);
  }
  // Bytes the reference treats as ordinary characters.
  out.push_back(std::string("qon 2\nrel 0 1\0x\n", 16));
  out.push_back(std::string("qon\0 2\n", 7));
  out.push_back("qon 2\nrel 0 1\x80\n\xff\n");
  return out;
}

std::vector<std::string> Fixtures() {
  std::vector<std::string> out;
  for (const auto& entry : std::filesystem::recursive_directory_iterator(
           std::string(AQO_EXAMPLES_DIR) + "/fixtures")) {
    if (!entry.is_regular_file()) continue;
    std::ifstream in(entry.path(), std::ios::binary);
    std::ostringstream os;
    os << in.rdbuf();
    out.push_back(os.str());
  }
  return out;
}

std::string QonText(const QonInstance& inst) { return QonToString(inst); }

std::string QohText(const QohInstance& inst) {
  std::ostringstream os;
  WriteQohInstance(inst, os);
  return os.str();
}

// What the reductions and generators write: f_N YES and NO instances
// (w lines, log2 magnitudes in the thousands), f_H instances, random
// workloads of both families.
std::vector<std::string> WrittenInstances() {
  std::vector<std::string> out;
  Rng rng(1501);
  for (double log2_alpha : {2.0, 8.0, 1000.0}) {
    QonGapParams params{.c = 2.0 / 3.0, .d = 1.0 / 3.0,
                        .log2_alpha = log2_alpha};
    out.push_back(QonText(
        ReduceCliqueToQon(CliqueClassGraph(30, 13, 1.0, 20, &rng), params)
            .instance));
    out.push_back(
        QonText(ReduceCliqueToQon(CompleteMultipartite(30, 10), params)
                    .instance));
  }
  out.push_back(QohText(
      ReduceTwoThirdsCliqueToQoh(Graph::Complete(9), QohGapParams{})
          .instance));
  out.push_back(QohText(
      ReduceTwoThirdsCliqueToQoh(CompleteMultipartite(9, 3), QohGapParams{})
          .instance));
  for (int n : {1, 2, 3, 8, 12, 20}) {
    out.push_back(QonText(RandomQonWorkload(n, &rng)));
    out.push_back(QohText(RandomQohWorkload(n, &rng)));
  }
  return out;
}

void AppendG17(std::string* out, double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), " %.17g", v);
  *out += buf;
}

// The shape of a served cache-hit body: n=30, 217 of the 435 possible
// edges, every number printed with %.17g.
std::string ServeHotBody(bool qoh, Rng* rng) {
  constexpr int kN = 30;
  std::string out = qoh ? "qoh 30" : "qon 30";
  if (qoh) {
    AppendG17(&out, rng->UniformReal(1e3, 1e9));
    AppendG17(&out, rng->UniformReal(0.05, 0.95));
  }
  out += "\n";
  for (int i = 0; i < kN; ++i) {
    out += "rel " + std::to_string(i);
    AppendG17(&out, rng->UniformReal(1.0, 40.0));
    out += "\n";
  }
  std::vector<std::pair<int, int>> pairs;
  for (int i = 0; i < kN; ++i) {
    for (int j = i + 1; j < kN; ++j) pairs.emplace_back(i, j);
  }
  rng->Shuffle(&pairs);
  for (int e = 0; e < 217; ++e) {
    auto [u, v] = pairs[static_cast<size_t>(e)];
    out += "edge " + std::to_string(u) + " " + std::to_string(v);
    AppendG17(&out, -rng->UniformReal(0.0, 20.0));
    out += "\n";
  }
  return out;
}

std::vector<std::string> AllSeeds() {
  std::vector<std::string> seeds = EdgeCases();
  for (auto* group : {Fixtures, WrittenInstances}) {
    for (std::string& text : group()) seeds.push_back(std::move(text));
  }
  Rng rng(1502);
  for (int k = 0; k < 4; ++k) seeds.push_back(ServeHotBody(k % 2 == 1, &rng));
  return seeds;
}

// One seeded edit: a byte flip or deletion; an inserted digit, sign, one
// of ".eE+-x" or a separator (\v \f \r and newline too); or a line cut
// short.
void Mutate(std::string* text, Rng* rng) {
  static const std::string kInserts = "0123456789+-.eE+-x \t\v\f\r\n";
  size_t pos = text->empty() ? 0
                             : static_cast<size_t>(rng->UniformInt(
                                   0, static_cast<int64_t>(text->size()) - 1));
  switch (rng->UniformInt(0, 3)) {
    case 0:
      if (!text->empty()) {
        (*text)[pos] = static_cast<char>(
            (*text)[pos] ^ (1 << rng->UniformInt(0, 7)));
      }
      break;
    case 1:
      if (!text->empty()) text->erase(pos, 1);
      break;
    case 2:
      text->insert(pos, 1,
                   kInserts[static_cast<size_t>(rng->UniformInt(
                       0, static_cast<int64_t>(kInserts.size()) - 1))]);
      break;
    default: {
      size_t eol = text->find('\n', pos);
      text->erase(pos, eol == std::string::npos ? std::string::npos
                                                : eol - pos);
      break;
    }
  }
}

// The relation count on a text's first "qon" or "qoh" line, 0 if none.
long DeclaredRelations(const std::string& text) {
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) {
    std::istringstream fields(line);
    std::string tag;
    long n = 0;
    if (fields >> tag >> n && (tag == "qon" || tag == "qoh")) return n;
  }
  return 0;
}

// Runs every text through reference::CompareWithReference; reports the
// first few differences and how many there were in all.
void ExpectNoDifferences(const std::vector<std::string>& texts) {
  int differences = 0;
  for (const std::string& text : texts) {
    std::string diff = reference::CompareWithReference(text);
    if (diff.empty()) continue;
    if (++differences <= 10) {
      ADD_FAILURE() << diff << "\ninput (" << text.size()
                    << " bytes): " << text.substr(0, 200);
    }
  }
  EXPECT_EQ(differences, 0) << "of " << texts.size() << " inputs";
}

TEST(IoDifferential, GrammarEdgeCasesMatchReference) {
  ExpectNoDifferences(EdgeCases());
}

TEST(IoDifferential, FixturesMatchReference) {
  std::vector<std::string> fixtures = Fixtures();
  ASSERT_GE(fixtures.size(), 10u);
  ExpectNoDifferences(fixtures);
}

TEST(IoDifferential, WrittenInstancesMatchReference) {
  std::vector<std::string> texts = WrittenInstances();
  Rng rng(1503);
  for (int k = 0; k < 8; ++k) texts.push_back(ServeHotBody(k % 2 == 1, &rng));
  for (const std::string& text : texts) {
    ASSERT_TRUE(ParseQonInstance(text).ok() || ParseQohInstance(text).ok())
        << text.substr(0, 200);
  }
  ExpectNoDifferences(texts);
}

TEST(IoDifferential, SeededMutationsMatchReference) {
  // A header past 999 relations is left to the edge cases: building an
  // n=3000 instance's n^2 matrices takes 144 MB and most of the run, and
  // mutations that grow a header that far are drawn again.
  std::vector<std::string> seeds = AllSeeds();
  std::erase_if(seeds, [](const std::string& text) {
    return DeclaredRelations(text) > 999;
  });
  constexpr int kMutations = 24000;
  std::vector<std::string> texts;
  texts.reserve(kMutations);
  Rng rng(1504);
  for (int k = 0; k < kMutations; ++k) {
    std::string text = seeds[static_cast<size_t>(k) % seeds.size()];
    for (int edits = static_cast<int>(rng.UniformInt(1, 3)); edits > 0;
         --edits) {
      Mutate(&text, &rng);
    }
    if (DeclaredRelations(text) > 999) {
      --k;
      continue;
    }
    texts.push_back(std::move(text));
  }
  ExpectNoDifferences(texts);
}

}  // namespace
}  // namespace aqo
