#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <sstream>

#include "util/bits.hpp"
#include "util/fasta.hpp"
#include "util/json.hpp"
#include "util/parallel.hpp"
#include "util/random.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"
#include "util/types.hpp"

namespace semilocal {
namespace {

TEST(Bits, Popcount) {
  EXPECT_EQ(popcount(Word{0}), 0);
  EXPECT_EQ(popcount(~Word{0}), 64);
  EXPECT_EQ(popcount(Word{0b1011}), 3);
  const std::vector<Word> words = {~Word{0}, 0, 0b111};
  EXPECT_EQ(popcount(std::span<const Word>{words}), 67);
}

TEST(Bits, CeilDivAndRoundUp) {
  EXPECT_EQ(ceil_div(0, 64), 0);
  EXPECT_EQ(ceil_div(1, 64), 1);
  EXPECT_EQ(ceil_div(64, 64), 1);
  EXPECT_EQ(ceil_div(65, 64), 2);
  EXPECT_EQ(round_up(65, 64), 128);
  EXPECT_EQ(round_up(64, 64), 64);
}

TEST(Bits, LowMask) {
  EXPECT_EQ(low_mask(0), Word{0});
  EXPECT_EQ(low_mask(1), Word{1});
  EXPECT_EQ(low_mask(64), ~Word{0});
  EXPECT_EQ(low_mask(8), Word{0xFF});
}

TEST(Bits, SelectIf) {
  EXPECT_EQ((select_if<std::uint32_t>(7, 9, 0)), 7u);
  EXPECT_EQ((select_if<std::uint32_t>(7, 9, 1)), 9u);
  EXPECT_EQ((select_if<std::uint64_t>(~0ULL, 3, 1)), 3u);
}

TEST(Types, SequenceRoundTrip) {
  const auto seq = to_sequence("hello");
  EXPECT_EQ(seq.size(), 5u);
  EXPECT_EQ(to_string(seq), "hello");
}

TEST(Random, RoundedNormalProportionOfZeros) {
  // For sigma = 1, P(symbol == 0) = P(|N(0,1)| < 1) ~ 0.683 (paper Sec. 5).
  const auto seq = rounded_normal_sequence(200000, 1.0, 99);
  Index zeros = 0;
  for (const Symbol s : seq) zeros += (s == 0);
  const double frac = static_cast<double>(zeros) / static_cast<double>(seq.size());
  EXPECT_NEAR(frac, 0.683, 0.01);
}

TEST(Random, RoundedNormalDeterministicPerSeed) {
  EXPECT_EQ(rounded_normal_sequence(1000, 2.0, 5), rounded_normal_sequence(1000, 2.0, 5));
  EXPECT_NE(rounded_normal_sequence(1000, 2.0, 5), rounded_normal_sequence(1000, 2.0, 6));
}

TEST(Random, UniformStaysInAlphabet) {
  const auto seq = uniform_sequence(5000, 4, 17);
  for (const Symbol s : seq) {
    EXPECT_GE(s, 0);
    EXPECT_LT(s, 4);
  }
}

TEST(Random, BinaryDensity) {
  const auto seq = binary_sequence(100000, 3, 0.25);
  Index ones = 0;
  for (const Symbol s : seq) {
    ASSERT_TRUE(s == 0 || s == 1);
    ones += s;
  }
  EXPECT_NEAR(static_cast<double>(ones) / 100000.0, 0.25, 0.01);
}

TEST(Random, PermutationVectorIsPermutation) {
  const auto v = random_permutation_vector(500, 9);
  std::vector<bool> seen(500, false);
  for (const auto x : v) {
    ASSERT_GE(x, 0);
    ASSERT_LT(x, 500);
    EXPECT_FALSE(seen[static_cast<std::size_t>(x)]);
    seen[static_cast<std::size_t>(x)] = true;
  }
}

TEST(Random, MutateKeepsSimilarity) {
  const auto base = uniform_sequence(2000, 4, 21);
  const auto mut = mutate_sequence(base, 0.05, 10, 4, 22);
  // Rough identity check: length close, most positions preserved.
  EXPECT_NEAR(static_cast<double>(mut.size()), 2000.0, 30.0);
  Index same = 0;
  const std::size_t overlap = std::min(base.size(), mut.size());
  for (std::size_t i = 0; i < overlap; ++i) same += (base[i] == mut[i]);
  EXPECT_GT(same, static_cast<Index>(overlap / 2));
}

TEST(Random, InvalidArgumentsThrow) {
  EXPECT_THROW(rounded_normal_sequence(-1, 1.0, 0), std::invalid_argument);
  EXPECT_THROW(uniform_sequence(10, 0, 0), std::invalid_argument);
  EXPECT_THROW(mutate_sequence(Sequence{1, 2}, 0.1, 0, 1, 0), std::invalid_argument);
}

TEST(Fasta, ParseAndWriteRoundTrip) {
  const std::string text = ">seq1 first record\nACGT\nACG\n>seq2\nTTTT\n";
  std::istringstream in(text);
  const auto records = read_fasta(in);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].id, "seq1");
  EXPECT_EQ(records[0].description, "first record");
  EXPECT_EQ(to_string(records[0].residues), "ACGTACG");
  EXPECT_EQ(records[1].id, "seq2");
  EXPECT_EQ(records[1].length(), 4);

  std::ostringstream out;
  write_fasta(out, records, 4);
  std::istringstream in2(out.str());
  const auto round = read_fasta(in2);
  ASSERT_EQ(round.size(), 2u);
  EXPECT_EQ(round[0].residues, records[0].residues);
  EXPECT_EQ(round[1].residues, records[1].residues);
}

TEST(Fasta, RejectsResiduesBeforeHeader) {
  std::istringstream in("ACGT\n>late\nAC\n");
  EXPECT_THROW(read_fasta(in), std::runtime_error);
}

TEST(Fasta, GenerateGenomeHasRequestedLengthAndComposition) {
  GenomeModel model;
  model.length = 50000;
  model.gc_content = 0.6;
  const auto genome = generate_genome(model, 7);
  EXPECT_EQ(genome.length(), 50000);
  Index gc = 0;
  for (const Symbol s : genome.residues) gc += (s == 'G' || s == 'C');
  EXPECT_NEAR(static_cast<double>(gc) / 50000.0, 0.6, 0.05);
}

TEST(Fasta, EvolvedGenomePairIsSimilarButNotIdentical) {
  GenomeModel model;
  model.length = 20000;
  MutationModel mut;
  const auto [a, b] = generate_genome_pair(model, mut, 31);
  EXPECT_NE(a.residues, b.residues);
  EXPECT_NEAR(static_cast<double>(a.length()), 20000.0, 2000.0);
  EXPECT_NEAR(static_cast<double>(b.length()), 20000.0, 2000.0);
}

TEST(Fasta, PackDnaMapsToDenseAlphabet) {
  const auto packed = pack_dna(to_sequence("ACGTacgtN"));
  const Sequence expected = {0, 1, 2, 3, 0, 1, 2, 3, 4};
  EXPECT_EQ(packed, expected);
}

TEST(Parallel, ThreadScopeRestores) {
  const int before = max_threads();
  {
    ThreadScope scope(2);
    EXPECT_EQ(max_threads(), 2);
  }
  EXPECT_EQ(max_threads(), before);
  EXPECT_THROW(ThreadScope(-1), std::invalid_argument);
}

TEST(Timer, MeasuresNonNegativeDurations) {
  Timer t;
  volatile double sink = 0;
  for (int i = 0; i < 10000; ++i) sink = sink + std::sqrt(static_cast<double>(i));
  EXPECT_GE(t.seconds(), 0.0);
  (void)sink;
}

TEST(Timer, StatsComputeSummaries) {
  const auto stats = TimingStats::from({3.0, 1.0, 2.0, 4.0});
  EXPECT_DOUBLE_EQ(stats.min, 1.0);
  EXPECT_DOUBLE_EQ(stats.max, 4.0);
  EXPECT_DOUBLE_EQ(stats.mean, 2.5);
  EXPECT_DOUBLE_EQ(stats.median, 2.5);
  EXPECT_EQ(stats.samples, 4);
  EXPECT_NEAR(stats.stddev, 1.29099, 1e-4);
}

TEST(Table, PrintsAlignedAndWritesRows) {
  Table t({"algo", "n", "seconds"});
  t.row().cell("iterative").cell(1000LL).cell(0.5, 2);
  t.row().cell("hybrid").cell(1000LL).cell(0.25, 2);
  EXPECT_EQ(t.rows(), 2u);
  std::ostringstream out;
  t.print(out, "demo");
  const std::string rendered = out.str();
  EXPECT_NE(rendered.find("demo"), std::string::npos);
  EXPECT_NE(rendered.find("iterative"), std::string::npos);
  EXPECT_NE(rendered.find("0.25"), std::string::npos);
}

TEST(Table, ThrowsOnOverfullRow) {
  Table t({"a"});
  t.row().cell("x");
  EXPECT_THROW(t.cell("y"), std::logic_error);
}

TEST(Json, EscapesQuotesBackslashesAndControlBytes) {
  Json json;
  json.begin_object().field(std::string("k\"ey"), std::string("a\"b\\c\n\x01\x1f\x7f") + "\xc3\xa9");
  json.end_object();
  EXPECT_EQ(json.str(), "{\"k\\\"ey\": \"a\\\"b\\\\c\\u000a\\u0001\\u001f\x7f\xc3\xa9\"}");
  Json nul;
  nul.value(std::string_view("\0x", 2));
  EXPECT_EQ(nul.str(), "\"\\u0000x\"");
}

TEST(Json, IntegersPrintExactlyAtTheirLimits) {
  Json json;
  json.begin_array()
      .value(std::numeric_limits<std::int64_t>::min())
      .value(std::numeric_limits<std::uint64_t>::max())
      .value(0)
      .value(-1)
      .value(true)
      .value(false)
      .end_array();
  EXPECT_EQ(json.str(), "[-9223372036854775808, 18446744073709551615, 0, -1, true, false]");
}

TEST(Json, DoublesRoundTripAndNonFiniteIsNull) {
  Json json;
  json.begin_array()
      .value(0.1)
      .value(2.5)
      .value(10.0)
      .value(1e21)
      .value(1.0 / 3.0)
      .value(std::numeric_limits<double>::quiet_NaN())
      .value(std::numeric_limits<double>::infinity())
      .end_array();
  EXPECT_EQ(json.str(), "[0.1, 2.5, 10, 1e+21, 0.3333333333333333, null, null]");
}

TEST(Json, EmptyAndNestedContainers) {
  Json json;
  json.begin_object()
      .key("empty")
      .begin_array()
      .end_array()
      .key("nested")
      .begin_array()
      .begin_array()
      .end_array()
      .begin_array()
      .value(1)
      .begin_array()
      .value(2)
      .end_array()
      .end_array()
      .begin_object()
      .end_object()
      .end_array()
      .end_object();
  EXPECT_EQ(json.str(), "{\"empty\": [], \"nested\": [[], [1, [2]], {}]}");
}

TEST(Json, WrapDepthBreaksOnlyTheOuterContainers) {
  Json json(/*wrap_depth=*/2);
  json.begin_object()
      .field("n", 1)
      .key("rows")
      .begin_array()
      .begin_object()
      .field("a", 1)
      .field("b", 2)
      .end_object()
      .begin_object()
      .end_object()
      .end_array()
      .key("none")
      .begin_array()
      .end_array()
      .end_object();
  EXPECT_EQ(json.str(),
            "{\n  \"n\": 1,\n  \"rows\": [\n    {\"a\": 1, \"b\": 2},\n    {}\n  ],\n"
            "  \"none\": []\n}");
}

TEST(Json, ExtendAppendsMembersToAFinishedObject) {
  Json json = Json::extend("{\"a\": 1}");
  json.field("b", 2).end_object();
  EXPECT_EQ(json.str(), "{\"a\": 1, \"b\": 2}");
  Json empty = Json::extend("{}");
  empty.field("b", 2).end_object();
  EXPECT_EQ(empty.str(), "{\"b\": 2}");
  EXPECT_THROW(Json::extend("[1]"), std::invalid_argument);
  EXPECT_THROW(Json::extend("}"), std::invalid_argument);
}

TEST(Json, FindIntReadsFlatFields) {
  const std::string doc = "{\"pid\": 4242, \"delta\": -17, \"role\": \"router\", \"big_pid\": 9}";
  EXPECT_EQ(find_int(doc, "pid", 0), 4242);
  EXPECT_EQ(find_int(doc, "delta", 0), -17);
  EXPECT_EQ(find_int(doc, "big_pid", 0), 9);
  EXPECT_EQ(find_int(doc, "uptime_ms", -5), -5) << "missing key";
  EXPECT_EQ(find_int(doc, "role", -5), -5) << "non-numeric value";
  EXPECT_EQ(find_int("{\"x\": -}", "x", 7), 7) << "a sign without digits";
  EXPECT_EQ(find_int("{\"x\": 99999999999999999999}", "x", 7), 7) << "past int64";
  EXPECT_EQ(find_int("{\"x\":1}", "x", 7), 7) << "only the writer's \": \" separator matches";
}

}  // namespace
}  // namespace semilocal
