#include "util/cli.hpp"

#include <gtest/gtest.h>

#include "core/api.hpp"

namespace semilocal {
namespace {

CliArgs parse(std::initializer_list<const char*> argv,
              const std::set<std::string>& flags = {},
              const std::optional<std::set<std::string>>& options = {}) {
  std::vector<const char*> v(argv);
  return CliArgs::parse(static_cast<int>(v.size()), v.data(), 0, flags, options);
}

TEST(Cli, PositionalsInOrder) {
  const auto args = parse({"alpha", "beta", "gamma"});
  ASSERT_EQ(args.positional().size(), 3u);
  EXPECT_EQ(args.positional()[0], "alpha");
  EXPECT_EQ(args.positional()[2], "gamma");
}

TEST(Cli, OptionsConsumeValues) {
  const auto args = parse({"cmd", "--length", "5000", "--out", "file.fa"});
  EXPECT_EQ(args.positional().size(), 1u);
  EXPECT_EQ(args.option_or("length", ""), "5000");
  EXPECT_EQ(args.int_option_or("length", 0), 5000);
  EXPECT_EQ(args.option_or("out", ""), "file.fa");
  EXPECT_FALSE(args.option("missing").has_value());
  EXPECT_EQ(args.int_option_or("missing", 7), 7);
}

TEST(Cli, FlagsDoNotConsumeValues) {
  const auto args = parse({"--parallel", "positional"}, {"parallel"});
  EXPECT_TRUE(args.has_flag("parallel"));
  ASSERT_EQ(args.positional().size(), 1u);
  EXPECT_EQ(args.positional()[0], "positional");
}

TEST(Cli, DoubleOption) {
  const auto args = parse({"--gc", "0.375"});
  EXPECT_DOUBLE_EQ(args.double_option_or("gc", 0.0), 0.375);
  EXPECT_DOUBLE_EQ(args.double_option_or("other", 1.5), 1.5);
}

TEST(Cli, MalformedInputsThrow) {
  EXPECT_THROW(parse({"--dangling"}), std::invalid_argument);
  EXPECT_THROW(parse({"--"}), std::invalid_argument);
  const auto args = parse({"--n", "abc"});
  EXPECT_THROW((void)args.int_option_or("n", 0), std::invalid_argument);
  const auto args2 = parse({"--x", "12zz"});
  EXPECT_THROW((void)args2.double_option_or("x", 0.0), std::invalid_argument);
}

TEST(Cli, KnownOptionListRejectsOtherNames) {
  const std::set<std::string> options = {"port"};
  const auto args = parse({"--port", "0", "--dna"}, {"dna"}, options);
  EXPECT_EQ(args.option_or("port", ""), "0");
  EXPECT_TRUE(args.has_flag("dna"));
  // An unknown name must not swallow the flag after it as its value.
  EXPECT_THROW(parse({"--port", "0", "--verbose", "--dna"}, {"dna"}, options),
               std::invalid_argument);
  EXPECT_THROW(parse({"--prot", "0"}, {}, options), std::invalid_argument);
}

TEST(Cli, WithoutAKnownListAnyNameIsAnOption) {
  const auto args = parse({"--verbose", "--dna"}, {"dna"});
  EXPECT_EQ(args.option_or("verbose", ""), "--dna");
  EXPECT_FALSE(args.has_flag("dna"));
}

TEST(Cli, ParseStrategyMapsEachName) {
  EXPECT_EQ(parse_strategy("antidiag"), Strategy::kAntidiagSimd);
  EXPECT_EQ(parse_strategy("hybrid"), Strategy::kHybrid);
  EXPECT_EQ(parse_strategy("tiled"), Strategy::kHybridTiled);
  EXPECT_EQ(parse_strategy("recursive"), Strategy::kRecursive);
  EXPECT_EQ(parse_strategy("rowmajor"), Strategy::kRowMajor);
  EXPECT_EQ(parse_strategy("loadbalanced"), Strategy::kLoadBalanced);
  EXPECT_THROW((void)parse_strategy("semi_hybrid"), std::invalid_argument);
  EXPECT_THROW((void)parse_strategy(""), std::invalid_argument);
}

TEST(Cli, StartOffsetSkipsProgramAndCommand) {
  const char* argv[] = {"prog", "compare", "a.fa", "--parallel"};
  const auto args = CliArgs::parse(4, argv, 2, {"parallel"});
  ASSERT_EQ(args.positional().size(), 1u);
  EXPECT_EQ(args.positional()[0], "a.fa");
  EXPECT_TRUE(args.has_flag("parallel"));
}

}  // namespace
}  // namespace semilocal
