/// \file test_util.cpp
/// \brief Tests for the utility layer (checks, tables, CLI parsing).
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <sstream>
#include <vector>

#include "util/check.hpp"
#include "util/cli.hpp"
#include "util/divisor.hpp"
#include "util/table.hpp"

namespace voodb::util {
namespace {

TEST(Check, ThrowsWithContext) {
  try {
    VOODB_CHECK_MSG(1 == 2, "custom context " << 42);
    FAIL() << "should have thrown";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("1 == 2"), std::string::npos);
    EXPECT_NE(what.find("custom context 42"), std::string::npos);
  }
}

TEST(Check, PassesSilently) {
  VOODB_CHECK(true);
  VOODB_CHECK_MSG(2 + 2 == 4, "never shown");
}

TEST(Divisor, MatchesHardwareDivision) {
  const uint64_t divisors[] = {1,
                               2,
                               3,
                               7,
                               100,
                               (uint64_t{1} << 32) - 1,
                               (uint64_t{1} << 32) + 1,
                               uint64_t{1} << 63,
                               UINT64_MAX};
  std::mt19937_64 rng(31);
  for (const uint64_t d : divisors) {
    SCOPED_TRACE(d);
    const Divisor div(d);
    std::vector<uint64_t> numerators = {0, d - 1, d, d + 1, UINT64_MAX};
    for (int i = 0; i < 100000; ++i) numerators.push_back(rng());
    for (const uint64_t n : numerators) {
      if (div.Div(n) != n / d || div.Mod(n) != n % d) {
        ADD_FAILURE() << n << " / " << d << ": got " << div.Div(n) << " rem "
                      << div.Mod(n);
        break;
      }
    }
  }
}

TEST(Divisor, DefaultsToOneAndRejectsZero) {
  const Divisor one;
  EXPECT_EQ(one.Div(UINT64_MAX), UINT64_MAX);
  EXPECT_EQ(one.Mod(UINT64_MAX), 0u);
  EXPECT_THROW(Divisor(0), Error);
}

TEST(TextTable, AlignsColumns) {
  TextTable t({"name", "value"});
  t.AddRow({"alpha", "1"});
  t.AddRow({"b", "22222"});
  std::ostringstream os;
  t.Print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("-----"), std::string::npos);
  EXPECT_EQ(t.row_count(), 2u);
}

TEST(TextTable, FormatsDoubles) {
  TextTable t({"a", "b"});
  t.AddNumericRow({1.23456, 2.0}, 2);
  std::ostringstream os;
  t.PrintCsv(os);
  EXPECT_EQ(os.str(), "a,b\n1.23,2.00\n");
}

TEST(TextTable, RejectsArityMismatch) {
  TextTable t({"a", "b"});
  EXPECT_THROW(t.AddRow({"only-one"}), Error);
  EXPECT_THROW(TextTable({}), Error);
}

TEST(FormatDouble, Precision) {
  EXPECT_EQ(FormatDouble(3.14159, 2), "3.14");
  EXPECT_EQ(FormatDouble(2.0, 0), "2");
}

TEST(CliArgs, ParsesKeyValueForms) {
  const char* argv[] = {"prog", "--alpha=3", "--beta", "4.5", "--flag"};
  CliArgs args(5, argv);
  EXPECT_EQ(args.GetInt("alpha", 0), 3);
  EXPECT_DOUBLE_EQ(args.GetDouble("beta", 0.0), 4.5);
  EXPECT_TRUE(args.GetBool("flag", false));
  EXPECT_EQ(args.GetString("missing", "def"), "def");
  args.RejectUnknown();
}

TEST(CliArgs, RejectsUnknownFlags) {
  const char* argv[] = {"prog", "--oops=1"};
  CliArgs args(2, argv);
  EXPECT_THROW(args.RejectUnknown(), Error);
}

TEST(CliArgs, RejectsMalformedValues) {
  const char* argv[] = {"prog", "--n=abc"};
  CliArgs args(2, argv);
  EXPECT_THROW(args.GetInt("n", 0), Error);
  const char* argv2[] = {"prog", "--b=maybe"};
  CliArgs args2(2, argv2);
  EXPECT_THROW(args2.GetBool("b", false), Error);
  const char* argv3[] = {"prog", "positional"};
  EXPECT_THROW(CliArgs(2, argv3), Error);
}

TEST(CliArgs, HelpDetected) {
  const char* argv[] = {"prog", "--help"};
  CliArgs args(2, argv);
  EXPECT_TRUE(args.help_requested());
}

TEST(CliArgs, BoolSpellings) {
  const char* argv[] = {"prog", "--a=yes", "--b=off", "--c=1", "--d=false"};
  CliArgs args(5, argv);
  EXPECT_TRUE(args.GetBool("a", false));
  EXPECT_FALSE(args.GetBool("b", true));
  EXPECT_TRUE(args.GetBool("c", false));
  EXPECT_FALSE(args.GetBool("d", true));
}

TEST(CliArgs, HelpGeneratedFromDeclarations) {
  const char* argv[] = {"prog"};
  CliArgs args(1, argv);
  args.GetInt("replications", 10, "replications per point");
  args.GetBool("csv", false, "CSV output");
  args.GetString("json", "out.json", "result file");
  const std::string help = args.Help();
  EXPECT_NE(help.find("--replications=N"), std::string::npos) << help;
  EXPECT_NE(help.find("replications per point (default 10)"),
            std::string::npos)
      << help;
  EXPECT_NE(help.find("--csv"), std::string::npos) << help;
  EXPECT_NE(help.find("--json=S"), std::string::npos) << help;
  EXPECT_NE(help.find("(default out.json)"), std::string::npos) << help;
}

TEST(CliArgs, UnknownFlagSuggestsNearestDeclaredName) {
  const char* argv[] = {"prog", "--replication=5"};
  CliArgs args(2, argv);
  args.GetInt("replications", 10);
  args.GetInt("transactions", 1000);
  try {
    args.RejectUnknown();
    FAIL() << "expected util::Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("--replications"),
              std::string::npos)
        << e.what();
  }
}

TEST(CliArgs, GetListCollectsRepeatedFlags) {
  const char* argv[] = {"prog", "--set=a=1", "--set", "b=2", "--set=c=3"};
  CliArgs args(5, argv);
  const std::vector<std::string> sets = args.GetList("set");
  ASSERT_EQ(sets.size(), 3u);
  EXPECT_EQ(sets[0], "a=1");
  EXPECT_EQ(sets[1], "b=2");
  EXPECT_EQ(sets[2], "c=3");
  args.RejectUnknown();
  // Scalar reads of a repeated flag keep the last occurrence.
  const char* argv2[] = {"prog", "--n=1", "--n=2"};
  CliArgs args2(3, argv2);
  EXPECT_EQ(args2.GetInt("n", 0), 2);
}

TEST(CliArgs, PositionalArgumentsAreOptIn) {
  const char* argv[] = {"prog", "run", "fig08", "--csv"};
  CliArgs args(4, argv, /*allow_positional=*/true);
  ASSERT_EQ(args.positional().size(), 2u);
  EXPECT_EQ(args.positional()[0], "run");
  EXPECT_EQ(args.positional()[1], "fig08");
  EXPECT_TRUE(args.GetBool("csv", false));
  args.RejectUnknown();
}

}  // namespace
}  // namespace voodb::util
