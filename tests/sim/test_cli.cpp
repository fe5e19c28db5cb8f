#include "sim/cli.hpp"

#include <gtest/gtest.h>

#include <array>
#include <stdexcept>
#include <string>

namespace strat::sim {
namespace {

Cli make(std::initializer_list<const char*> args, std::vector<std::string> known) {
  std::vector<const char*> argv{"prog"};
  argv.insert(argv.end(), args.begin(), args.end());
  return Cli(static_cast<int>(argv.size()), argv.data(), std::move(known));
}

TEST(Cli, EqualsForm) {
  const Cli cli = make({"--n=100", "--p=0.5"}, {"n", "p"});
  EXPECT_EQ(cli.get_int("n", 0), 100);
  EXPECT_DOUBLE_EQ(cli.get_double("p", 0.0), 0.5);
}

TEST(Cli, SpaceForm) {
  const Cli cli = make({"--n", "42"}, {"n"});
  EXPECT_EQ(cli.get_int("n", 0), 42);
}

TEST(Cli, BooleanFlagWithoutValue) {
  const Cli cli = make({"--csv"}, {"csv"});
  EXPECT_TRUE(cli.get_bool("csv"));
  EXPECT_TRUE(cli.has("csv"));
}

TEST(Cli, DefaultsWhenAbsent) {
  const Cli cli = make({}, {"n", "csv"});
  EXPECT_EQ(cli.get_int("n", 7), 7);
  EXPECT_FALSE(cli.get_bool("csv"));
  EXPECT_FALSE(cli.has("n"));
  EXPECT_EQ(cli.get_string("n", "x"), "x");
}

TEST(Cli, UnknownFlagThrows) {
  EXPECT_THROW(make({"--oops=1"}, {"n"}), std::invalid_argument);
}

TEST(Cli, NonFlagTokenThrows) {
  EXPECT_THROW(make({"positional"}, {"n"}), std::invalid_argument);
}

TEST(Cli, BoolExplicitValues) {
  EXPECT_TRUE(make({"--x=true"}, {"x"}).get_bool("x"));
  EXPECT_TRUE(make({"--x=1"}, {"x"}).get_bool("x"));
  EXPECT_TRUE(make({"--x=yes"}, {"x"}).get_bool("x"));
  EXPECT_FALSE(make({"--x=false"}, {"x"}).get_bool("x", true));
  EXPECT_FALSE(make({"--x=0"}, {"x"}).get_bool("x", true));
  EXPECT_FALSE(make({"--x=no"}, {"x"}).get_bool("x", true));
}

TEST(Cli, BoolRefusesUnknownWords) {
  for (const char* arg : {"--x=maybe", "--x=True", "--x=2", "--x="}) {
    EXPECT_THROW((void)make({arg}, {"x"}).get_bool("x"), std::invalid_argument) << arg;
  }
}

TEST(Cli, IntRefusesWhatItCannotParseWhole) {
  EXPECT_EQ(make({"--n=-3"}, {"n"}).get_int("n", 0), -3);
  for (const char* arg : {"--n=5e3", "--n=10k", "--n=1.5", "--n=", "--n= 7", "--n=x",
                          "--n=99999999999999999999"}) {
    EXPECT_THROW((void)make({arg}, {"n"}).get_int("n", 0), std::invalid_argument) << arg;
  }
}

TEST(Cli, DoubleRefusesTrailingTextAndNonFinite) {
  EXPECT_DOUBLE_EQ(make({"--d=5e3"}, {"d"}).get_double("d", 0.0), 5000.0);
  EXPECT_DOUBLE_EQ(make({"--d=-0.25"}, {"d"}).get_double("d", 0.0), -0.25);
  for (const char* arg : {"--d=1.5x", "--d=nan", "--d=inf", "--d=-inf", "--d=1e999", "--d=",
                          "--d=abc"}) {
    EXPECT_THROW((void)make({arg}, {"d"}).get_double("d", 0.0), std::invalid_argument) << arg;
  }
}

TEST(Cli, ErrorsNameTheFlagAndTheValue) {
  try {
    (void)make({"--peers=10k"}, {"peers"}).get_int("peers", 0);
    ADD_FAILURE() << "--peers=10k accepted";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("--peers"), std::string::npos) << what;
    EXPECT_NE(what.find("10k"), std::string::npos) << what;
  }
}

TEST(Cli, ProgramName) {
  const Cli cli = make({}, {});
  EXPECT_EQ(cli.program(), "prog");
}

}  // namespace
}  // namespace strat::sim
