// util/flags: declared flags parse into their bound values, and anything
// else — an unknown flag, a bare argument, a non-integer value — fails with
// exit code 2 instead of running on defaults; --help exits 0.

#include "util/flags.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

namespace tpgnn {
namespace {

struct Parsed {
  bool run = false;
  int exit_code = -1;
  std::string path = "default.txt";
  int64_t port = 7471;
};

Parsed ParseArgs(std::vector<const char*> args) {
  Parsed parsed;
  Flags flags("prog", "A test program.");
  flags.Add("path", &parsed.path, "output path");
  flags.Add("port", &parsed.port, "TCP port");
  args.insert(args.begin(), "prog");
  parsed.run = flags.Parse(static_cast<int>(args.size()), args.data(),
                           &parsed.exit_code);
  return parsed;
}

TEST(FlagsTest, DefaultsSurviveAnEmptyCommandLine) {
  const Parsed parsed = ParseArgs({});
  EXPECT_TRUE(parsed.run);
  EXPECT_EQ(parsed.path, "default.txt");
  EXPECT_EQ(parsed.port, 7471);
}

TEST(FlagsTest, ParsesDeclaredFlags) {
  const Parsed parsed = ParseArgs({"--port=0", "--path=a=b.txt"});
  EXPECT_TRUE(parsed.run);
  EXPECT_EQ(parsed.port, 0);
  EXPECT_EQ(parsed.path, "a=b.txt");  // Only the first '=' splits.
}

TEST(FlagsTest, RejectsUnknownFlagsBareArgumentsAndBadIntegers) {
  for (const char* bad :
       {"--bogus=1", "--port", "port=1", "--port=", "--port=12x",
        "--port=1.5", "--port=99999999999999999999"}) {
    const Parsed parsed = ParseArgs({bad});
    EXPECT_FALSE(parsed.run) << bad;
    EXPECT_EQ(parsed.exit_code, 2) << bad;
  }
}

TEST(FlagsTest, HelpExitsZeroAndListsEveryFlag) {
  const Parsed parsed = ParseArgs({"--port=1", "--help"});
  EXPECT_FALSE(parsed.run);
  EXPECT_EQ(parsed.exit_code, 0);

  int64_t port = 7471;
  Flags flags("prog", "A test program.");
  flags.Add("port", &port, "TCP port");
  const std::string usage = flags.Usage();
  EXPECT_NE(usage.find("--port"), std::string::npos) << usage;
  EXPECT_NE(usage.find("default: 7471"), std::string::npos) << usage;
  EXPECT_NE(usage.find("--help"), std::string::npos) << usage;
}

}  // namespace
}  // namespace tpgnn
