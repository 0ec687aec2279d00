// Units parsing/formatting, table rendering, CLI flags, logging.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "util/cli.hpp"
#include "util/logging.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

namespace nmad::util {
namespace {

TEST(Units, ParseSizes) {
  uint64_t v = 0;
  EXPECT_TRUE(parse_size("4", &v));
  EXPECT_EQ(v, 4u);
  EXPECT_TRUE(parse_size("1K", &v));
  EXPECT_EQ(v, 1024u);
  EXPECT_TRUE(parse_size("2M", &v));
  EXPECT_EQ(v, 2097152u);
  EXPECT_TRUE(parse_size("1G", &v));
  EXPECT_EQ(v, 1073741824u);
  EXPECT_TRUE(parse_size("64k", &v));
  EXPECT_EQ(v, 65536u);
  EXPECT_TRUE(parse_size("3KB", &v));
  EXPECT_EQ(v, 3072u);
  EXPECT_TRUE(parse_size("3KiB", &v));
  EXPECT_EQ(v, 3072u);
}

TEST(Units, RejectsMalformedSizes) {
  uint64_t v = 0;
  EXPECT_FALSE(parse_size("", &v));
  EXPECT_FALSE(parse_size("K", &v));
  EXPECT_FALSE(parse_size("12X", &v));
  EXPECT_FALSE(parse_size("1K2", &v));
  EXPECT_FALSE(parse_size("12", nullptr));
}

TEST(Units, FormatSizes) {
  EXPECT_EQ(format_size(4), "4");
  EXPECT_EQ(format_size(1024), "1K");
  EXPECT_EQ(format_size(2097152), "2M");
  EXPECT_EQ(format_size(1500), "1500");  // not an exact multiple
  EXPECT_EQ(format_size(1073741824ull), "1G");
}

TEST(Units, FormatRoundTripsParse) {
  for (uint64_t v : doubling_sizes(1, 1ull << 30)) {
    uint64_t parsed = 0;
    ASSERT_TRUE(parse_size(format_size(v), &parsed));
    EXPECT_EQ(parsed, v);
  }
}

TEST(Units, DoublingSizes) {
  const auto sizes = doubling_sizes(4, 64);
  EXPECT_EQ(sizes, (std::vector<uint64_t>{4, 8, 16, 32, 64}));
  EXPECT_TRUE(doubling_sizes(8, 4).empty());
}

TEST(Units, FormatFixed) {
  EXPECT_EQ(format_fixed(12.345, 2), "12.35");
  EXPECT_EQ(format_fixed(1.0, 0), "1");
}

TEST(Table, RowWidthEnforced) {
  Table t({"a", "b"});
  t.add_row({"1", "2"});
  EXPECT_EQ(t.rows(), 1u);
  EXPECT_DEATH(t.add_row({"only-one"}), "row width");
}

TEST(Table, CsvOutput) {
  Table t({"size", "lat"});
  t.add_row({"4", "2.70"});
  t.add_row({"8", "2.71"});

  char buf[256] = {};
  FILE* mem = fmemopen(buf, sizeof(buf), "w");
  ASSERT_NE(mem, nullptr);
  t.print_csv(mem);
  std::fclose(mem);
  EXPECT_STREQ(buf, "size,lat\n4,2.70\n8,2.71\n");
}

TEST(Table, PrettyPrintAligns) {
  Table t({"name", "value"});
  t.add_row({"x", "1"});
  t.add_row({"longer", "22"});
  char buf[512] = {};
  FILE* mem = fmemopen(buf, sizeof(buf), "w");
  t.print(mem);
  std::fclose(mem);
  const std::string out(buf);
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("longer"), std::string::npos);
  // Numeric column right-aligned: " 1" under "value".
  EXPECT_NE(out.find("    1"), std::string::npos);
}

TEST(Cli, ParsesFormsAndDefaults) {
  CliFlags flags;
  flags.define("net", "mx", "network");
  flags.define("iters", "10", "iterations", CliFlags::Kind::kInt);
  flags.define("size", "4K", "bytes", CliFlags::Kind::kSize);
  flags.define_bool("csv", false, "csv output");

  const char* argv[] = {"prog", "--net=quadrics", "--iters", "25", "--csv"};
  ASSERT_TRUE(flags.parse(5, const_cast<char**>(argv)).is_ok());
  EXPECT_EQ(flags.get("net"), "quadrics");
  EXPECT_EQ(flags.get_int("iters"), 25);
  EXPECT_TRUE(flags.get_bool("csv"));
  EXPECT_EQ(flags.get_size("size"), 4096u);  // default survives
}

TEST(Cli, UnknownFlagIsError) {
  CliFlags flags;
  flags.define("net", "mx", "network");
  const char* argv[] = {"prog", "--oops=1"};
  EXPECT_FALSE(flags.parse(2, const_cast<char**>(argv)).is_ok());
}

TEST(Cli, MissingValueIsError) {
  CliFlags flags;
  flags.define("net", "mx", "network");
  const char* argv[] = {"prog", "--net"};
  EXPECT_FALSE(flags.parse(2, const_cast<char**>(argv)).is_ok());
}

TEST(Cli, PositionalArgsCollected) {
  CliFlags flags;
  flags.define("net", "mx", "network");
  const char* argv[] = {"prog", "alpha", "--net=tcp", "beta"};
  ASSERT_TRUE(flags.parse(4, const_cast<char**>(argv)).is_ok());
  EXPECT_EQ(flags.positional(),
            (std::vector<std::string>{"alpha", "beta"}));
}

CliFlags numeric_flags() {
  CliFlags flags;
  flags.define("iters", "10", "iterations", CliFlags::Kind::kInt);
  flags.define("fault-drop", "0", "drop probability",
               CliFlags::Kind::kDouble);
  flags.define("size", "4K", "bytes", CliFlags::Kind::kSize);
  return flags;
}

TEST(Cli, NumericValuesParse) {
  CliFlags flags = numeric_flags();
  const char* argv[] = {"prog", "--iters=-3", "--fault-drop", "0.05",
                        "--size=256K"};
  ASSERT_TRUE(flags.parse(5, const_cast<char**>(argv)).is_ok());
  EXPECT_EQ(flags.get_int("iters"), -3);
  EXPECT_DOUBLE_EQ(flags.get_double("fault-drop"), 0.05);
  EXPECT_EQ(flags.get_size("size"), 256u * 1024u);
}

// A value that does not parse completely is an error naming the flag
// and the value — never a silent 0 and never an assert.
TEST(Cli, MalformedNumbersAreErrors) {
  const std::vector<std::pair<std::string, std::string>> bad = {
      {"iters", "abc"},
      {"iters", "10x"},
      {"iters", "1.5"},
      {"iters", ""},
      {"iters", " 7"},
      {"iters", "99999999999999999999"},
      {"fault-drop", "abc"},
      {"fault-drop", "0.1.2"},
      {"fault-drop", ""},
      {"size", "4Q"},
      {"size", "abc"},
  };
  for (const auto& [name, value] : bad) {
    CliFlags flags = numeric_flags();
    const std::string arg = "--" + name + "=" + value;
    const char* argv[] = {"prog", arg.c_str()};
    const Status st = flags.parse(2, const_cast<char**>(argv));
    ASSERT_FALSE(st.is_ok()) << arg;
    EXPECT_NE(st.to_string().find("flag --" + name + ": '" + value +
                                  "' is not a number"),
              std::string::npos)
        << st.to_string();
    // The rejected value did not replace the default.
    EXPECT_EQ(flags.get(name), numeric_flags().get(name));
  }
}

TEST(Cli, BoolExplicitValue) {
  CliFlags flags;
  flags.define_bool("csv", true, "csv output");
  const char* argv[] = {"prog", "--csv=false"};
  ASSERT_TRUE(flags.parse(2, const_cast<char**>(argv)).is_ok());
  EXPECT_FALSE(flags.get_bool("csv"));
}

TEST(Logging, SinkCapturesAtOrAboveLevel) {
  Logger logger;
  std::vector<std::string> lines;
  logger.set_sink([&](LogLevel, const std::string& s) {
    lines.push_back(s);
  });
  logger.set_level(LogLevel::kInfo);
  logger.logf(LogLevel::kDebug, "hidden %d", 1);
  logger.logf(LogLevel::kInfo, "shown %d", 2);
  logger.logf(LogLevel::kError, "also %s", "shown");
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0], "shown 2");
  EXPECT_EQ(lines[1], "also shown");
}

TEST(Logging, LevelNames) {
  EXPECT_STREQ(log_level_name(LogLevel::kTrace), "TRACE");
  EXPECT_STREQ(log_level_name(LogLevel::kError), "ERROR");
}

}  // namespace
}  // namespace nmad::util
