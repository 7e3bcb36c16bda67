// util/json appenders: each must equal the printf conversion it replaces,
// byte for byte — the proof behind "the trace and Perfetto writers kept
// their golden bytes" — and the escaper must always yield parseable JSON.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "util/json.h"

namespace lw::util {
namespace {

std::string printf_string(const char* format, double value) {
  char buffer[512];
  const int n = std::snprintf(buffer, sizeof(buffer), format, value);
  EXPECT_LT(n, static_cast<int>(sizeof(buffer)));
  return std::string(buffer, static_cast<std::size_t>(n));
}

/// Compares all three double conversions the writers use for one value.
void expect_double_matches(double value) {
  std::string fixed9;
  append_fixed(fixed9, value, 9);
  EXPECT_EQ(fixed9, printf_string("%.9f", value)) << std::hexfloat << value;
  std::string fixed3;
  append_fixed(fixed3, value, 3);
  EXPECT_EQ(fixed3, printf_string("%.3f", value)) << std::hexfloat << value;
  std::string general9;
  append_general(general9, value, 9);
  EXPECT_EQ(general9, printf_string("%.9g", value)) << std::hexfloat << value;
}

std::vector<double> edge_values() {
  std::vector<double> values = {
      0.0, -0.0, 1.0, -1.0, 0.5, 1e-10, -1e-10, 1e15, 1e16, 1e17, 1e21,
      1e22, 1e300, -1e300, 1e-300,
      std::numeric_limits<double>::max(), std::numeric_limits<double>::lowest(),
      std::numeric_limits<double>::min(),
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::min() / 3.0,  // subnormal
      std::numeric_limits<double>::epsilon(),
      // Exact binary ties at the last printed digit (round half to even).
      0.0009765625, 1.0009765625, 0.0625, 0.1875, 0.3125, 2.5, 1234567.125,
      1234567.375, 0.0000000005, 0.0000000015, 999999999.5, 0.9999999995,
      0.9995, 9.9999999995, 123456789.0, 1234567890.0,
      // Simulated times and durations as the writers see them.
      150.0, 1999.999999999, 18.837914256, 0.014000180, 123.456789,
      0.0123456789, 3.0, 42.0, 1e9, 4294967295.0, 9007199254740993.0,
  };
  for (int exp = -320; exp <= 308; exp += 7) {
    values.push_back(std::pow(10.0, exp));
  }
  for (int i = 0; i <= 64; ++i) values.push_back(std::ldexp(1.0, i - 32));
  return values;
}

TEST(JsonFormat, EdgeDoublesMatchPrintf) {
  for (const double value : edge_values()) {
    expect_double_matches(value);
    expect_double_matches(std::nextafter(value, 0.0));
    expect_double_matches(std::nextafter(value, 1e308));
  }
}

TEST(JsonFormat, SeededDoublesMatchPrintf) {
  std::mt19937_64 rng(0x5EED);
  int compared = 0;
  for (int i = 0; i < 120000; ++i) {
    const std::uint64_t bits = rng();
    double value = 0.0;
    switch (i % 4) {
      case 0:  // any finite bit pattern: every exponent, subnormals
        std::memcpy(&value, &bits, sizeof(value));
        if (!std::isfinite(value)) continue;
        break;
      case 1:  // simulated-time range
        value = static_cast<double>(bits >> 11) * 0x1p-53 * 2000.0;
        break;
      case 2:  // short decimals: many ties and near-ties
        value = static_cast<double>(bits % 100000000) / 1024.0;
        break;
      default:  // small magnitudes, both signs
        value = (static_cast<double>(bits >> 11) * 0x1p-53 - 0.5) * 1e-6;
        break;
    }
    expect_double_matches(value);
    ++compared;
    if (HasFailure()) break;
  }
  EXPECT_GE(compared, 100000);
}

TEST(JsonFormat, IntegersMatchPrintf) {
  std::vector<std::uint64_t> values = {0, 1, 9, 10, 99, 4294967295u,
                                       4294967296u, UINT64_MAX,
                                       UINT64_MAX - 1};
  std::mt19937_64 rng(7);
  for (int i = 0; i < 10000; ++i) values.push_back(rng() >> (i % 64));
  char buffer[32];
  for (const std::uint64_t value : values) {
    std::string out;
    append_uint(out, value);
    std::snprintf(buffer, sizeof(buffer), "%" PRIu64, value);
    EXPECT_EQ(out, buffer);
    const auto narrow = static_cast<std::uint32_t>(value);
    out.clear();
    append_uint(out, narrow);
    std::snprintf(buffer, sizeof(buffer), "%" PRIu32, narrow);
    EXPECT_EQ(out, buffer);
    const auto signed_value = static_cast<int>(narrow);
    out.clear();
    append_int(out, signed_value);
    std::snprintf(buffer, sizeof(buffer), "%d", signed_value);
    EXPECT_EQ(out, buffer);
  }
}

TEST(JsonFormat, NonFiniteWritesNull) {
  std::string out;
  append_fixed(out, std::numeric_limits<double>::infinity(), 3);
  out += ',';
  append_general(out, std::nan(""), 9);
  EXPECT_EQ(out, "null,null");
}

TEST(JsonFormat, EscapesQuotesBackslashesAndControlBytes) {
  const std::string text("a\"b\\c\x01\n\x1f d\x7f\xc3\xa9", 13);
  std::string out;
  append_quoted(out, text);
  EXPECT_EQ(out, "\"a\\\"b\\\\c\\u0001\\u000a\\u001f d\x7f\xc3\xa9\"");
  EXPECT_EQ(JsonValue::parse(out).as_string(), text);
}

TEST(JsonFormat, EveryByteRoundTripsThroughTheParser) {
  std::string text;
  for (int c = 1; c < 256; ++c) text += static_cast<char>(c);
  std::string out;
  append_quoted(out, text);
  EXPECT_EQ(JsonValue::parse(out).as_string(), text);
}

TEST(JsonFormat, ParserRejectsRawControlBytesInStrings) {
  EXPECT_THROW(JsonValue::parse(std::string("\"a\x01\"")), JsonParseError);
  EXPECT_THROW(JsonValue::parse("\"a\nb\""), JsonParseError);
}

}  // namespace
}  // namespace lw::util
