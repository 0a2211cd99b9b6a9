// core::JsonWriter — the one JSON emitter every writer in the tree shares.
// Escaping (the bug class this consolidation fixed: control characters and
// backslashes passed through unescaped), number round-tripping, and the two
// output styles.
#include "core/json_writer.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <vector>

namespace fbm::core {
namespace {

TEST(JsonQuote, EscapesQuotesBackslashesAndControlChars) {
  EXPECT_EQ(json_quote("plain"), "\"plain\"");
  EXPECT_EQ(json_quote("a \"quoted\" token"), "\"a \\\"quoted\\\" token\"");
  EXPECT_EQ(json_quote("back\\slash"), "\"back\\\\slash\"");
  EXPECT_EQ(json_quote("tab\there"), "\"tab\\there\"");
  EXPECT_EQ(json_quote("line\nbreak"), "\"line\\nbreak\"");
  EXPECT_EQ(json_quote("cr\rbs\bff\f"), "\"cr\\rbs\\bff\\f\"");
  EXPECT_EQ(json_quote(std::string("nul\x01" "byte")), "\"nul\\u0001byte\"");
  EXPECT_EQ(json_quote(std::string(1, '\x1f')), "\"\\u001f\"");
  // Multi-byte UTF-8 passes through untouched.
  EXPECT_EQ(json_quote("naïve"), "\"naïve\"");
}

TEST(JsonNumber, ShortestRoundTripForm) {
  EXPECT_EQ(json_number(0.0), "0");
  EXPECT_EQ(json_number(1.25), "1.25");
  EXPECT_EQ(json_number(5e6), "5e+06");
  EXPECT_EQ(json_number(1.0 / 3.0), "0.3333333333333333");
  EXPECT_EQ(json_number(std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(json_number(std::numeric_limits<double>::quiet_NaN()), "null");
}

/// json_number as first written with printf and scanf: "%.17g", then each
/// precision from 1 to 16 until the text parses back. Frozen here as the
/// reference that the to_chars version must match byte for byte.
std::string printf_search_json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  double parsed = 0.0;
  std::sscanf(buf, "%lg", &parsed);
  if (parsed == v) {
    for (int prec = 1; prec < 17; ++prec) {
      char shorter[32];
      std::snprintf(shorter, sizeof shorter, "%.*g", prec, v);
      std::sscanf(shorter, "%lg", &parsed);
      if (parsed == v) return shorter;
    }
  }
  return buf;
}

/// Checks json_number against the reference on every value; reports the
/// count of mismatches and the first few, not one failure per value.
void expect_matches_printf_search(const std::vector<double>& values) {
  std::size_t mismatches = 0;
  for (const double v : values) {
    const std::string want = printf_search_json_number(v);
    const std::string got = json_number(v);
    if (got == want) continue;
    if (++mismatches <= 5) {
      ADD_FAILURE() << std::hexfloat << v << ": json_number gave " << got
                    << ", printf search gave " << want;
    }
  }
  EXPECT_EQ(mismatches, 0u) << "of " << values.size() << " values";
}

double from_bits(std::uint64_t bits) {
  double v = 0.0;
  std::memcpy(&v, &bits, sizeof v);
  return v;
}

TEST(JsonNumber, MatchesPrintfSearchAtPowersOfTwo) {
  // At a power of two the rounding gap below the value is half the gap
  // above it, the case where printing once at the shortest digit count
  // differs from the printf search.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> values;
  for (int e = -1074; e <= 1023; ++e) {
    const double p = std::ldexp(1.0, e);
    for (const double v :
         {std::nextafter(p, 0.0), p, std::nextafter(p, kInf)}) {
      values.push_back(v);
      values.push_back(-v);
    }
  }
  expect_matches_printf_search(values);
}

TEST(JsonNumber, MatchesPrintfSearchOnSpecialAndShortValues) {
  std::vector<double> values = {0.0,
                                -0.0,
                                std::numeric_limits<double>::denorm_min(),
                                std::numeric_limits<double>::min(),
                                std::numeric_limits<double>::max(),
                                std::numeric_limits<double>::epsilon(),
                                std::numeric_limits<double>::infinity(),
                                std::numeric_limits<double>::quiet_NaN()};
  std::mt19937_64 rng(7);
  for (int i = 0; i < 20000; ++i) {  // subnormals: zero exponent field
    values.push_back(from_bits(rng() & ((std::uint64_t{1} << 52) - 1)));
  }
  for (int i = -100000; i <= 100000; ++i) values.push_back(i);
  for (int e = -30; e <= 30; ++e) values.push_back(std::pow(10.0, e));
  for (int k = 0; k <= 20000; ++k) {  // short decimals
    values.push_back(k / 1000.0);
    values.push_back(k / 100.0 + 0.5);
    values.push_back(k * 1.0e-7);
  }
  const std::size_t n = values.size();
  for (std::size_t i = 0; i < n; ++i) values.push_back(-values[i]);
  expect_matches_printf_search(values);
}

/// 2^20 random bit patterns, in eight seeded shards that ctest runs in
/// parallel.
class JsonNumberSweep : public ::testing::TestWithParam<int> {};

TEST_P(JsonNumberSweep, MatchesPrintfSearchOnRandomBitPatterns) {
  std::mt19937_64 rng(0x6a736f6e + static_cast<std::uint64_t>(GetParam()));
  std::vector<double> values(std::size_t{1} << 17);
  for (double& v : values) v = from_bits(rng());
  expect_matches_printf_search(values);
}

INSTANTIATE_TEST_SUITE_P(Shards, JsonNumberSweep, ::testing::Range(0, 8));

TEST(JsonWriter, CompactStyle) {
  JsonWriter w(JsonWriter::Style::compact);
  w.begin_object();
  w.field("a", std::uint64_t{1});
  w.field("b", 2.5);
  w.begin_object("nested");
  w.field("c", true);
  w.field("d", "tri\"cky");
  w.end_object();
  w.null_field("e");
  w.begin_array("f");
  w.raw_element("1");
  w.raw_element("2");
  w.end_array();
  w.end_object();
  EXPECT_EQ(std::move(w).str(),
            "{\"a\": 1, \"b\": 2.5, \"nested\": {\"c\": true, "
            "\"d\": \"tri\\\"cky\"}, \"e\": null, \"f\": [1, 2]}");
}

TEST(JsonWriter, PrettyStyle) {
  JsonWriter w(JsonWriter::Style::pretty, 2);
  w.begin_object();
  w.field("a", std::uint64_t{1});
  w.begin_object("nested");
  w.field("b", 2.0);
  w.end_object();
  w.begin_object("empty");
  w.end_object();
  w.begin_array("list");
  w.end_array();
  w.end_object();
  EXPECT_EQ(std::move(w).str(),
            "  {\n"
            "    \"a\": 1,\n"
            "    \"nested\": {\n"
            "      \"b\": 2\n"
            "    },\n"
            "    \"empty\": {},\n"
            "    \"list\": []\n"
            "  }");
}

TEST(JsonWriter, PrettyRawElementsComposeNestedDocuments) {
  JsonWriter inner(JsonWriter::Style::pretty, 4);
  inner.begin_object();
  inner.field("x", std::uint64_t{1});
  inner.end_object();
  const std::string nested = std::move(inner).str();

  JsonWriter w(JsonWriter::Style::pretty, 0);
  w.begin_object();
  w.begin_array("items");
  w.raw_element(nested);
  w.raw_element(nested);
  w.end_array();
  w.end_object();
  EXPECT_EQ(std::move(w).str(),
            "{\n"
            "  \"items\": [\n"
            "    {\n"
            "      \"x\": 1\n"
            "    },\n"
            "    {\n"
            "      \"x\": 1\n"
            "    }\n"
            "  ]\n"
            "}");
}

TEST(JsonWriter, KeysAreEscapedToo) {
  JsonWriter w(JsonWriter::Style::compact);
  w.begin_object();
  w.field("we\"ird", std::uint64_t{1});
  w.end_object();
  EXPECT_EQ(std::move(w).str(), "{\"we\\\"ird\": 1}");
}

}  // namespace
}  // namespace fbm::core
