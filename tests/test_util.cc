#include <gtest/gtest.h>

#include <atomic>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <future>
#include <limits>
#include <optional>
#include <regex>
#include <set>
#include <span>
#include <sstream>
#include <string_view>
#include <thread>

#include "service/job_service.h"
#include "util/csv.h"
#include "util/env.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/table.h"
#include "util/threadpool.h"

namespace vlq {
namespace {

TEST(Rng, Deterministic)
{
    Rng a(42);
    Rng b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.nextU64(), b.nextU64());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1);
    Rng b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        if (a.nextU64() == b.nextU64())
            ++same;
    EXPECT_EQ(same, 0);
}

TEST(Rng, DoubleInUnitInterval)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i) {
        double v = rng.nextDouble();
        EXPECT_GE(v, 0.0);
        EXPECT_LT(v, 1.0);
    }
}

TEST(Rng, DoubleMeanNearHalf)
{
    Rng rng(99);
    RunningStat stat;
    for (int i = 0; i < 100000; ++i)
        stat.add(rng.nextDouble());
    EXPECT_NEAR(stat.mean(), 0.5, 0.01);
}

TEST(Rng, BernoulliRate)
{
    Rng rng(123);
    int hits = 0;
    const int n = 200000;
    for (int i = 0; i < n; ++i)
        if (rng.bernoulli(0.3))
            ++hits;
    EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, NextBelowInRange)
{
    Rng rng(5);
    std::set<uint64_t> seen;
    for (int i = 0; i < 1000; ++i) {
        uint64_t v = rng.nextBelow(7);
        EXPECT_LT(v, 7u);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 7u); // all residues hit
}

TEST(Rng, SplitStreamsIndependent)
{
    Rng root(77);
    Rng s0 = root.split(0);
    Rng s1 = root.split(1);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        if (s0.nextU64() == s1.nextU64())
            ++same;
    EXPECT_EQ(same, 0);
}

TEST(Rng, SplitIsDeterministic)
{
    Rng root(77);
    Rng a = root.split(5);
    Rng b = Rng(77).split(5);
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(a.nextU64(), b.nextU64());
}

TEST(RunningStat, MeanVariance)
{
    RunningStat s;
    for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        s.add(v);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
    EXPECT_EQ(s.count(), 8u);
}

TEST(RunningStat, EmptyIsZero)
{
    RunningStat s;
    EXPECT_EQ(s.mean(), 0.0);
    EXPECT_EQ(s.variance(), 0.0);
    EXPECT_EQ(s.stderrOfMean(), 0.0);
}

TEST(Binomial, RateAndWilson)
{
    BinomialEstimate e{10, 100};
    EXPECT_DOUBLE_EQ(e.rate(), 0.1);
    auto [lo, hi] = e.wilson();
    EXPECT_LT(lo, 0.1);
    EXPECT_GT(hi, 0.1);
    EXPECT_GT(lo, 0.0);
    EXPECT_LT(hi, 1.0);
}

TEST(Binomial, ZeroTrials)
{
    BinomialEstimate e{0, 0};
    EXPECT_EQ(e.rate(), 0.0);
    auto [lo, hi] = e.wilson();
    EXPECT_EQ(lo, 0.0);
    EXPECT_EQ(hi, 1.0);
}

TEST(Binomial, WilsonShrinksWithTrials)
{
    BinomialEstimate small{5, 50};
    BinomialEstimate large{500, 5000};
    auto [lo1, hi1] = small.wilson();
    auto [lo2, hi2] = large.wilson();
    EXPECT_LT(hi2 - lo2, hi1 - lo1);
}

TEST(Stats, LogLogCrossingFindsIntersection)
{
    // y1 = x, y2 = x^2: cross at x = 1.
    std::vector<double> xs;
    std::vector<double> y1;
    std::vector<double> y2;
    for (double x : {0.25, 0.5, 1.0, 2.0, 4.0}) {
        xs.push_back(x);
        y1.push_back(x);
        y2.push_back(x * x);
    }
    double c = logLogCrossing(xs, y1, y2);
    EXPECT_NEAR(c, 1.0, 1e-9);
}

TEST(Stats, LogLogCrossingNoneReturnsNegative)
{
    std::vector<double> xs{1, 2, 3};
    std::vector<double> y1{1, 2, 3};
    std::vector<double> y2{2, 4, 6};
    EXPECT_LT(logLogCrossing(xs, y1, y2), 0.0);
}

TEST(Stats, LogLogCrossingSkipsZeros)
{
    std::vector<double> xs{1, 2, 3, 4};
    std::vector<double> y1{0.0, 2, 3, 4};
    std::vector<double> y2{0.0, 4, 3.5, 3.9};
    double c = logLogCrossing(xs, y1, y2);
    EXPECT_GT(c, 2.0);
    EXPECT_LT(c, 4.0);
}

TEST(Stats, Median)
{
    EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
    EXPECT_DOUBLE_EQ(median({4.0, 1.0, 2.0, 3.0}), 2.5);
    EXPECT_DOUBLE_EQ(median({}), 0.0);
    EXPECT_DOUBLE_EQ(median({5.0}), 5.0);
}

TEST(Stats, Logspace)
{
    auto v = logspace(1.0, 100.0, 3);
    ASSERT_EQ(v.size(), 3u);
    EXPECT_NEAR(v[0], 1.0, 1e-12);
    EXPECT_NEAR(v[1], 10.0, 1e-9);
    EXPECT_NEAR(v[2], 100.0, 1e-9);
}

TEST(Table, AlignedOutput)
{
    TablePrinter t({"name", "value"});
    t.addRow({"x", "1"});
    t.addRow({"longer", "2.5"});
    std::ostringstream ss;
    t.print(ss);
    std::string out = ss.str();
    EXPECT_NE(out.find("name"), std::string::npos);
    EXPECT_NE(out.find("longer"), std::string::npos);
    EXPECT_NE(out.find("|---"), std::string::npos);
}

TEST(Table, NumberFormatting)
{
    EXPECT_EQ(TablePrinter::num(1.23456, 2), "1.23");
    EXPECT_EQ(TablePrinter::sci(0.00123, 2), "1.23e-03");
}

TEST(Env, FallbackWhenUnset)
{
    unsetenv("VLQ_TEST_UNSET");
    EXPECT_EQ(envInt("VLQ_TEST_UNSET", 7), 7);
    EXPECT_EQ(envDouble("VLQ_TEST_UNSET", 1.5), 1.5);
    EXPECT_EQ(envString("VLQ_TEST_UNSET", "d"), "d");
}

TEST(Env, ParsesValues)
{
    setenv("VLQ_TEST_SET", "42", 1);
    EXPECT_EQ(envInt("VLQ_TEST_SET", 0), 42);
    setenv("VLQ_TEST_SET", "2.5", 1);
    EXPECT_DOUBLE_EQ(envDouble("VLQ_TEST_SET", 0.0), 2.5);
    setenv("VLQ_TEST_SET", "abc", 1);
    EXPECT_EQ(envInt("VLQ_TEST_SET", 9), 9); // malformed -> fallback
    unsetenv("VLQ_TEST_SET");
}

TEST(Env, RejectsTrailingGarbage)
{
    setenv("VLQ_TEST_SET", "42x", 1);
    EXPECT_EQ(envInt("VLQ_TEST_SET", 7), 7);
    EXPECT_EQ(envU64("VLQ_TEST_SET", 7u), 7u);
    setenv("VLQ_TEST_SET", "42 ", 1); // trailing space is garbage too
    EXPECT_EQ(envInt("VLQ_TEST_SET", 7), 7);
    setenv("VLQ_TEST_SET", "2.5e3q", 1);
    EXPECT_DOUBLE_EQ(envDouble("VLQ_TEST_SET", 1.5), 1.5);
    unsetenv("VLQ_TEST_SET");
}

TEST(Env, RejectsOverflowInsteadOfTruncating)
{
    // One past INT64_MAX: strtoll would saturate to LLONG_MAX; the
    // env readers must fall back instead of running 9.2e18 trials.
    setenv("VLQ_TEST_SET", "9223372036854775808", 1);
    EXPECT_EQ(envInt("VLQ_TEST_SET", 7), 7);
    EXPECT_EQ(envU64("VLQ_TEST_SET", 7u), 7u);
    setenv("VLQ_TEST_SET", "99999999999999999999", 1);
    EXPECT_EQ(envInt("VLQ_TEST_SET", 7), 7);
    setenv("VLQ_TEST_SET", "1e999", 1); // strtod saturates to HUGE_VAL
    EXPECT_DOUBLE_EQ(envDouble("VLQ_TEST_SET", 1.5), 1.5);
    // Literal non-finite spellings are the same garbage-run hazard.
    setenv("VLQ_TEST_SET", "inf", 1);
    EXPECT_DOUBLE_EQ(envDouble("VLQ_TEST_SET", 1.5), 1.5);
    setenv("VLQ_TEST_SET", "nan", 1);
    EXPECT_DOUBLE_EQ(envDouble("VLQ_TEST_SET", 1.5), 1.5);
    unsetenv("VLQ_TEST_SET");
}

TEST(Env, RejectsLeadingWhitespace)
{
    setenv("VLQ_TEST_SET", " 42", 1);
    EXPECT_EQ(envInt("VLQ_TEST_SET", 7), 7);
    EXPECT_EQ(envU64("VLQ_TEST_SET", 7u), 7u);
    setenv("VLQ_TEST_SET", "   ", 1); // whitespace-only
    EXPECT_EQ(envInt("VLQ_TEST_SET", 7), 7);
    setenv("VLQ_TEST_SET", " 2.5", 1);
    EXPECT_DOUBLE_EQ(envDouble("VLQ_TEST_SET", 1.5), 1.5);
    unsetenv("VLQ_TEST_SET");
}

TEST(Env, NegativeCountFallsBack)
{
    setenv("VLQ_TEST_SET", "-5", 1);
    EXPECT_EQ(envInt("VLQ_TEST_SET", 7), -5);  // signed reader: fine
    EXPECT_EQ(envU64("VLQ_TEST_SET", 9u), 9u); // count reader: fallback
    unsetenv("VLQ_TEST_SET");
}

TEST(Env, U64RoundTripsThroughText)
{
    for (int64_t v : {int64_t{0}, int64_t{1}, int64_t{65536},
                      int64_t{9223372036854775807LL}}) {
        setenv("VLQ_TEST_SET", std::to_string(v).c_str(), 1);
        EXPECT_EQ(envU64("VLQ_TEST_SET", 424242u),
                  static_cast<uint64_t>(v));
        EXPECT_EQ(envInt("VLQ_TEST_SET", 424242), v);
    }
    unsetenv("VLQ_TEST_SET");
}

TEST(Env, ParseInt64RejectsJunk)
{
    EXPECT_EQ(parseInt64("42"), 42);
    EXPECT_EQ(parseInt64("-7"), -7);
    EXPECT_EQ(parseInt64("+3"), 3);
    EXPECT_FALSE(parseInt64("").has_value());
    EXPECT_FALSE(parseInt64("abc").has_value());
    EXPECT_FALSE(parseInt64("12abc").has_value());
    EXPECT_FALSE(parseInt64("1.5").has_value());
    EXPECT_FALSE(parseInt64("99999999999999999999").has_value());
    EXPECT_FALSE(parseInt64(" 42").has_value());
    EXPECT_FALSE(parseInt64("42 ").has_value());
    EXPECT_FALSE(parseInt64("  ").has_value());
    // strtoll stops at a NUL, but the token has bytes after it.
    using namespace std::string_view_literals;
    EXPECT_FALSE(parseInt64("10\0" "999"sv).has_value());
    EXPECT_FALSE(parseInt64("7\0"sv).has_value());
    // Exact int64 bounds parse; one past either bound does not.
    EXPECT_EQ(parseInt64("9223372036854775807"),
              int64_t{9223372036854775807LL});
    EXPECT_EQ(parseInt64("-9223372036854775808"),
              std::numeric_limits<int64_t>::min());
    EXPECT_FALSE(parseInt64("9223372036854775808").has_value());
    EXPECT_FALSE(parseInt64("-9223372036854775809").has_value());
}

/** The value of `text` if it is an optional sign followed only by
 *  decimal digits and within int64 range; nothing otherwise. */
std::optional<int64_t>
decimalInt64(std::string_view text)
{
    size_t i = 0;
    const bool negative = !text.empty() && text[0] == '-';
    if (!text.empty() && (text[0] == '+' || text[0] == '-'))
        ++i;
    if (i == text.size())
        return std::nullopt;
    const uint64_t limit = negative ? uint64_t{1} << 63
                                    : (uint64_t{1} << 63) - 1;
    uint64_t magnitude = 0;
    for (; i < text.size(); ++i) {
        if (text[i] < '0' || text[i] > '9')
            return std::nullopt;
        const auto digit = static_cast<uint64_t>(text[i] - '0');
        if (magnitude > (limit - digit) / 10)
            return std::nullopt;
        magnitude = magnitude * 10 + digit;
    }
    if (!negative)
        return static_cast<int64_t>(magnitude);
    return magnitude == uint64_t{1} << 63
        ? std::numeric_limits<int64_t>::min()
        : -static_cast<int64_t>(magnitude);
}

/**
 * One mutant of a random corpus entry, by one of four mutations: a
 * byte flip, a truncation, a splice (a prefix of one entry and a suffix
 * of another), or a token appended.
 */
std::string
mutateNumber(Rng& rng, const std::vector<std::string>& corpus,
             std::span<const char* const> tokens)
{
    const std::string& base = corpus[rng.nextBelow(corpus.size())];
    std::string mutant = base;
    switch (rng.nextBelow(4)) {
    case 0: // byte flip
        mutant[rng.nextBelow(mutant.size())] ^=
            static_cast<char>(1 + rng.nextBelow(255));
        break;
    case 1: // truncation
        mutant.resize(rng.nextBelow(mutant.size()));
        break;
    case 2: { // splice: a prefix of one number, a suffix of another
        const std::string& other = corpus[rng.nextBelow(corpus.size())];
        mutant = base.substr(0, rng.nextBelow(base.size() + 1))
               + other.substr(rng.nextBelow(other.size() + 1));
        break;
    }
    default: // a token appended
        mutant += tokens[rng.nextBelow(tokens.size())];
    }
    return mutant;
}

const std::vector<std::string> kIntCorpus{
    "0", "42", "-7", "+19", "007", "1000000",
    "9223372036854775807", "-9223372036854775808"};
const char* const kIntTokens[] = {"0", "9", "-", "+", " ", "x", "e3"};

TEST(EnvFuzz, ParseInt64MutantsAreNothingOrTheirDecimalValue)
{
    Rng rng(0x1764);
    int parsed = 0;
    for (int iter = 0; iter < 4000; ++iter) {
        const std::string mutant = mutateNumber(rng, kIntCorpus, kIntTokens);
        const std::optional<int64_t> got = parseInt64(mutant);
        EXPECT_EQ(got, decimalInt64(mutant)) << "'" << mutant << "'";
        parsed += got.has_value() ? 1 : 0;
    }
    EXPECT_GT(parsed, 0);
}

/**
 * Set the fuzz variable to `mutant` and return what getenv will read:
 * the mutant up to its first NUL (the environment holds C strings).
 */
std::string
setFuzzVariable(const std::string& mutant)
{
    setenv("VLQ_TEST_FUZZ", mutant.c_str(), 1);
    return std::string(mutant.c_str());
}

TEST(EnvFuzz, EnvIntAndEnvU64MutantsAreTheirDecimalValueOrTheFallback)
{
    // A set value is read exactly as the decimal reader reads it, or
    // replaced by the fallback with a warning; envU64 also takes a
    // negative value for the fallback, never a wrapped count.
    constexpr int64_t kFallback = 424242;
    Rng rng(0x2875);
    int parsed = 0;
    int negative = 0;
    for (int iter = 0; iter < 4000; ++iter) {
        const std::string value =
            setFuzzVariable(mutateNumber(rng, kIntCorpus, kIntTokens));
        const std::optional<int64_t> decimal = decimalInt64(value);
        testing::internal::CaptureStderr();
        const int64_t gotInt = envInt("VLQ_TEST_FUZZ", kFallback);
        const uint64_t gotU64 = envU64("VLQ_TEST_FUZZ", kFallback);
        const std::string err = testing::internal::GetCapturedStderr();
        EXPECT_EQ(gotInt, decimal.value_or(kFallback)) << "'" << value << "'";
        const bool count = decimal && *decimal >= 0;
        EXPECT_EQ(gotU64, count ? static_cast<uint64_t>(*decimal)
                                : uint64_t{kFallback})
            << "'" << value << "'";
        // One warning per read that fell back on a set value.
        const size_t warnings = (value.empty() || decimal ? 0 : 2)
            + (decimal && *decimal < 0 ? 1 : 0);
        size_t seen = 0;
        for (size_t at = err.find("warn: "); at != std::string::npos;
             at = err.find("warn: ", at + 1))
            ++seen;
        EXPECT_EQ(seen, warnings) << "'" << value << "': " << err;
        parsed += decimal ? 1 : 0;
        negative += decimal && *decimal < 0 ? 1 : 0;
    }
    unsetenv("VLQ_TEST_FUZZ");
    EXPECT_GT(parsed, 0);
    EXPECT_GT(negative, 0);
}

TEST(EnvFuzz, EnvDoubleMutantsAreFiniteAndFullyReadOrTheFallback)
{
    // A value envDouble returns is finite and reads the whole variable;
    // a plain decimal (sign, digits, point, exponent) in range is read
    // to exactly the double std::from_chars gives it.
    const std::vector<std::string> corpus{
        "0", "1.5", "-2.25", "+7", "3e-3", "1e6", "0.001", ".5", "2.",
        "-1E+2", "1e308", "6.02214076e23"};
    const char* const tokens[] = {"0", "9", ".", "e", "-", " ", "x", "f"};
    constexpr double kFallback = -4242.5;
    const std::regex plainDecimal(
        R"([+-]?([0-9]+\.?[0-9]*|\.[0-9]+)([eE][+-]?[0-9]+)?)");
    Rng rng(0x3986);
    int decimals = 0;
    for (int iter = 0; iter < 4000; ++iter) {
        const std::string value =
            setFuzzVariable(mutateNumber(rng, corpus, tokens));
        testing::internal::CaptureStderr();
        const double got = envDouble("VLQ_TEST_FUZZ", kFallback);
        const std::string err = testing::internal::GetCapturedStderr();
        if (got != kFallback) {
            EXPECT_TRUE(std::isfinite(got)) << "'" << value << "'";
            EXPECT_FALSE(value.empty());
            char* end = nullptr;
            EXPECT_EQ(std::strtod(value.c_str(), &end), got)
                << "'" << value << "'";
            EXPECT_EQ(end, value.c_str() + value.size())
                << "'" << value << "'";
            EXPECT_EQ(err, "") << "'" << value << "'";
        } else {
            EXPECT_EQ(err.empty(), value.empty()) << "'" << value << "'";
        }
        if (!std::regex_match(value, plainDecimal))
            continue;
        // from_chars takes no '+'.
        const size_t skip = value[0] == '+' ? 1 : 0;
        double expected = 0.0;
        const auto [ptr, ec] = std::from_chars(
            value.data() + skip, value.data() + value.size(), expected);
        ASSERT_EQ(ptr, value.data() + value.size()) << "'" << value << "'";
        // Past the normal range only the fallback is sure: whether an
        // underflow reads as a subnormal or is rejected is the C
        // library's call.
        constexpr double kTiny = std::numeric_limits<double>::min();
        if (ec == std::errc::result_out_of_range) {
            EXPECT_TRUE(got == kFallback || std::fabs(got) < kTiny)
                << "'" << value << "' read as " << got;
            continue;
        }
        if (expected != 0.0 && std::fabs(expected) < kTiny) {
            EXPECT_TRUE(got == kFallback || got == expected)
                << "'" << value << "' read as " << got;
            continue;
        }
        EXPECT_EQ(got, expected) << "'" << value << "'";
        ++decimals;
    }
    unsetenv("VLQ_TEST_FUZZ");
    EXPECT_GT(decimals, 0);
}

TEST(EnvFuzz, EnvBoundedMutantsAreInRangeTheFallbackOrNothing)
{
    // A set value in the field's range is read exactly; anything else
    // set is rejected by name; unset or empty is the fallback.
    const std::vector<std::string> corpus{
        "1", "64", "256", "4294967295", "4294967296", "0", "-1", "+8"};
    constexpr int64_t kLo = 1;
    constexpr int64_t kHi = std::numeric_limits<uint32_t>::max();
    Rng rng(0x4a97);
    int inRange = 0;
    int rejected = 0;
    unsetenv("VLQ_TEST_FUZZ");
    EXPECT_EQ(envBounded("VLQ_TEST_FUZZ", 5, kLo, kHi), 5);
    for (int iter = 0; iter < 4000; ++iter) {
        const std::string value =
            setFuzzVariable(mutateNumber(rng, corpus, kIntTokens));
        const std::optional<int64_t> decimal = decimalInt64(value);
        testing::internal::CaptureStderr();
        const std::optional<int64_t> got =
            envBounded("VLQ_TEST_FUZZ", 5, kLo, kHi);
        const std::string err = testing::internal::GetCapturedStderr();
        if (value.empty()) {
            EXPECT_EQ(got, 5);
        } else if (decimal && *decimal >= kLo && *decimal <= kHi) {
            EXPECT_EQ(got, decimal) << "'" << value << "'";
            ++inRange;
        } else {
            EXPECT_FALSE(got.has_value()) << "'" << value << "'";
            EXPECT_EQ(err.rfind("error: VLQ_TEST_FUZZ must be an integer "
                                "in 1..4294967295, got '", 0),
                      0u)
                << err;
            ++rejected;
            continue;
        }
        EXPECT_EQ(err, "") << "'" << value << "'";
    }
    unsetenv("VLQ_TEST_FUZZ");
    EXPECT_GT(inRange, 0);
    EXPECT_GT(rejected, 0);
}

TEST(Env, ParseInt64RoundTripsBoundaryValues)
{
    for (int64_t v : {std::numeric_limits<int64_t>::min(), int64_t{-1},
                      int64_t{0}, int64_t{1},
                      std::numeric_limits<int64_t>::max()}) {
        auto parsed = parseInt64(std::to_string(v));
        ASSERT_TRUE(parsed.has_value()) << v;
        EXPECT_EQ(*parsed, v);
    }
}

TEST(Env, ParseBoundedRejectsCountsThatDoNotFitTheirField)
{
    // A count read into an unsigned stops at its maximum: 2^32 once
    // became 0 (every core) and 2^32 + 1 one worker. example_scan_server
    // stops --threads lower, at service::kMaxThreads, since a point
    // starts min(threads, batches) workers. Nothing here starts one.
    constexpr int64_t kUnsigned = std::numeric_limits<unsigned>::max();
    constexpr int64_t kThreads = service::kMaxThreads;
    EXPECT_EQ(kThreads, 1024);
    EXPECT_EQ(parseBounded("--threads", "0", 0, kThreads), 0);
    EXPECT_EQ(parseBounded("--threads", "1024", 0, kThreads), kThreads);
    EXPECT_EQ(parseBounded("--count", "4294967295", 0, kUnsigned),
              kUnsigned);
    testing::internal::CaptureStderr();
    for (const char* text :
         {"1025", "4294967295", "4294967297", "-1", "4x", ""})
        EXPECT_FALSE(parseBounded("--threads", text, 0, kThreads)) << text;
    for (const char* text : {"4294967296", "4294967297"})
        EXPECT_FALSE(parseBounded("--count", text, 0, kUnsigned)) << text;
    const std::string err = testing::internal::GetCapturedStderr();
    EXPECT_NE(err.find("error: --threads must be an integer in 0..1024, "
                       "got '1025'"),
              std::string::npos)
        << err;
    EXPECT_NE(err.find("error: --count must be an integer in "
                       "0..4294967295, got '4294967297'"),
              std::string::npos)
        << err;
    EXPECT_NE(err.find("got '-1'"), std::string::npos) << err;
}

TEST(Env, EnvBoundedNamesTheVariableItRejects)
{
    // The bounded reads of example_threshold_scan and
    // bench_fig11_thresholds (VLQ_BATCH, VLQ_POINTS) and of
    // bench_error_budget (VLQ_DISTANCE): one past either end of the
    // field, or junk, is rejected by name. VLQ_BATCH=4294967296 once
    // ran one-trial batches.
    constexpr int64_t kU32 = std::numeric_limits<uint32_t>::max();
    constexpr int64_t kInt = std::numeric_limits<int>::max();
    struct Read
    {
        const char* name;
        int64_t lo;
        int64_t hi;
    };
    for (const Read& read : {Read{"VLQ_BATCH", 1, kU32},
                             Read{"VLQ_POINTS", 1, kInt},
                             Read{"VLQ_DISTANCE", 3, kInt}}) {
        unsetenv(read.name);
        EXPECT_EQ(envBounded(read.name, 5, read.lo, read.hi), 5);
        setenv(read.name, std::to_string(read.hi).c_str(), 1);
        EXPECT_EQ(envBounded(read.name, 5, read.lo, read.hi), read.hi);
        setenv(read.name, std::to_string(read.lo).c_str(), 1);
        EXPECT_EQ(envBounded(read.name, 5, read.lo, read.hi), read.lo);

        for (const std::string& text :
             {std::to_string(read.hi + 1), std::to_string(read.lo - 1),
              std::string("abc")}) {
            setenv(read.name, text.c_str(), 1);
            testing::internal::CaptureStderr();
            EXPECT_FALSE(envBounded(read.name, 5, read.lo, read.hi))
                << read.name << "=" << text;
            const std::string err = testing::internal::GetCapturedStderr();
            EXPECT_NE(err.find(std::string("error: ") + read.name
                               + " must be an integer in "),
                      std::string::npos)
                << err;
            EXPECT_NE(err.find("got '" + text + "'"), std::string::npos)
                << err;
        }
        unsetenv(read.name);
    }
}

TEST(Flags, ParsesKnownFlagPairs)
{
    std::string csv;
    std::string ckpt = "preset"; // flag absent -> preset survives
    char prog[] = "prog";
    char f1[] = "--csv";
    char v1[] = "out.csv";
    char* argv[] = {prog, f1, v1};
    EXPECT_TRUE(parseFlagArgs(3, argv,
                              {{"--csv", &csv},
                               {"--checkpoint", &ckpt}}));
    EXPECT_EQ(csv, "out.csv");
    EXPECT_EQ(ckpt, "preset");
}

TEST(Flags, RejectsUnknownAndTypoedFlags)
{
    std::string csv;
    char prog[] = "prog";
    char typo[] = "--cvs"; // the classic bench-wasting typo
    char v1[] = "out.csv";
    char* argv[] = {prog, typo, v1};
    EXPECT_FALSE(parseFlagArgs(3, argv, {{"--csv", &csv}}));

    char stray[] = "positional";
    char* argv2[] = {prog, stray};
    EXPECT_FALSE(parseFlagArgs(2, argv2, {{"--csv", &csv}}));
}

TEST(Flags, RejectsFlagMissingItsValue)
{
    std::string csv;
    char prog[] = "prog";
    char f1[] = "--csv";
    char* argv[] = {prog, f1};
    EXPECT_FALSE(parseFlagArgs(2, argv, {{"--csv", &csv}}));
}

TEST(Flags, CsvFlagStillParses)
{
    std::string csv;
    char prog[] = "prog";
    char f1[] = "--csv";
    char v1[] = "x.csv";
    char* argv[] = {prog, f1, v1};
    EXPECT_TRUE(parseCsvFlag(3, argv, csv));
    EXPECT_EQ(csv, "x.csv");
    char* argv2[] = {prog};
    EXPECT_TRUE(parseCsvFlag(1, argv2, csv));
    EXPECT_EQ(csv, "");
}

TEST(Flags, RequireNoArgs)
{
    char prog[] = "prog";
    char* argv1[] = {prog};
    EXPECT_TRUE(requireNoArgs(1, argv1));
    char extra[] = "--surprise";
    char* argv2[] = {prog, extra};
    EXPECT_FALSE(requireNoArgs(2, argv2));
}

TEST(Env, NameListContains)
{
    EXPECT_TRUE(nameListContains("uf unionfind", "uf"));
    EXPECT_TRUE(nameListContains("uf unionfind", "unionfind"));
    EXPECT_FALSE(nameListContains("uf unionfind", "union"));
    EXPECT_FALSE(nameListContains("", "uf"));
}

TEST(ThreadPool, CoversRangeOnce)
{
    // Every worker index in [0, 4) runs once, and workers that take
    // items from a shared counter cover [0, 1000) once between them.
    std::vector<std::atomic<int>> workers(4);
    std::vector<std::atomic<int>> hits(1000);
    std::atomic<uint64_t> next{0};
    ThreadPool pool(4, [&](unsigned w) {
        workers[w].fetch_add(1);
        for (uint64_t i = next++; i < hits.size(); i = next++)
            hits[i].fetch_add(1);
    });
    pool.join();
    for (const auto& w : workers)
        EXPECT_EQ(w.load(), 1);
    for (const auto& h : hits)
        EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, CallingThreadKeepsRunning)
{
    // The constructor returns while its one worker still waits for the
    // calling thread: the worker runs beside it, on a thread of its own.
    // (Run inline, the worker would give up waiting after 10 s.)
    std::promise<void> go;
    std::future<void> released = go.get_future();
    bool wasReleased = false;
    std::thread::id workerId;
    ThreadPool pool(1, [&](unsigned w) {
        EXPECT_EQ(w, 0u);
        wasReleased = released.wait_for(std::chrono::seconds(10))
            == std::future_status::ready;
        workerId = std::this_thread::get_id();
    });
    go.set_value();
    pool.join();
    EXPECT_TRUE(wasReleased);
    EXPECT_NE(workerId, std::this_thread::get_id());
}

TEST(ThreadPool, EmptyRange)
{
    // No workers: nothing runs, and join() returns at once.
    bool called = false;
    ThreadPool pool(0, [&](unsigned) { called = true; });
    pool.join();
    EXPECT_FALSE(called);
}

TEST(Csv, HeaderAndRows)
{
    CsvWriter csv({"x", "y"});
    csv.addRow({"1", "2"});
    csv.addNumericRow({3.5, 4.25});
    std::string s = csv.str();
    EXPECT_EQ(s, "x,y\n1,2\n3.5,4.25\n");
}

TEST(Csv, EscapesSpecialCells)
{
    CsvWriter csv({"a"});
    csv.addRow({"hello, world"});
    csv.addRow({"quote\"inside"});
    std::string s = csv.str();
    EXPECT_NE(s.find("\"hello, world\""), std::string::npos);
    EXPECT_NE(s.find("\"quote\"\"inside\""), std::string::npos);
}

TEST(Csv, WritesFile)
{
    CsvWriter csv({"v"});
    csv.addNumericRow({42.0});
    std::string path = "/tmp/vlq_test_csv.csv";
    ASSERT_TRUE(csv.writeFile(path));
    std::ifstream in(path);
    std::string line;
    std::getline(in, line);
    EXPECT_EQ(line, "v");
    std::getline(in, line);
    EXPECT_EQ(line, "42");
}

TEST(Csv, FailsOnBadPath)
{
    CsvWriter csv({"v"});
    EXPECT_FALSE(csv.writeFile("/nonexistent-dir/x.csv"));
}

} // namespace
} // namespace vlq
