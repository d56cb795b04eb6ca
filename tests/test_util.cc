#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <optional>
#include <set>
#include <sstream>
#include <string_view>

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

TEST(EnvFuzz, ParseInt64MutantsAreNothingOrTheirDecimalValue)
{
    const std::vector<std::string> corpus{
        "0", "42", "-7", "+19", "007", "1000000",
        "9223372036854775807", "-9223372036854775808"};
    const char* const tokens[] = {"0", "9", "-", "+", " ", "x", "e3"};
    Rng rng(0x1764);
    int parsed = 0;
    for (int iter = 0; iter < 4000; ++iter) {
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
            const std::string& other =
                corpus[rng.nextBelow(corpus.size())];
            mutant = base.substr(0, rng.nextBelow(base.size() + 1))
                   + other.substr(rng.nextBelow(other.size() + 1));
            break;
        }
        default: // a token appended
            mutant += tokens[rng.nextBelow(std::size(tokens))];
        }
        const std::optional<int64_t> got = parseInt64(mutant);
        EXPECT_EQ(got, decimalInt64(mutant)) << "'" << mutant << "'";
        parsed += got.has_value() ? 1 : 0;
    }
    EXPECT_GT(parsed, 0);
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
    // example_scan_server --threads lands in an unsigned: 2^32 once
    // became 0 (every core) and 2^32 + 1 one worker.
    constexpr int64_t kThreads = std::numeric_limits<unsigned>::max();
    EXPECT_EQ(parseBounded("--threads", "0", 0, kThreads), 0);
    EXPECT_EQ(parseBounded("--threads", "4294967295", 0, kThreads),
              kThreads);
    testing::internal::CaptureStderr();
    for (const char* text : {"4294967296", "4294967297", "-1", "4x", ""})
        EXPECT_FALSE(parseBounded("--threads", text, 0, kThreads)) << text;
    const std::string err = testing::internal::GetCapturedStderr();
    EXPECT_NE(err.find("error: --threads must be an integer in "
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
    ThreadPool pool(4);
    std::vector<std::atomic<int>> hits(1000);
    pool.parallelFor(1000, [&](uint64_t b, uint64_t e, unsigned) {
        for (uint64_t i = b; i < e; ++i)
            hits[i].fetch_add(1);
    });
    for (const auto& h : hits)
        EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, SingleThreadInline)
{
    ThreadPool pool(1);
    EXPECT_EQ(pool.numThreads(), 1u);
    uint64_t sum = 0;
    pool.parallelFor(100, [&](uint64_t b, uint64_t e, unsigned w) {
        EXPECT_EQ(w, 0u);
        for (uint64_t i = b; i < e; ++i)
            sum += i;
    });
    EXPECT_EQ(sum, 4950u);
}

TEST(ThreadPool, EmptyRange)
{
    ThreadPool pool(4);
    bool called = false;
    pool.parallelFor(0, [&](uint64_t, uint64_t, unsigned) {
        called = true;
    });
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
