/**
 * @file Tests for the support layer: formatting, RNG, tables, codecs
 * and the keyed single-flight table.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <map>
#include <mutex>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "support/cancel.hh"
#include "support/codec.hh"
#include "support/logging.hh"
#include "support/parallel.hh"
#include "support/rng.hh"
#include "support/single_flight.hh"
#include "support/table.hh"

namespace yasim {
namespace {

TEST(Csprintf, FormatsLikePrintf)
{
    EXPECT_EQ(csprintf("x=%d y=%s", 42, "abc"), "x=42 y=abc");
    EXPECT_EQ(csprintf("%.2f", 1.5), "1.50");
    EXPECT_EQ(csprintf("empty"), "empty");
}

TEST(Csprintf, HandlesLongStrings)
{
    std::string long_arg(10000, 'z');
    std::string out = csprintf("<%s>", long_arg.c_str());
    EXPECT_EQ(out.size(), long_arg.size() + 2);
    EXPECT_EQ(out.front(), '<');
    EXPECT_EQ(out.back(), '>');
}

TEST(ParseDecimal, TakesWholeDecimalDigitsOnly)
{
    uint64_t v = 0;
    EXPECT_TRUE(parseDecimal("0", v));
    EXPECT_EQ(v, 0u);
    EXPECT_TRUE(parseDecimal("007", v));
    EXPECT_EQ(v, 7u);
    EXPECT_TRUE(parseDecimal("18446744073709551615", v));
    EXPECT_EQ(v, UINT64_MAX);

    // Refusals leave the value alone.
    for (const char *bad : {"", "-1", "+1", " 1", "1 ", "64k", "0x7",
                            "1e6", "two", "18446744073709551616"}) {
        v = 42;
        EXPECT_FALSE(parseDecimal(bad, v)) << "'" << bad << "'";
        EXPECT_EQ(v, 42u) << "'" << bad << "'";
    }
}

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(123), b(123);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        if (a.next() == b.next())
            ++same;
    EXPECT_LT(same, 3);
}

TEST(Rng, NextBelowRespectsBound)
{
    Rng rng(7);
    for (uint64_t bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL}) {
        for (int i = 0; i < 200; ++i)
            EXPECT_LT(rng.nextBelow(bound), bound);
    }
}

TEST(Rng, NextBelowCoversRange)
{
    Rng rng(99);
    std::set<uint64_t> seen;
    for (int i = 0; i < 1000; ++i)
        seen.insert(rng.nextBelow(8));
    EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, NextRangeInclusive)
{
    Rng rng(5);
    std::set<int64_t> seen;
    for (int i = 0; i < 500; ++i) {
        int64_t v = rng.nextRange(-2, 2);
        EXPECT_GE(v, -2);
        EXPECT_LE(v, 2);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, DoubleInUnitInterval)
{
    Rng rng(11);
    double sum = 0.0;
    for (int i = 0; i < 10000; ++i) {
        double d = rng.nextDouble();
        ASSERT_GE(d, 0.0);
        ASSERT_LT(d, 1.0);
        sum += d;
    }
    EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, GaussianMoments)
{
    Rng rng(13);
    double sum = 0.0, sq = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        double g = rng.nextGaussian();
        sum += g;
        sq += g * g;
    }
    EXPECT_NEAR(sum / n, 0.0, 0.05);
    EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(Rng, BernoulliProbability)
{
    Rng rng(17);
    int hits = 0;
    for (int i = 0; i < 10000; ++i)
        if (rng.nextBool(0.3))
            ++hits;
    EXPECT_NEAR(hits / 10000.0, 0.3, 0.03);
}

TEST(SplitMix, AdvancesState)
{
    uint64_t s = 0;
    uint64_t a = splitMix64(s);
    uint64_t b = splitMix64(s);
    EXPECT_NE(a, b);
    EXPECT_NE(s, 0u);
}

TEST(Table, AlignsColumns)
{
    Table t("demo");
    t.setHeader({"name", "value"});
    t.addRow({"a", "1"});
    t.addRow({"long-name", "22"});
    std::ostringstream os;
    t.print(os);
    std::string out = os.str();
    EXPECT_NE(out.find("== demo =="), std::string::npos);
    EXPECT_NE(out.find("long-name"), std::string::npos);
    // Right-aligned numeric column: " 1" has leading space.
    EXPECT_NE(out.find(" 1\n"), std::string::npos);
}

TEST(Table, CsvEscapesSpecials)
{
    Table t("demo");
    t.setHeader({"name", "value"});
    t.addRow({"a,b", "say \"hi\""});
    std::ostringstream os;
    t.printCsv(os);
    EXPECT_NE(os.str().find("\"a,b\""), std::string::npos);
    EXPECT_NE(os.str().find("\"say \"\"hi\"\"\""), std::string::npos);
}

TEST(Table, NumberFormatters)
{
    EXPECT_EQ(Table::num(3.14159, 2), "3.14");
    EXPECT_EQ(Table::pct(12.345, 1), "12.3%");
    EXPECT_EQ(Table::count(1234567), "1,234,567");
    EXPECT_EQ(Table::count(12), "12");
    EXPECT_EQ(Table::count(0), "0");
}

TEST(Parallel, MapPreservesOrder)
{
    auto out = parallelMap<int>(
        32, [](size_t i) { return static_cast<int>(i) * 3; });
    ASSERT_EQ(out.size(), 32u);
    for (int i = 0; i < 32; ++i)
        EXPECT_EQ(out[static_cast<size_t>(i)], i * 3);
}

TEST(Parallel, WorkersAtLeastOne)
{
    EXPECT_GE(parallelWorkers(), 1u);
}

TEST(Parallel, EmptyInput)
{
    auto out = parallelMap<int>(0, [](size_t) { return 1; });
    EXPECT_TRUE(out.empty());
}

TEST(Table, CountsRowsIgnoringRules)
{
    Table t("demo");
    t.setHeader({"a"});
    t.addRow({"x"});
    t.addRule();
    t.addRow({"y"});
    EXPECT_EQ(t.numRows(), 2u);
}

TEST(Codec, VarintRoundTripsBoundaryValues)
{
    const uint64_t values[] = {0,
                               1,
                               127,
                               128,
                               16383,
                               16384,
                               (1ULL << 32) - 1,
                               1ULL << 32,
                               ~0ULL - 1,
                               ~0ULL};
    for (uint64_t v : values) {
        std::string bytes;
        putVarint(bytes, v);
        EXPECT_LE(bytes.size(), 10u);
        size_t at = 0;
        uint64_t back = 1; // poison
        ASSERT_TRUE(getVarint(bytes, at, back)) << v;
        EXPECT_EQ(back, v);
        EXPECT_EQ(at, bytes.size()) << v;
    }
}

TEST(Codec, VarintRejectsTruncationAndOverlongEncodings)
{
    std::string bytes;
    putVarint(bytes, ~0ULL);
    ASSERT_EQ(bytes.size(), 10u);
    for (size_t cut = 0; cut < bytes.size(); ++cut) {
        size_t at = 0;
        uint64_t v = 0;
        EXPECT_FALSE(
            getVarint(std::string_view(bytes).substr(0, cut), at, v))
            << cut;
    }
    // An 11-byte encoding (10 continuation bytes) is never canonical.
    std::string overlong(10, char(0x80));
    overlong.push_back(0x01);
    size_t at = 0;
    uint64_t v = 0;
    EXPECT_FALSE(getVarint(overlong, at, v));
    // Nor is a 10th byte carrying bits past 2^64.
    std::string toobig(9, char(0x80));
    toobig.push_back(0x02);
    at = 0;
    EXPECT_FALSE(getVarint(toobig, at, v));
}

TEST(Codec, ZigzagRoundTripsAndKeepsSmallMagnitudesSmall)
{
    const int64_t values[] = {0,  -1, 1,  -2, 2, INT64_MAX,
                              INT64_MIN, 123456789, -123456789};
    for (int64_t v : values)
        EXPECT_EQ(zigzagDecode(zigzagEncode(v)), v) << v;
    EXPECT_EQ(zigzagEncode(0), 0u);
    EXPECT_EQ(zigzagEncode(-1), 1u);
    EXPECT_EQ(zigzagEncode(1), 2u);
    EXPECT_EQ(zigzagEncode(-2), 3u);
}

TEST(Codec, RleRoundTripsRunsSinglesAndRandomStrings)
{
    Rng rng(7);
    std::vector<std::string> inputs = {
        "", "a", "ab", "aa", "aaa", std::string(100000, 'x'),
        "aabbaabb", std::string(257, 'z') + "q" + std::string(2, 'z')};
    for (int i = 0; i < 20; ++i) {
        std::string s;
        for (int j = 0; j < 500; ++j)
            s.append(rng.nextBelow(9) + 1,
                     static_cast<char>(rng.nextBelow(4)));
        inputs.push_back(std::move(s));
    }
    for (const std::string &in : inputs) {
        std::string enc, dec;
        rleEncode(in, enc);
        // Worst case (alternating pairs) expands 3 bytes per 2 input.
        EXPECT_LE(enc.size(), in.size() + in.size() / 2 + 2);
        ASSERT_TRUE(rleDecode(enc, dec, in.size()));
        EXPECT_EQ(dec, in);
    }
}

TEST(Codec, RleDecodeEnforcesTheOutputCapAndRejectsTruncation)
{
    std::string enc, dec;
    rleEncode(std::string(1000, 'r'), enc);
    EXPECT_FALSE(rleDecode(enc, dec, 999));
    dec.clear();
    EXPECT_TRUE(rleDecode(enc, dec, 1000));
    EXPECT_EQ(dec.size(), 1000u);
    // A run header whose repeat varint is cut off is malformed.
    std::string truncated("rr");
    dec.clear();
    EXPECT_FALSE(rleDecode(truncated, dec, 1000));
    // A hostile repeat count must be capped, not allocated.
    std::string hostile("rr");
    putVarint(hostile, ~0ULL - 2);
    dec.clear();
    EXPECT_FALSE(rleDecode(hostile, dec, 1 << 20));
}

/**
 * Spin until @p ready holds: a gate on another thread's progress. A gate
 * still shut after 10 s fails the test instead of hanging it.
 */
template <typename Ready>
void
awaitGate(Ready ready)
{
    const int64_t give_up = monotonicNowMs() + 10'000;
    while (!ready()) {
        if (monotonicNowMs() > give_up) {
            ADD_FAILURE() << "gate still shut after 10 s";
            return;
        }
        std::this_thread::yield();
    }
}

/** A token that fires after 10 s: a wait that never ends fails. */
CancelToken
patience()
{
    CancelSource source;
    source.setDeadlineAfterMs(10'000);
    return source.token();
}

/**
 * A SingleFlight caller shaped like the engine, the trace store and
 * SimPoint: a cache of finished values under one mutex, looked up
 * before the flight table. It counts the calls that found their key in
 * flight, so a test can wait until they are all waiting.
 */
struct FlightCaller
{
    using Outcome = SingleFlight<int>::Outcome;

    template <typename Compute>
    Outcome get(const std::string &key, const CancelToken &cancel,
                Compute compute)
    {
        std::unique_lock<std::mutex> lock(mutex);
        auto it = cache.find(key);
        if (it != cache.end())
            return {it->second, false};
        if (flights.running(key))
            ++waiting;
        Outcome outcome = flights.run(lock, key, cancel, compute);
        if (!outcome.joined)
            cache.emplace(key, outcome.value);
        return outcome;
    }

    bool running(const std::string &key)
    {
        std::lock_guard<std::mutex> lock(mutex);
        return flights.running(key);
    }

    std::mutex mutex;
    std::map<std::string, int> cache;
    SingleFlight<int> flights{mutex};
    std::atomic<int> waiting{0};
    std::atomic<int> computations{0};
};

constexpr int kFlightCallers = 8;

TEST(SingleFlight, ConcurrentCallersComputeOnce)
{
    // The first caller's computation holds until the other seven wait
    // on it, so all of them join it.
    FlightCaller caller;
    std::vector<FlightCaller::Outcome> got(kFlightCallers);
    std::atomic<int> stranded{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kFlightCallers; ++t)
        threads.emplace_back([&, t] {
            try {
                got[t] = caller.get("k", patience(), [&] {
                    ++caller.computations;
                    awaitGate([&] {
                        return caller.waiting.load() ==
                               kFlightCallers - 1;
                    });
                    return 42;
                });
            } catch (const CancelledError &) {
                ++stranded;
            }
        });
    for (std::thread &thread : threads)
        thread.join();

    EXPECT_EQ(stranded.load(), 0);
    EXPECT_EQ(caller.computations.load(), 1);
    int joined = 0;
    for (const FlightCaller::Outcome &outcome : got) {
        EXPECT_EQ(outcome.value, 42);
        joined += outcome.joined;
    }
    EXPECT_EQ(joined, kFlightCallers - 1);
    EXPECT_FALSE(caller.running("k"));
}

TEST(SingleFlight, ThrowingOwnerHandsOffToOneWaiter)
{
    // The first computation throws once the other seven wait on it.
    // Exactly one of them computes in its place, and the other six get
    // that value.
    FlightCaller caller;
    std::vector<FlightCaller::Outcome> got(kFlightCallers);
    std::atomic<int> threw{0};
    std::atomic<int> stranded{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kFlightCallers; ++t)
        threads.emplace_back([&, t] {
            try {
                got[t] = caller.get("k", patience(), [&] {
                    if (++caller.computations == 1) {
                        awaitGate([&] {
                            return caller.waiting.load() ==
                                   kFlightCallers - 1;
                        });
                        throw std::runtime_error("first computation");
                    }
                    return 42;
                });
            } catch (const std::runtime_error &) {
                ++threw;
            } catch (const CancelledError &) {
                ++stranded;
            }
        });
    for (std::thread &thread : threads)
        thread.join();

    EXPECT_EQ(threw.load(), 1);
    EXPECT_EQ(stranded.load(), 0);
    EXPECT_EQ(caller.computations.load(), 2);
    int served = 0;
    int joined = 0;
    for (const FlightCaller::Outcome &outcome : got) {
        served += outcome.value == 42;
        joined += outcome.joined;
    }
    EXPECT_EQ(served, kFlightCallers - 1);
    EXPECT_EQ(joined, kFlightCallers - 2);
    EXPECT_FALSE(caller.running("k"));
}

TEST(SingleFlight, WaiterCancelFiresWhileOwnerRuns)
{
    // A waiter's own cancellation ends its wait while the computation
    // it joined still runs; that computation then finishes as usual.
    FlightCaller caller;
    std::atomic<bool> release{false};
    FlightCaller::Outcome owned;
    std::thread owner([&] {
        owned = caller.get("k", CancelToken(), [&] {
            ++caller.computations;
            awaitGate([&] { return release.load(); });
            return 42;
        });
    });
    awaitGate([&] { return caller.computations.load() == 1; });

    CancelSource source;
    source.cancel();
    CancelCause cause = CancelCause::None;
    try {
        caller.get("k", source.token(), [&] {
            ++caller.computations;
            return 0;
        });
    } catch (const CancelledError &err) {
        cause = err.cause;
    }
    EXPECT_EQ(cause, CancelCause::Cancelled);
    EXPECT_EQ(caller.waiting.load(), 1);
    EXPECT_TRUE(caller.running("k"));
    release = true;
    owner.join();

    EXPECT_EQ(owned.value, 42);
    EXPECT_FALSE(owned.joined);
    EXPECT_EQ(caller.computations.load(), 1);
    EXPECT_FALSE(caller.running("k"));
}

} // namespace
} // namespace yasim
