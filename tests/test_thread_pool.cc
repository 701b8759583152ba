/** @file Tests for the work-stealing thread pool and parallelMap. */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "support/parallel.hh"
#include "support/thread_pool.hh"

namespace yasim {
namespace {

TEST(ThreadPool, EveryIndexRunsExactlyOnce)
{
    ThreadPool pool(3);
    constexpr size_t kCount = 1000;
    std::vector<std::atomic<int>> hits(kCount);
    pool.parallelFor(kCount, [&](size_t i) { hits[i].fetch_add(1); });
    for (size_t i = 0; i < kCount; ++i)
        EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ThreadPool, ConcurrencyIsBoundedByParticipants)
{
    // 3 worker threads + the calling thread = at most 4 concurrent
    // tasks, however many are submitted.
    ThreadPool pool(3);
    std::atomic<int> in_flight{0};
    std::atomic<int> peak{0};
    pool.parallelFor(64, [&](size_t) {
        int now = in_flight.fetch_add(1) + 1;
        int prev = peak.load();
        while (now > prev && !peak.compare_exchange_weak(prev, now)) {
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        in_flight.fetch_sub(1);
    });
    EXPECT_LE(peak.load(), 4);
    EXPECT_GE(peak.load(), 1);
}

TEST(ThreadPool, CallerParticipates)
{
    ThreadPool pool(2);
    const std::thread::id caller = std::this_thread::get_id();
    std::atomic<int> caller_ran{0};
    pool.parallelFor(256, [&](size_t) {
        if (std::this_thread::get_id() == caller)
            caller_ran.fetch_add(1);
        std::this_thread::sleep_for(std::chrono::microseconds(100));
    });
    EXPECT_GT(caller_ran.load(), 0);
    EXPECT_GT(pool.stats().callerTasks, 0u);
}

TEST(ThreadPool, NestedBatchesRunInline)
{
    ThreadPool pool(3);
    std::atomic<uint64_t> total{0};
    pool.parallelFor(8, [&](size_t) {
        // A nested batch must not deadlock; it runs serially inline.
        pool.parallelFor(10, [&](size_t j) { total.fetch_add(j); });
    });
    EXPECT_EQ(total.load(), 8u * 45u);
}

TEST(ThreadPool, ZeroWorkersRunsInline)
{
    ThreadPool pool(0);
    std::vector<int> order;
    pool.parallelFor(5, [&](size_t i) {
        order.push_back(static_cast<int>(i)); // safe: inline = serial
    });
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ThreadPool, FirstExceptionIsRethrown)
{
    ThreadPool pool(3);
    EXPECT_THROW(pool.parallelFor(100,
                                  [&](size_t i) {
                                      if (i == 37)
                                          throw std::runtime_error("boom");
                                  }),
                 std::runtime_error);
    // The pool must survive a throwing batch.
    std::atomic<int> ran{0};
    pool.parallelFor(10, [&](size_t) { ran.fetch_add(1); });
    EXPECT_EQ(ran.load(), 10);
}

TEST(ThreadPool, StatsCountBatchesAndTasks)
{
    ThreadPool pool(2);
    pool.parallelFor(50, [](size_t) {});
    pool.parallelFor(30, [](size_t) {});
    ThreadPool::Stats stats = pool.stats();
    EXPECT_EQ(stats.batches, 2u);
    EXPECT_EQ(stats.tasks, 80u);
}

TEST(ParallelMap, ResultsAreInIndexOrder)
{
    std::vector<uint64_t> got = parallelMap<uint64_t>(
        500, [](size_t i) { return uint64_t(i) * uint64_t(i); });
    ASSERT_EQ(got.size(), 500u);
    for (size_t i = 0; i < got.size(); ++i)
        EXPECT_EQ(got[i], uint64_t(i) * uint64_t(i));
}

TEST(ParallelMap, EmptyAndSingleton)
{
    EXPECT_TRUE(parallelMap<int>(0, [](size_t) { return 1; }).empty());
    EXPECT_EQ(parallelMap<int>(1, [](size_t) { return 7; }),
              (std::vector<int>{7}));
}

TEST(ParallelWorkers, AlwaysAtLeastOne)
{
    EXPECT_GE(parallelWorkers(), 1u);
}

TEST(ParallelWorkers, MalformedEnvironmentIsIgnored)
{
    // Only a whole positive decimal count sizes the pool; anything else
    // is ignored as if unset ("-1" once read as 4294967295 workers).
    const char *outer = std::getenv("YASIM_WORKERS");
    const std::string saved = outer ? outer : "";
    ::unsetenv("YASIM_WORKERS");
    const unsigned detected = parallelWorkers();
    for (const char *bad : {"-1", "0", "two", "4x", " 3", "4294967296"}) {
        ::setenv("YASIM_WORKERS", bad, 1);
        EXPECT_EQ(parallelWorkers(), detected) << "'" << bad << "'";
    }
    ::setenv("YASIM_WORKERS", "3", 1);
    EXPECT_EQ(parallelWorkers(), 3u);
    if (outer)
        ::setenv("YASIM_WORKERS", saved.c_str(), 1);
    else
        ::unsetenv("YASIM_WORKERS");
}

} // namespace
} // namespace yasim
