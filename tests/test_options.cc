/** @file Tests for the shared bench option parser. */

#include <gtest/gtest.h>

#include <vector>

#include "engine/options.hh"

namespace yasim {
namespace {

BenchOptions
parse(std::vector<const char *> args, uint64_t def = 500'000)
{
    args.insert(args.begin(), "bench");
    return parseBenchOptions(static_cast<int>(args.size()),
                             const_cast<char **>(args.data()), def);
}

TEST(Options, Defaults)
{
    BenchOptions o = parse({});
    EXPECT_EQ(o.suite.referenceInstructions, 500'000u);
    EXPECT_EQ(o.benchmarks.size(), 10u);
    EXPECT_FALSE(o.csv);
    EXPECT_FALSE(o.full);
}

TEST(Options, RefInsts)
{
    BenchOptions o = parse({"--ref-insts", "1234567"});
    EXPECT_EQ(o.suite.referenceInstructions, 1'234'567u);
}

TEST(Options, BenchmarkSubset)
{
    BenchOptions o = parse({"--benchmarks", "gzip,mcf"});
    ASSERT_EQ(o.benchmarks.size(), 2u);
    EXPECT_EQ(o.benchmarks[0], "gzip");
    EXPECT_EQ(o.benchmarks[1], "mcf");
}

TEST(Options, Flags)
{
    BenchOptions o = parse({"--csv", "--full", "--seed", "99"});
    EXPECT_TRUE(o.csv);
    EXPECT_TRUE(o.full);
    EXPECT_EQ(o.suite.seed, 99u);
}

TEST(OptionsDeath, UnknownBenchmark)
{
    EXPECT_DEATH(parse({"--benchmarks", "doom"}), "unknown benchmark");
}

TEST(OptionsDeath, UnknownFlag)
{
    EXPECT_DEATH(parse({"--frobnicate"}), "");
}

TEST(OptionsDeath, TooSmallRefInsts)
{
    EXPECT_DEATH(parse({"--ref-insts", "10"}), "at least");
}

// Numeric flags take whole decimal digits only: each of these was once
// read as its digit prefix ("64k" as 64, "0x7" as 0, "10MB" as 10) or
// wrapped around ("-1" as 4294967295 workers).
TEST(OptionsDeath, ShardWarmupRefusesASuffix)
{
    EXPECT_DEATH(parse({"--shard-warmup", "64k"}),
                 "--shard-warmup wants a number, got '64k'");
}

TEST(OptionsDeath, SeedRefusesHex)
{
    EXPECT_DEATH(parse({"--seed", "0x7"}),
                 "--seed wants a number, got '0x7'");
}

TEST(OptionsDeath, CacheBudgetRefusesAUnit)
{
    EXPECT_DEATH(parse({"--cache-budget-mb", "10MB"}),
                 "--cache-budget-mb wants a number, got '10MB'");
}

TEST(OptionsDeath, CacheBudgetRefusesAnOverflow)
{
    // The budget is held in bytes: 2^44 MB once wrapped to 0, which
    // means unbounded.
    EXPECT_DEATH(parse({"--cache-budget-mb", "17592186044416"}),
                 "--cache-budget-mb wants a number up to 17592186044415, "
                 "got '17592186044416'");
}

TEST(OptionsDeath, WorkersRefuseASign)
{
    EXPECT_DEATH(parse({"--workers", "-1"}),
                 "--workers wants a number, got '-1'");
}

TEST(OptionsDeath, MissingValue)
{
    EXPECT_DEATH(parse({"--ref-insts"}), "");
}

} // namespace
} // namespace yasim
