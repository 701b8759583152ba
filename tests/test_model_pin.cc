/**
 * @file
 * ModelPin: the timing model's output, pinned as digest literals.
 *
 * PbRowsAndTableConfigsAreUnchanged folds resultDigest (every SimStats
 * counter, CPI, metrics and profiles) over one group of runs at a
 * 60k-instruction reference: the full reference on all 44 PB design
 * rows and on the four Table-3 configurations, plus SMARTS (functional
 * warming) and FF+WU+Run on the Table-3 configurations. A speed-only
 * change to the cache, TLB, predictor or OOO core must leave every
 * literal untouched; a change to any simulated cycle or counter fails
 * here first.
 *
 * SimPointPointsAreUnchanged pins SimPoint's chosen points (interval,
 * start and weight bits) and its Table-3 results at a 300k reference.
 * There, multiple 10M profiles more than 100 intervals, so its BIC
 * ladder really picks k > 1; a speed-only change to the k-means kernel
 * or the BBV profile must leave every literal untouched.
 *
 * ShardedReferenceIsUnchanged pins the sharded full reference on the
 * Table-3 configurations at the same 300k reference, at 4 and 8 shards
 * with full-prefix and with bounded lead-ins. A change to how a shard
 * warms or stitches that is meant to be speed-only must leave every
 * literal untouched.
 *
 * DividersAndTrivialBypassAreUnchanged pins the full reference where
 * gzip and mcf never go: art, equake and gcc, which execute FDiv or
 * Div, on the Table-3 configurations, the 44 PB rows and a 16-wide
 * machine, as built, with pipelined dividers and with trivial
 * computation. A change to how an op reaches its FU pool, a divider
 * or the trivial bypass fails here.
 *
 * SmartsWalkIsUnchanged pins SMARTS at a fine (U=100) and a coarse
 * (U=10000) unit on gcc and mcf, over the configuration axes the
 * warming walk's table training depends on: the 44 PB rows (among them
 * speculative history update off and a direct-mapped, 16-byte-block
 * L1-I), the next-line prefetcher, and FIFO and random replacement. A
 * change to how the walk warms or measures a unit that is meant to be
 * speed-only must leave every literal untouched.
 *
 * The PB rows include the deepest machines (ROB 256, IQ 128, 400-cycle
 * memory), whose dependent miss chains push issue thousands of cycles
 * past dispatch, so the issue table's window growth is exercised too.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/enhancement_study.hh"
#include "core/pb_characterization.hh"
#include "sim/config.hh"
#include "sim/sharded.hh"
#include "stats/plackett_burman.hh"
#include "techniques/full_reference.hh"
#include "techniques/service.hh"
#include "techniques/simpoint.hh"
#include "techniques/smarts.hh"
#include "techniques/truncated.hh"

#include "result_digest.hh"

namespace yasim {
namespace {

constexpr uint64_t kPinRefInsts = 60'000;
constexpr uint64_t kPointsRefInsts = 300'000;

/** Fold @p technique's result digest on every config into one. */
std::string
groupDigest(const Technique &technique, const TechniqueContext &ctx,
            const std::vector<SimConfig> &configs)
{
    Hasher h;
    for (const SimConfig &config : configs)
        h.str(resultDigest(technique.run(ctx, config)));
    return h.hex();
}

TEST(ModelPin, PbRowsAndTableConfigsAreUnchanged)
{
    SuiteConfig suite;
    suite.referenceInstructions = kPinRefInsts;
    const std::vector<SimConfig> pb_rows =
        pbDesignConfigs(PbDesign::forFactors(numPbFactors(), false));
    ASSERT_EQ(pb_rows.size(), 44u);
    const std::vector<SimConfig> table3 = architecturalConfigs();
    ASSERT_EQ(table3.size(), 4u);

    const FullReference reference;
    const Smarts smarts(1000, 2000);
    const FfWuRunZ ff_wu_run(990.0, 10.0, 500.0);

    struct Pin
    {
        const char *benchmark;
        const char *group;
        const Technique *technique;
        const std::vector<SimConfig> *configs;
        const char *digest;
    };
    const std::vector<Pin> pins = {
        {"gzip", "reference/pb", &reference, &pb_rows,
         "5151ddb627bbd9558c0027cc249544a8"},
        {"gzip", "reference/table3", &reference, &table3,
         "54cc4a7fdfc0f890091a67c9f1d10d77"},
        {"gzip", "smarts/table3", &smarts, &table3,
         "efd5e2cefcad3f52a43aca16e0f7d9d0"},
        {"gzip", "ff_wu_run/table3", &ff_wu_run, &table3,
         "05dc5f0d37b26e150b7981b5a99b56cd"},
        {"mcf", "reference/pb", &reference, &pb_rows,
         "2f6332194213e3753b1c1fbcbaba0631"},
        {"mcf", "reference/table3", &reference, &table3,
         "f637078cd9bf2a9ab3479e2ec506d997"},
        {"mcf", "smarts/table3", &smarts, &table3,
         "0d8372cdc6c7b5c7ae83ab4cc6218519"},
        {"mcf", "ff_wu_run/table3", &ff_wu_run, &table3,
         "7cb1400e7bd7a2bbe92d4832052c1d84"},
    };
    DirectService service;
    for (const Pin &pin : pins) {
        SCOPED_TRACE(std::string(pin.benchmark) + " " + pin.group);
        TechniqueContext ctx =
            TechniqueContext::make(pin.benchmark, suite, service);
        EXPECT_EQ(groupDigest(*pin.technique, ctx, *pin.configs),
                  pin.digest);
    }
}

TEST(ModelPin, DividersAndTrivialBypassAreUnchanged)
{
    // gzip and mcf execute no divide, and the pins above never enable
    // trivial computation or pipelined dividers. art, equake (FDiv) and
    // gcc (Div) do, so these digests pin how the issue scheduler routes
    // an unpipelined divider, a divide through the multiplier pool and
    // a trivial op that bypasses its FU pool. equake divides once,
    // outside its loops, so there pipelining the dividers changes
    // nothing.
    SuiteConfig suite;
    suite.referenceInstructions = kPinRefInsts;
    std::vector<SimConfig> configs = architecturalConfigs();
    for (SimConfig &row :
         pbDesignConfigs(PbDesign::forFactors(numPbFactors(), false)))
        configs.push_back(std::move(row));
    // The inherent-parallelism probe of core/similarity.cc.
    SimConfig wide = architecturalConfig(4);
    wide.core.fetchWidth = wide.core.decodeWidth = 16;
    wide.core.issueWidth = wide.core.commitWidth = 16;
    wide.core.intAlus = wide.core.fpAlus = 16;
    wide.core.robEntries = 512;
    wide.core.iqEntries = 256;
    wide.core.lsqEntries = 256;
    configs.push_back(wide);
    ASSERT_EQ(configs.size(), 49u);

    std::vector<SimConfig> div_pipelined = configs;
    for (SimConfig &config : div_pipelined)
        config.core.divPipelined = true;
    std::vector<SimConfig> trivial = configs;
    for (SimConfig &config : trivial)
        config.core.trivialComputation = true;

    const FullReference reference;
    struct Pin
    {
        const char *benchmark;
        const char *asBuilt;
        const char *divPipelined;
        const char *trivial;
    };
    const std::vector<Pin> pins = {
        {"art", "02bb2d8df34c8bcdadbc601b74f3864a",
         "717f90b219404e6bd59c9631e7c230a3",
         "8b1112b2b376291c322010f9936f2640"},
        {"equake", "2623adf735a5696b79b642d143214c38",
         "2623adf735a5696b79b642d143214c38",
         "8b9aa69a007a9556f65840d46fcfbd99"},
        {"gcc", "202cc0d27ebc9cd2a156a2a9e23d3d84",
         "ab43100f3ee6266f81efc9e636a2118f",
         "05e2fc0c0b10753367c0d9e46109ddb3"},
    };
    DirectService service;
    for (const Pin &pin : pins) {
        SCOPED_TRACE(pin.benchmark);
        TechniqueContext ctx =
            TechniqueContext::make(pin.benchmark, suite, service);
        EXPECT_EQ(groupDigest(reference, ctx, configs), pin.asBuilt);
        EXPECT_EQ(groupDigest(reference, ctx, div_pipelined),
                  pin.divPipelined);
        EXPECT_EQ(groupDigest(reference, ctx, trivial), pin.trivial);
    }
}

TEST(ModelPin, SmartsWalkIsUnchanged)
{
    SuiteConfig suite;
    suite.referenceInstructions = kPinRefInsts;
    const std::vector<SimConfig> pb_rows =
        pbDesignConfigs(PbDesign::forFactors(numPbFactors(), false));
    ASSERT_EQ(pb_rows.size(), 44u);
    std::vector<SimConfig> prefetching;
    for (const SimConfig &config : architecturalConfigs())
        prefetching.push_back(
            withEnhancement(config, Enhancement::NextLinePrefetch));
    ASSERT_EQ(prefetching.size(), 4u);
    std::vector<SimConfig> replacement;
    for (ReplacementPolicy policy :
         {ReplacementPolicy::Fifo, ReplacementPolicy::Random}) {
        SimConfig config = architecturalConfig(2);
        config.mem.l1i.replacement = policy;
        config.mem.l1d.replacement = policy;
        replacement.push_back(config);
    }
    const std::vector<const std::vector<SimConfig> *> groups = {
        &pb_rows, &prefetching, &replacement};

    const Smarts fine(100, 200);
    const Smarts coarse(10000, 20000);
    struct Pin
    {
        const char *benchmark;
        const Smarts *technique;
        const char *digest;
    };
    const std::vector<Pin> pins = {
        {"gcc", &fine, "271a103fbec113199c90962f42e7ccec"},
        {"gcc", &coarse, "ba8e04e24e7206653b6d5dc39de67da6"},
        {"mcf", &fine, "2d8601dd35e42faf7f5e0534dbfe6f09"},
        {"mcf", &coarse, "0aa243eae891a67fd2df88598d765465"},
    };
    DirectService service;
    for (const Pin &pin : pins) {
        SCOPED_TRACE(std::string(pin.benchmark) + " " +
                     pin.technique->permutation());
        TechniqueContext ctx =
            TechniqueContext::make(pin.benchmark, suite, service);
        Hasher h;
        for (const std::vector<SimConfig> *configs : groups)
            h.str(groupDigest(*pin.technique, ctx, *configs));
        EXPECT_EQ(h.hex(), pin.digest);
    }
}

/** Digest of chosen points: count, then interval, start, weight bits. */
std::string
pointsDigest(const std::vector<SimulationPoint> &points)
{
    Hasher h;
    h.u64(points.size());
    for (const SimulationPoint &p : points)
        h.u64(p.interval).u64(p.startInst).d(p.weight);
    return h.hex();
}

TEST(ModelPin, SimPointPointsAreUnchanged)
{
    SuiteConfig suite;
    suite.referenceInstructions = kPointsRefInsts;
    // Table 1's two clustered rows and their early-point variants. At
    // this scale early multiple 10M picks exactly multiple 10M's points
    // on all four benchmarks, so early 100M, the variant
    // ablate_early_simpoints serves, pins the early rule where it moves
    // a point.
    const SimPoint multiple_10m(10.0, 100, 1.0, "multiple 10M");
    const SimPoint multiple_100m(100.0, 10, 0.0, "multiple 100M");
    const SimPoint early_10m(10.0, 100, 1.0, "early 10M", 15, 42, 3,
                             true);
    const SimPoint early_100m(100.0, 10, 0.0, "early 100M", 15, 42, 3,
                              true);
    const SimPoint *const variants[] = {&multiple_10m, &multiple_100m,
                                        &early_10m, &early_100m};

    struct Pin
    {
        const char *benchmark;
        size_t multiple10mPoints;
        const char *digests[std::size(variants)];
    };
    const std::vector<Pin> pins = {
        {"gzip",
         42,
         {"35fbb03d3a25726d232acbe063ade97c",
          "b710fee52891ffd6adc8edf0ba2b1100",
          "35fbb03d3a25726d232acbe063ade97c",
          "b7ffd94ff0178ea20bc90ed71a77a1c9"}},
        {"gcc",
         51,
         {"654abb0a1e99b0143094586806046331",
          "f6bbe878c9e918318b6379073ae796d6",
          "654abb0a1e99b0143094586806046331",
          "4b927e23ecfae98ccff29b14253c5acc"}},
        {"mcf",
         26,
         {"39f758a0449a61dd39c7416c17334604",
          "9b4421d2d2a42332e547f5eefd94b41d",
          "39f758a0449a61dd39c7416c17334604",
          "947439bc484fbebe18bfb3af8527e0cc"}},
        {"vpr-route",
         97,
         {"044e5e6c3a253ec7e7e2299ecee4518e",
          "c3bc4f90a6cd64e7031e0a8f772a623e",
          "044e5e6c3a253ec7e7e2299ecee4518e",
          "dd9cfef717d478abee3341a584f23b29"}},
    };
    DirectService service;
    for (const Pin &pin : pins) {
        SCOPED_TRACE(pin.benchmark);
        TechniqueContext ctx =
            TechniqueContext::make(pin.benchmark, suite, service);
        EXPECT_EQ(multiple_10m.choosePoints(ctx).size(),
                  pin.multiple10mPoints);
        for (size_t v = 0; v < std::size(variants); ++v) {
            SCOPED_TRACE(variants[v]->permutation());
            EXPECT_EQ(pointsDigest(variants[v]->choosePoints(ctx)),
                      pin.digests[v]);
        }
    }

    // The whole technique on Table-3 configuration 2, every variant
    // folded into one digest per benchmark.
    const std::vector<SimConfig> config2 = {architecturalConfig(2)};
    const std::vector<std::pair<const char *, const char *>> runs = {
        {"gzip", "3e9f3e887fabbbfd35a4fc15cd8f7551"},
        {"mcf", "87e9ab3069f9c5a1fc83e90cb3d20529"},
    };
    for (const auto &[benchmark, digest] : runs) {
        SCOPED_TRACE(benchmark);
        TechniqueContext ctx =
            TechniqueContext::make(benchmark, suite, service);
        Hasher h;
        for (const SimPoint *variant : variants)
            h.str(groupDigest(*variant, ctx, config2));
        EXPECT_EQ(h.hex(), digest);
    }
}

TEST(ModelPin, ShardedReferenceIsUnchanged)
{
    SuiteConfig suite;
    suite.referenceInstructions = kPointsRefInsts;
    const std::vector<SimConfig> table3 = architecturalConfigs();
    const FullReference reference;

    // --shard-warmup 65536 leaves slice 1 a full-prefix lead-in (its
    // boundary sits one spacing in) and bounds every later slice, so
    // the bounded settings pin both lead-in kinds.
    struct Pin
    {
        const char *benchmark;
        uint32_t shards;
        uint64_t warmup;
        size_t slices;
        const char *digest;
    };
    const std::vector<Pin> pins = {
        {"gzip", 4, 0, 4, "749a2aec5aa564d0a29172ea9c71b510"},
        {"gzip", 4, 65'536, 4, "32a97ee96a5a2f9aa4add76dda8abc82"},
        {"gzip", 8, 0, 5, "d437f6a0673112981ab492837dc220ae"},
        {"gzip", 8, 65'536, 5, "4aa6eecb57e30550d8a0db8607f0c5dc"},
        {"mcf", 4, 0, 4, "35d78cad4cfd954f86e3f91c47c50465"},
        {"mcf", 4, 65'536, 4, "edcb2135689f459b016574c8db0f7722"},
        {"mcf", 8, 0, 5, "b9895ab0d1fe2b035232228b01f74827"},
        {"mcf", 8, 65'536, 5, "18f73c3da52898cc32d3cad4ebf14dff"},
    };
    DirectService service;
    for (const Pin &pin : pins) {
        SCOPED_TRACE(std::string(pin.benchmark) + " shards " +
                     std::to_string(pin.shards) + " warmup " +
                     std::to_string(pin.warmup));
        TechniqueContext ctx =
            TechniqueContext::make(pin.benchmark, suite, service);
        ctx.shards.shards = pin.shards;
        ctx.shards.warmupInsts = pin.warmup;
        const std::vector<ShardSlice> plan =
            planShards(ctx.referenceLength, pin.shards, pin.warmup);
        ASSERT_EQ(plan.size(), pin.slices);
        if (pin.warmup > 0) {
            EXPECT_EQ(plan[1].warmStart, 0u);
            EXPECT_GT(plan.back().warmStart, 0u);
        }
        EXPECT_EQ(groupDigest(reference, ctx, table3), pin.digest);
    }
}

} // namespace
} // namespace yasim
