/**
 * @file
 * ModelPin: the timing model's output, pinned as digest literals.
 *
 * Each digest folds resultDigest (every SimStats counter, CPI, metrics
 * and profiles) over one group of runs at a 60k-instruction reference:
 * the full reference on all 44 PB design rows and on the four Table-3
 * configurations, plus SMARTS (functional warming) and FF+WU+Run on
 * the Table-3 configurations. A speed-only change to the cache, TLB,
 * predictor or OOO core must leave every literal untouched; a change
 * to any simulated cycle or counter fails here first.
 *
 * The PB rows include the deepest machines (ROB 256, IQ 128, 400-cycle
 * memory), whose dependent miss chains push issue thousands of cycles
 * past dispatch, so the issue-slot pools' window growth is exercised
 * too.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/pb_characterization.hh"
#include "sim/config.hh"
#include "stats/plackett_burman.hh"
#include "techniques/full_reference.hh"
#include "techniques/service.hh"
#include "techniques/smarts.hh"
#include "techniques/truncated.hh"

#include "result_digest.hh"

namespace yasim {
namespace {

constexpr uint64_t kPinRefInsts = 60'000;

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

} // namespace
} // namespace yasim
