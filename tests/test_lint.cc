/**
 * @file
 * Tests for yasim-lint: every rule must fire on its seeded fixture,
 * every suppression mechanism must silence it, and the repository's
 * own sources must lint clean (the dogfood test mirrors the
 * lint_repo_clean ctest so a regression is caught even when only the
 * unit binary runs).
 *
 * Fixtures live in tests/lint_fixtures/ with paths shaped like the
 * real tree (src/..., bench/...) so the linter's layer classification
 * and suffix allowlist see what they would see in production. The
 * tree walker skips lint_fixtures directories; tests hand the linter
 * each file directly.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "lint.hh"

namespace yasim::lint {
namespace {

std::string
fixture(const std::string &rel)
{
    return std::string(YASIM_LINT_FIXTURE_DIR) + "/" + rel;
}

std::vector<std::string>
rulesOf(const std::vector<Finding> &findings)
{
    std::vector<std::string> rules;
    for (const Finding &f : findings)
        rules.push_back(f.rule);
    return rules;
}

int
countRule(const std::vector<Finding> &findings, const std::string &rule)
{
    return static_cast<int>(std::count_if(
        findings.begin(), findings.end(),
        [&](const Finding &f) { return f.rule == rule; }));
}

TEST(LintCatalog, ListsEveryRule)
{
    auto catalog = ruleCatalog();
    std::vector<std::string> ids;
    for (const RuleInfo &info : catalog)
        ids.emplace_back(info.id);
    EXPECT_EQ(ids, (std::vector<std::string>{"D1", "D2", "L1", "L2",
                                             "S1", "S2"}));
}

TEST(LintD1, FlagsEntropyAndHonoursLineSuppressions)
{
    auto findings = lintFile(fixture("src/sim/entropy_sources.cc"));
    // rand(), std::random_device, steady_clock::now(), time() fire;
    // the two suppressed rand() calls and the mentions inside comments
    // and string literals do not.
    EXPECT_EQ(countRule(findings, "D1"), 4) << testing::PrintToString(
        rulesOf(findings));
    for (const Finding &f : findings) {
        EXPECT_EQ(f.rule, "D1");
        EXPECT_NE(f.line, 23); // allow(D1) on the preceding line
        EXPECT_NE(f.line, 25); // trailing allow(D1)
    }
}

TEST(LintD2, FlagsUnorderedIterationButNotOrderedView)
{
    auto findings = lintFile(fixture("src/stats/unordered_emit.cc"));
    // The parameter loop and the local-variable loop fire; the
    // orderedView loop is the sanctioned pattern.
    EXPECT_EQ(countRule(findings, "D2"), 2) << testing::PrintToString(
        rulesOf(findings));
}

TEST(LintL1, FlagsFunctionalSimInTechniques)
{
    auto findings = lintFile(fixture("src/techniques/raw_functional.cc"));
    EXPECT_GE(countRule(findings, "L1"), 1);
}

TEST(LintL2, FlagsEngineInternalsInBench)
{
    auto findings = lintFile(fixture("bench/engine_internals.cc"));
    // The TraceStore use fires on tokens alone; the thread_pool.hh
    // include is rule G1's job now (include-graph reachability in
    // analyze.cc), covered by the analyzer fixtures.
    EXPECT_GE(countRule(findings, "L2"), 1) << testing::PrintToString(
        rulesOf(findings));
}

TEST(LintL1, LayerRulesIgnoreOtherLayers)
{
    // The same FunctionalSim use outside src/techniques or src/core is
    // not an L1 violation (and outside bench/, not an L2 one either).
    auto findings = lintFile(fixture("src/techniques/raw_functional.cc"),
                             {{"L2"}, true, {}});
    EXPECT_TRUE(findings.empty());
}

TEST(LintS1, RequiresVersionMarkerWithRawSerialization)
{
    auto unversioned =
        lintFile(fixture("src/sim/unversioned_serial.cc"));
    EXPECT_EQ(countRule(unversioned, "S1"), 1);

    auto versioned = lintFile(fixture("src/sim/versioned_serial.cc"));
    EXPECT_TRUE(versioned.empty())
        << testing::PrintToString(rulesOf(versioned));
}

TEST(LintS2, FlagsRawPersistenceInLibraryCode)
{
    auto findings = lintFile(fixture("src/engine/raw_persist.cc"));
    EXPECT_EQ(countRule(findings, "S2"), 1) << testing::PrintToString(
        rulesOf(findings));
}

TEST(LintS2, LineSuppressionSilencesThePublishSite)
{
    auto findings =
        lintFile(fixture("src/engine/raw_persist_allowed.cc"));
    EXPECT_TRUE(findings.empty())
        << testing::PrintToString(rulesOf(findings));
}

TEST(LintS2, IgnoresCodeOutsideSrc)
{
    // The same shape outside src/ (a tool, a test) is not S2's
    // business.
    const std::string body = "#include <fstream>\n"
                             "void f() {\n"
                             "    std::ofstream out(\"x.tmp\");\n"
                             "    rename(\"x.tmp\", \"x\");\n"
                             "}\n";
    EXPECT_TRUE(lintSource("tools/yasim-lint/main.cc", body).empty());
    EXPECT_EQ(countRule(lintSource("src/engine/fake.cc", body), "S2"),
              1);
}

TEST(LintS2, FlagsFramedArtifactCallsOutsideArtifactIo)
{
    const std::string call = "void f() {\n"
                             "    writeArtifact(path, \"m\", 1, bytes);\n"
                             "}\n";
    EXPECT_EQ(countRule(lintSource("src/sim/fake.cc", call), "S2"), 1);

    // Naming the call in a comment is not calling it.
    const std::string comment = "// Points go through ArtifactDir, not\n"
                                "// writeArtifact(path, ...).\n"
                                "void f() {}\n";
    EXPECT_TRUE(lintSource("src/sim/fake.cc", comment).empty());

    // The header that declares the calls is part of the seam.
    const std::string decl = "bool writeArtifact(const char *path);\n";
    EXPECT_TRUE(lintSource("src/support/artifact_io.hh", decl).empty());
    EXPECT_EQ(countRule(lintSource("src/support/other.hh", decl), "S2"),
              1);
}

TEST(LintS2, ArtifactIoIsTheSanctionedSeam)
{
    const std::string path = fixture("src/support/artifact_io.cc");

    auto with = lintFile(path);
    EXPECT_TRUE(with.empty()) << testing::PrintToString(rulesOf(with));

    Options raw;
    raw.builtinAllowlist = false;
    auto without = lintFile(path, raw);
    EXPECT_EQ(countRule(without, "S2"), 1)
        << testing::PrintToString(rulesOf(without));
}

TEST(LintSuppression, AllowFileSilencesWholeFile)
{
    auto findings = lintFile(fixture("src/stats/allow_file.cc"));
    EXPECT_TRUE(findings.empty())
        << testing::PrintToString(rulesOf(findings));
}

TEST(LintSuppression, CleanFileStaysClean)
{
    auto findings = lintFile(fixture("src/sim/clean.cc"));
    EXPECT_TRUE(findings.empty())
        << testing::PrintToString(rulesOf(findings));
}

TEST(LintAllowlist, BuiltinSeamFileIsExemptUntilDisabled)
{
    const std::string path = fixture("bench/microbench.cc");

    auto with = lintFile(path);
    EXPECT_TRUE(with.empty()) << testing::PrintToString(rulesOf(with));

    Options raw;
    raw.builtinAllowlist = false;
    auto without = lintFile(path, raw);
    EXPECT_GE(countRule(without, "D1"), 1);
    EXPECT_GE(countRule(without, "L2"), 1);
}

TEST(LintAllowlist, ExtraAllowEntriesExtendTheList)
{
    Options opts;
    opts.extraAllow = {"src/sim/entropy_sources.cc:D1"};
    auto findings =
        lintFile(fixture("src/sim/entropy_sources.cc"), opts);
    EXPECT_TRUE(findings.empty())
        << testing::PrintToString(rulesOf(findings));
}

TEST(LintOptions, RuleFilterRunsOnlySelectedRules)
{
    Options opts;
    opts.rules = {"D2"};
    auto findings =
        lintFile(fixture("src/sim/entropy_sources.cc"), opts);
    EXPECT_TRUE(findings.empty());

    opts.rules = {"D1"};
    findings = lintFile(fixture("src/sim/entropy_sources.cc"), opts);
    EXPECT_EQ(countRule(findings, "D1"), 4);
}

TEST(LintMasking, CommentsAndStringsAreInvisible)
{
    const std::string src = "// rand()\n"
                            "/* std::random_device dev; */\n"
                            "const char *s = \"time(nullptr)\";\n"
                            "const char *r = R\"(rand())\";\n";
    auto findings = lintSource("src/sim/fake.cc", src);
    EXPECT_TRUE(findings.empty())
        << testing::PrintToString(rulesOf(findings));
}

TEST(LintMasking, CodeAfterCommentStillFires)
{
    const std::string src = "/* harmless */ int x = rand();\n";
    auto findings = lintSource("src/sim/fake.cc", src);
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].rule, "D1");
    EXPECT_EQ(findings[0].line, 1);
}

TEST(LintIo, UnreadableFileReportsIoFinding)
{
    auto findings = lintFile(fixture("does/not/exist.cc"));
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].rule, "IO");
}

TEST(LintTree, SkipsFixtureDirectoriesAndSortsOutput)
{
    // Walking tests/ must not surface the deliberately-violating
    // fixtures under tests/lint_fixtures/.
    auto findings =
        lintTree({std::string(YASIM_SOURCE_DIR) + "/tests"});
    EXPECT_TRUE(findings.empty())
        << testing::PrintToString(rulesOf(findings));
}

/** Dogfood: the real tree lints clean, same as the lint_repo_clean
 *  ctest that runs the CLI. */
TEST(LintRepo, SourcesBenchAndTestsAreClean)
{
    const std::string root(YASIM_SOURCE_DIR);
    auto findings = lintTree(
        {root + "/src", root + "/bench", root + "/tests"});
    std::string report;
    for (const Finding &f : findings)
        report += f.file + ":" + std::to_string(f.line) + " [" +
                  f.rule + "] " + f.message + "\n";
    EXPECT_TRUE(findings.empty()) << report;
}

} // namespace
} // namespace yasim::lint
