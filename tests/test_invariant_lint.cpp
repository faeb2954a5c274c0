/**
 * @file
 * Golden-fixture tests for the invariant lint (tools/lint): each of
 * the six cross-file rules must fire on its violating fixture tree
 * (tests/lint_fixtures/inv_*_bad) and stay quiet on the clean one
 * (inv_*_clean), the `// LINT:allow(<rule>)` escape hatch and the
 * shrink-only baseline must both suppress without hiding, and a
 * stale baseline entry must be reported so the ratchet only ever
 * shrinks. The ctest entry InvariantLint.Tree separately gates the
 * real repository.
 */

#include <filesystem>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "invariant_lint.hpp"

namespace lint = authenticache::lint;

namespace {

std::filesystem::path
fixtureTree(const std::string &name)
{
    return std::filesystem::path(AUTH_LINT_FIXTURE_DIR) / name;
}

lint::InvariantReport
lintFixtureTree(const std::string &name,
                const std::vector<std::string> &baseline = {})
{
    return lint::lintInvariantTree(
        fixtureTree(name), lint::InvariantOptions::defaults(),
        baseline);
}

std::set<std::string>
rulesOf(const std::vector<lint::Finding> &findings)
{
    std::set<std::string> rules;
    for (const auto &f : findings)
        rules.insert(f.rule);
    return rules;
}

std::set<std::string>
keysOf(const std::vector<lint::Finding> &findings)
{
    std::set<std::string> keys;
    for (const auto &f : findings)
        keys.insert(f.key);
    return keys;
}

// The test-scratch rule's expected keys spell out its own patterns.
const std::string kScratchTempPathKey =
    "test-scratch:tests/test_store.cpp:"
    "temp_directory_path"; // LINT:allow(test-scratch)
const std::string kScratchTmpKey =
    "test-scratch:tests/test_store.cpp:"
    "\"/tmp/"; // LINT:allow(test-scratch)

const lint::Finding *
findByKey(const std::vector<lint::Finding> &findings,
          const std::string &key)
{
    for (const auto &f : findings) {
        if (f.key == key)
            return &f;
    }
    return nullptr;
}

} // namespace

TEST(InvariantLintExhaustiveness, BadTreeFiresOnEveryGap)
{
    const auto report = lintFixtureTree("inv_exhaustive_bad");
    EXPECT_EQ(rulesOf(report.findings),
              std::set<std::string>{"exhaustiveness"});
    EXPECT_EQ(
        keysOf(report.findings),
        (std::set<std::string>{
            "exhaustiveness:EventType::kBeta@"
            "src/server/journal.cpp:decodeEvent",
            "exhaustiveness:EventType::kBeta@tests/test_journal.cpp",
            "exhaustiveness:switch:src/server/journal.cpp:EventType",
            "exhaustiveness:MessageType:range-guard:kBye"}));

    const lint::Finding *sw = findByKey(
        report.findings,
        "exhaustiveness:switch:src/server/journal.cpp:EventType");
    ASSERT_NE(sw, nullptr);
    EXPECT_NE(sw->message.find("hides values behind default:"),
              std::string::npos);

    const lint::Finding *guard = findByKey(
        report.findings,
        "exhaustiveness:MessageType:range-guard:kBye");
    ASSERT_NE(guard, nullptr);
    EXPECT_EQ(guard->file, "src/protocol/messages.cpp");
    EXPECT_NE(guard->message.find("peekMessageType"),
              std::string::npos);
}

TEST(InvariantLintExhaustiveness, CleanTreePasses)
{
    const auto report = lintFixtureTree("inv_exhaustive_clean");
    EXPECT_TRUE(report.findings.empty());
    EXPECT_TRUE(report.baselined.empty());
    EXPECT_TRUE(report.staleBaseline.empty());
}

TEST(InvariantLintExhaustiveness, MissingSiteFileIsItselfAFinding)
{
    auto options = lint::InvariantOptions::defaults();
    lint::InvariantOptions::EnumContract *journal = nullptr;
    for (auto &c : options.contracts) {
        if (c.enumName == "EventType")
            journal = &c;
    }
    ASSERT_NE(journal, nullptr);
    journal->sites.push_back(
        {"ghost site", "tests/test_ghost.cpp", true, ""});

    const auto report = lint::lintInvariantTree(
        fixtureTree("inv_exhaustive_clean"), options, {});
    ASSERT_EQ(report.findings.size(), 1u);
    EXPECT_EQ(report.findings[0].key,
              "exhaustiveness:EventType:site:tests/test_ghost.cpp");
    EXPECT_NE(report.findings[0].message.find("does not exist"),
              std::string::npos);
}

TEST(InvariantLintSyncBeforeReply, UnsyncedReplyFires)
{
    const auto report = lintFixtureTree("inv_sync_bad");
    ASSERT_EQ(report.findings.size(), 1u);
    const lint::Finding &f = report.findings[0];
    EXPECT_EQ(f.rule, "sync-before-reply");
    EXPECT_EQ(f.file, "src/server/auth_flow.cpp");
    EXPECT_EQ(f.key,
              "sync-before-reply:src/server/auth_flow.cpp:onRequest");
    EXPECT_NE(f.message.find("sync()/flushJournal()"),
              std::string::npos);
}

TEST(InvariantLintSyncBeforeReply, BarrierAndEscapeHatchPass)
{
    // onRequest syncs before send; onProbe relies on the documented
    // LINT:allow escape on the line above its send.
    const auto report = lintFixtureTree("inv_sync_clean");
    EXPECT_TRUE(report.findings.empty());
}

TEST(InvariantLintLayering, TransitiveConcreteIncludeFires)
{
    const auto report = lintFixtureTree("inv_layering_bad");
    EXPECT_EQ(rulesOf(report.findings),
              std::set<std::string>{"layering"});
    EXPECT_EQ(keysOf(report.findings),
              (std::set<std::string>{
                  "layering:src/server/handler.cpp->"
                  "src/substrate/dram_timing.hpp",
                  "layering:src/server/handler.hpp->"
                  "src/substrate/dram_timing.hpp"}));

    // The transitive finding spells out the include chain.
    const lint::Finding *via = findByKey(
        report.findings, "layering:src/server/handler.cpp->"
                         "src/substrate/dram_timing.hpp");
    ASSERT_NE(via, nullptr);
    EXPECT_NE(via->message.find("src/server/handler.cpp -> "
                                "src/server/handler.hpp -> "
                                "src/substrate/dram_timing.hpp"),
              std::string::npos);
}

TEST(InvariantLintLayering, InterfaceHeaderIsOpaque)
{
    // The interface header itself includes the concrete header; the
    // lint must not traverse through the published surface.
    const auto report = lintFixtureTree("inv_layering_clean");
    EXPECT_TRUE(report.findings.empty());
}

TEST(InvariantLintLockAnnotation, UnannotatedMutableFieldFires)
{
    const auto report = lintFixtureTree("inv_lock_bad");
    ASSERT_EQ(report.findings.size(), 1u);
    const lint::Finding &f = report.findings[0];
    EXPECT_EQ(f.rule, "lock-annotation");
    EXPECT_EQ(f.key, "lock-annotation:src/server/session_table.hpp:"
                     "SessionTable::misses");
    EXPECT_NE(f.message.find("AUTH_GUARDED_BY"), std::string::npos);
}

TEST(InvariantLintLockAnnotation, AnnotatedConstAtomicAndAllowPass)
{
    const auto report = lintFixtureTree("inv_lock_clean");
    EXPECT_TRUE(report.findings.empty());
}

TEST(InvariantLintStatsKey, TypoGetsDidYouMean)
{
    const auto report = lintFixtureTree("inv_stats_bad");
    EXPECT_EQ(keysOf(report.findings),
              (std::set<std::string>{
                  "stats-key:src/server/metrics.cpp:remaps_comitted",
                  "stats-key:src/server/metrics.cpp:weird_key"}));

    const lint::Finding *typo = findByKey(
        report.findings,
        "stats-key:src/server/metrics.cpp:remaps_comitted");
    ASSERT_NE(typo, nullptr);
    EXPECT_NE(
        typo->message.find("did you mean \"remaps_committed\"?"),
        std::string::npos);

    // No covered key within edit distance 2 of weird_key: the
    // finding asks for schema/catalog coverage instead.
    const lint::Finding *missing = findByKey(
        report.findings, "stats-key:src/server/metrics.cpp:weird_key");
    ASSERT_NE(missing, nullptr);
    EXPECT_NE(missing->message.find("add it to the test schema"),
              std::string::npos);
}

TEST(InvariantLintStatsKey, CoveredKeyPasses)
{
    const auto report = lintFixtureTree("inv_stats_clean");
    EXPECT_TRUE(report.findings.empty());
}

TEST(InvariantLintTestScratch, FixedScratchLocationsFire)
{
    const auto report = lintFixtureTree("inv_scratch_bad");
    EXPECT_EQ(rulesOf(report.findings),
              std::set<std::string>{"test-scratch"});
    EXPECT_EQ(keysOf(report.findings),
              (std::set<std::string>{kScratchTempPathKey,
                                     kScratchTmpKey}));

    // Anchored at the code, not at the comment that names both, and
    // past the escaped use on line 12.
    const lint::Finding *temp =
        findByKey(report.findings, kScratchTempPathKey);
    ASSERT_NE(temp, nullptr);
    EXPECT_EQ(temp->line, 18u);
    const lint::Finding *tmp = findByKey(report.findings, kScratchTmpKey);
    ASSERT_NE(tmp, nullptr);
    EXPECT_EQ(tmp->line, 24u);
    EXPECT_NE(tmp->message.find("tests/temp_dir.hpp"),
              std::string::npos);
}

TEST(InvariantLintTestScratch, TempDirHeaderCommentsAndAllowPass)
{
    const auto report = lintFixtureTree("inv_scratch_clean");
    EXPECT_TRUE(report.findings.empty());
}

TEST(InvariantLintBaseline, EntrySuppressesButStaysVisible)
{
    const std::string key =
        "sync-before-reply:src/server/auth_flow.cpp:onRequest";
    const auto report = lintFixtureTree("inv_sync_bad", {key});
    EXPECT_TRUE(report.findings.empty());
    ASSERT_EQ(report.baselined.size(), 1u);
    EXPECT_EQ(report.baselined[0].key, key);
    EXPECT_TRUE(report.staleBaseline.empty());
}

TEST(InvariantLintBaseline, StaleEntryFailsTheRatchet)
{
    const std::string key =
        "sync-before-reply:src/server/auth_flow.cpp:onRequest";
    const auto report = lintFixtureTree("inv_sync_clean", {key});
    EXPECT_TRUE(report.findings.empty());
    EXPECT_EQ(report.staleBaseline,
              std::vector<std::string>{key});
}

TEST(InvariantLintBaseline, FileParserSkipsCommentsAndTrims)
{
    const auto entries = lint::loadBaselineFile(
        std::filesystem::path(AUTH_LINT_FIXTURE_DIR) /
        "inv_baseline_example.txt");
    EXPECT_EQ(entries,
              std::vector<std::string>{
                  "sync-before-reply:src/server/auth_flow.cpp:"
                  "onRequest"});
}

TEST(InvariantLintReport, JsonCarriesFindingsAndCounts)
{
    const auto report = lintFixtureTree("inv_sync_bad");
    const std::string json = lint::reportToJson(report);
    EXPECT_NE(json.find("\"findings\": ["), std::string::npos);
    EXPECT_NE(json.find("\"sync-before-reply:src/server/"
                        "auth_flow.cpp:onRequest\""),
              std::string::npos);
    EXPECT_NE(json.find("\"counts\": {\"findings\": 1, "
                        "\"baselined\": 0, \"stale_baseline\": 0}"),
              std::string::npos);
    // Messages quote tokens; the escape must be JSON-clean.
    EXPECT_EQ(json.find("\n\""), json.rfind("\n\""));
}

TEST(InvariantLintInventory, AllSixRulesListed)
{
    std::set<std::string> names;
    for (const auto &[rule, summary] : lint::invariantRuleInventory()) {
        names.insert(rule);
        EXPECT_FALSE(summary.empty());
    }
    EXPECT_EQ(names, (std::set<std::string>{
                         "exhaustiveness", "sync-before-reply",
                         "layering", "lock-annotation", "stats-key",
                         "test-scratch"}));
}
