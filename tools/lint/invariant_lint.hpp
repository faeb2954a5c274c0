/**
 * @file
 * Invariant lint: cross-file static analysis for the contracts the
 * compiler cannot see (DESIGN.md §5k). Where the determinism lint
 * judges one file at a time, these rules join facts extracted from
 * the whole tree (source_model.hpp) against a declarative contract
 * table:
 *
 *   exhaustiveness    every journal::EventType value must thread
 *                     through the serializer, the decoder, the replay
 *                     handler, the round-trip test, and the crash
 *                     sweep; every protocol::MessageType through the
 *                     wire codec, peekMessageType's range guard, and
 *                     the round-trip fuzzer. Switches over either
 *                     enum may not hide values behind `default:`.
 *   sync-before-reply in src/server/ flow files, a journal mutation
 *                     (append / wal.push_back) must be followed by a
 *                     durability barrier (sync / flushJournal) before
 *                     any send() on the same function's token order.
 *   layering          src/server, src/protocol, src/firmware and
 *                     src/net may not reach concrete src/substrate/ or
 *                     src/sim/ headers through the #include graph;
 *                     only the published interface headers are legal.
 *   lock-annotation   a class holding util::Mutex/SharedMutex must
 *                     carry AUTH_GUARDED_BY on every mutable field
 *                     (const values, references, condvars and atomics
 *                     are exempt).
 *   stats-key         every StatsRegistry set()/add() key literal in
 *                     src/ must appear in tests/test_stats.cpp or
 *                     docs/STATS.md; near-misses (edit distance <= 2
 *                     from a covered key) get a "did you mean"
 *                     diagnostic, catching typo'd keys.
 *   test-scratch      C++ files under tests/ may not name a fixed
 *                     scratch location (temp_directory_path() or a
 *                     "/tmp/ literal); tests/temp_dir.hpp, the unique
 *                     mkdtemp wrapper, is the one exemption.
 *
 * Escapes, in review-visibility order: `// LINT:allow(<rule>)` on or
 * above the flagged line, per-rule path allowlists in the options,
 * and the shrink-only checked-in baseline (invariant_baseline.txt,
 * ratchet semantics like tidy_baseline.txt: a baselined finding is
 * tolerated, a fixed one must be removed, a new one fails).
 */

#ifndef AUTH_TOOLS_LINT_INVARIANT_LINT_HPP
#define AUTH_TOOLS_LINT_INVARIANT_LINT_HPP

#include <cstddef>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "lint_core.hpp"

namespace authenticache::lint {

/** Scanner configuration; defaults() is the project's contract. */
struct InvariantOptions
{
    /** rule -> path substrings where the rule does not apply. */
    std::map<std::string, std::vector<std::string>> allow;

    /** One place an enum's values must all be exercised. */
    struct EnumSite
    {
        std::string label;        ///< Human name for diagnostics.
        std::string fileFragment; ///< Path substring of the site file.
        /** Match the variant-alternative name (enumerator minus the
         *  contract's stripPrefix) instead of the enumerator. */
        bool useVariantName = false;
        /** Restrict the search to this function's body ("" = whole
         *  file). */
        std::string function;
    };

    struct EnumContract
    {
        std::string enumFile; ///< Path substring of the definition.
        std::string enumName;
        std::string stripPrefix; ///< e.g. "k" for journal EventType.
        std::vector<EnumSite> sites;
        /** Function whose body must mention the lowest- and
         *  highest-valued enumerator (wire-range guards like
         *  peekMessageType); "" disables the check. */
        std::string rangeGuardFunction;
    };
    std::vector<EnumContract> contracts;

    /** Layering: files under restrictedDirs may not reach files under
     *  forbiddenDirs via quoted includes, except interfaceHeaders
     *  (which are also not traversed through). */
    std::vector<std::string> restrictedDirs;
    std::vector<std::string> forbiddenDirs;
    std::vector<std::string> interfaceHeaders;

    /** Sync-before-reply: scanned files and token classes. */
    std::vector<std::string> flowPathFragments;
    std::vector<std::string> mutateTokens;
    std::vector<std::string> barrierTokens;
    std::vector<std::string> replyTokens;

    /** Stats-key coverage corpus, repo-root-relative. */
    std::vector<std::string> statsCoverageFiles;
    std::size_t statsSuggestDistance = 2;

    /** Test-scratch: substrings banned from comment-stripped C++
     *  under tests/ (string literals are kept, so "/tmp/ matches). */
    std::vector<std::string> scratchPatterns;

    /** The project's shipping configuration. */
    static InvariantOptions defaults();
};

/** Names + one-line summaries of every rule, for --list-rules. */
std::vector<std::pair<std::string, std::string>>
invariantRuleInventory();

struct InvariantReport
{
    /** Findings that fail the gate (allow-list and baseline already
     *  applied). */
    std::vector<Finding> findings;
    /** Findings tolerated by a baseline entry. */
    std::vector<Finding> baselined;
    /** Baseline keys that matched nothing: the violation was fixed,
     *  so ratchet semantics demand the entry be deleted. */
    std::vector<std::string> staleBaseline;
};

/**
 * Run every rule over the repo at @p root (models built for C++
 * sources under root/src; coverage files read relative to root;
 * test-scratch reads C++ files under root/tests).
 * @p baseline holds finding keys (see Finding::key) to tolerate.
 */
InvariantReport
lintInvariantTree(const std::filesystem::path &root,
                  const InvariantOptions &options,
                  const std::vector<std::string> &baseline);

/** Baseline file: one finding key per line, '#' comments and blank
 *  lines skipped. */
std::vector<std::string>
loadBaselineFile(const std::filesystem::path &path);

/** Machine-readable report (uploaded as a CI artifact). */
std::string reportToJson(const InvariantReport &report);

} // namespace authenticache::lint

#endif // AUTH_TOOLS_LINT_INVARIANT_LINT_HPP
