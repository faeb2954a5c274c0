#include "invariant_lint.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <tuple>

#include "source_model.hpp"

namespace authenticache::lint {

namespace {

namespace fs = std::filesystem;

constexpr std::size_t npos = std::string::npos;

bool
pathAllowed(const InvariantOptions &options, const std::string &rule,
            const std::string &path)
{
    auto it = options.allow.find(rule);
    if (it == options.allow.end())
        return false;
    return pathMatchesAny(it->second, path);
}

std::optional<std::string>
readFile(const fs::path &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in.good())
        return std::nullopt;
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

/**
 * Levenshtein distance, single-row DP. Mirrors the platform-config
 * loader's suggestion machinery (src/substrate/config.cpp) so stats
 * keys get the same "did you mean" ergonomics as config keys.
 */
std::size_t
editDistance(const std::string &a, const std::string &b)
{
    std::vector<std::size_t> row(b.size() + 1);
    for (std::size_t j = 0; j <= b.size(); ++j)
        row[j] = j;
    for (std::size_t i = 1; i <= a.size(); ++i) {
        std::size_t prev = row[0];
        row[0] = i;
        for (std::size_t j = 1; j <= b.size(); ++j) {
            const std::size_t ins = row[j - 1] + 1;
            const std::size_t del = row[j] + 1;
            const std::size_t sub =
                prev + (a[i - 1] == b[j - 1] ? 0 : 1);
            prev = row[j];
            row[j] = std::min({ins, del, sub});
        }
    }
    return row[b.size()];
}

bool
isCppSource(const fs::path &path)
{
    const std::string ext = path.extension().string();
    return ext == ".cpp" || ext == ".hpp" || ext == ".h" ||
           ext == ".cc" || ext == ".hh";
}

/** All models plus lazily-loaded coverage files outside src/. */
struct Tree
{
    fs::path root;
    std::vector<SourceModel> srcModels;
    std::map<std::string, SourceModel> coverage; // relpath -> model

    const SourceModel *
    findByFragment(const std::string &fragment)
    {
        for (const auto &m : srcModels) {
            if (m.label.find(fragment) != npos)
                return &m;
        }
        auto it = coverage.find(fragment);
        if (it != coverage.end())
            return &it->second;
        auto contents = readFile(root / fragment);
        if (!contents)
            return nullptr;
        auto [ins, ok] = coverage.emplace(
            fragment, buildSourceModel(fragment, *contents));
        (void)ok;
        return &ins->second;
    }
};

Tree
loadTree(const fs::path &root)
{
    Tree tree;
    tree.root = root;
    const fs::path src = root / "src";
    std::vector<fs::path> files;
    if (fs::is_directory(src)) {
        for (auto it = fs::recursive_directory_iterator(src);
             it != fs::recursive_directory_iterator(); ++it) {
            if (it->is_directory() &&
                it->path().filename() == "build") {
                it.disable_recursion_pending();
                continue;
            }
            if (it->is_regular_file() && isCppSource(it->path()))
                files.push_back(it->path());
        }
    }
    std::sort(files.begin(), files.end());
    for (const auto &file : files) {
        auto contents = readFile(file);
        if (!contents)
            continue;
        tree.srcModels.push_back(buildSourceModel(
            fs::relative(file, root).generic_string(), *contents));
    }
    return tree;
}

void
push(std::vector<Finding> &findings, std::string file,
     std::size_t line, std::string rule, std::string message,
     std::string key)
{
    Finding f;
    f.file = std::move(file);
    f.line = line;
    f.rule = std::move(rule);
    f.message = std::move(message);
    f.key = std::move(key);
    findings.push_back(std::move(f));
}

std::string
joinNames(const std::vector<std::string> &names)
{
    std::string out;
    for (const auto &n : names) {
        if (!out.empty())
            out += ", ";
        out += n;
    }
    return out;
}

// ---------------------------------------------------------------- //
// Rule: exhaustiveness                                             //
// ---------------------------------------------------------------- //

const FunctionDef *
findFunction(const SourceModel &model, const std::string &name)
{
    for (const auto &fn : model.functions) {
        if (fn.name == name)
            return &fn;
    }
    return nullptr;
}

void
lintExhaustiveness(Tree &tree, const InvariantOptions &options,
                   std::vector<Finding> &findings)
{
    const std::string rule = "exhaustiveness";
    for (const auto &contract : options.contracts) {
        const SourceModel *enum_model = nullptr;
        const EnumDef *def = nullptr;
        for (const auto &m : tree.srcModels) {
            if (m.label.find(contract.enumFile) == npos)
                continue;
            for (const auto &e : m.enums) {
                if (e.name == contract.enumName) {
                    enum_model = &m;
                    def = &e;
                    break;
                }
            }
            if (def != nullptr)
                break;
        }
        if (def == nullptr)
            continue; // Enum not in this tree (e.g. rule fixtures).

        const auto variantName = [&](const std::string &n) {
            const auto &p = contract.stripPrefix;
            return (!p.empty() && n.rfind(p, 0) == 0)
                       ? n.substr(p.size())
                       : n;
        };

        for (const auto &site : contract.sites) {
            const SourceModel *sm =
                tree.findByFragment(site.fileFragment);
            if (sm == nullptr) {
                push(findings, enum_model->label, def->line, rule,
                     contract.enumName + ": required site \"" +
                         site.label + "\" (" + site.fileFragment +
                         ") does not exist",
                     contract.enumName + ":site:" +
                         site.fileFragment);
                continue;
            }
            const std::string *text = &sm->stripped;
            std::size_t anchor_line = 1;
            if (!site.function.empty()) {
                const FunctionDef *fn =
                    findFunction(*sm, site.function);
                if (fn == nullptr) {
                    push(findings, sm->label, 1, rule,
                         contract.enumName + ": required site \"" +
                             site.label + "\" -- function " +
                             site.function + "() not found in " +
                             sm->label,
                         contract.enumName + ":site-fn:" +
                             site.function);
                    continue;
                }
                text = &fn->body;
                anchor_line = fn->line;
            }
            for (const auto &e : def->enumerators) {
                const std::string token = site.useVariantName
                                              ? variantName(e.name)
                                              : e.name;
                if (!findToken(*text, token).empty())
                    continue;
                push(findings, sm->label, anchor_line, rule,
                     contract.enumName + "::" + e.name + " (" +
                         variantName(e.name) +
                         ") is not exercised by the " + site.label +
                         " in " + sm->label +
                         " -- every value must thread through it",
                     contract.enumName + "::" + e.name + "@" +
                         site.fileFragment +
                         (site.function.empty()
                              ? ""
                              : ":" + site.function));
            }
        }

        if (!contract.rangeGuardFunction.empty()) {
            const SourceModel *gm = nullptr;
            const FunctionDef *guard = nullptr;
            for (const auto &m : tree.srcModels) {
                guard = findFunction(m, contract.rangeGuardFunction);
                if (guard != nullptr) {
                    gm = &m;
                    break;
                }
            }
            if (guard == nullptr) {
                push(findings, enum_model->label, def->line, rule,
                     contract.enumName + ": range guard function " +
                         contract.rangeGuardFunction +
                         "() not found anywhere under src/",
                     contract.enumName + ":range-guard-missing");
            } else if (!def->enumerators.empty()) {
                const auto [lo, hi] = std::minmax_element(
                    def->enumerators.begin(), def->enumerators.end(),
                    [](const EnumeratorDef &a,
                       const EnumeratorDef &b) {
                        return a.value < b.value;
                    });
                for (const EnumeratorDef *bound :
                     {&*lo, &*hi}) {
                    if (!findToken(guard->body, bound->name)
                             .empty())
                        continue;
                    push(findings, gm->label, guard->line, rule,
                         contract.rangeGuardFunction +
                             "() does not reference " +
                             contract.enumName + "::" + bound->name +
                             " -- its accept range no longer tracks "
                             "the enum's bounds",
                         contract.enumName + ":range-guard:" +
                             bound->name);
                }
            }
        }

        // Switches over the enum may not hide values.
        std::set<std::string> names;
        for (const auto &e : def->enumerators)
            names.insert(e.name);
        for (const auto &m : tree.srcModels) {
            if (pathAllowed(options, rule, m.label))
                continue;
            for (const auto &sw : m.switches) {
                bool over_enum = false;
                std::set<std::string> covered;
                for (const auto &c : sw.caseNames) {
                    if (names.count(c) != 0) {
                        over_enum = true;
                        covered.insert(c);
                    }
                }
                if (!over_enum)
                    continue;
                std::vector<std::string> missing;
                for (const auto &e : def->enumerators) {
                    if (covered.count(e.name) == 0)
                        missing.push_back(e.name);
                }
                if (missing.empty())
                    continue;
                if (allowedByComment(m.rawLines, sw.line, rule))
                    continue;
                push(findings, m.label, sw.line, rule,
                     std::string("switch over ") + contract.enumName +
                         (sw.hasDefault
                              ? " hides values behind default:: "
                              : " is not exhaustive: missing ") +
                         joinNames(missing) +
                         " -- list every value (a default: guard for "
                         "out-of-range wire bytes is fine only on top "
                         "of a full case list)",
                     "switch:" + m.label + ":" + contract.enumName);
            }
        }
    }
}

// ---------------------------------------------------------------- //
// Rule: sync-before-reply                                          //
// ---------------------------------------------------------------- //

void
lintSyncBeforeReply(Tree &tree, const InvariantOptions &options,
                    std::vector<Finding> &findings)
{
    const std::string rule = "sync-before-reply";
    for (const auto &m : tree.srcModels) {
        if (!pathMatchesAny(options.flowPathFragments, m.label) ||
            m.label.size() < 4 ||
            m.label.compare(m.label.size() - 4, 4, ".cpp") != 0)
            continue;
        if (pathAllowed(options, rule, m.label))
            continue;
        for (const auto &fn : m.functions) {
            enum class Kind { Mutate, Barrier, Reply };
            std::vector<std::pair<std::size_t, Kind>> events;
            const auto collect = [&](const std::vector<std::string>
                                         &tokens,
                                     Kind kind) {
                for (const auto &t : tokens)
                    for (std::size_t pos : findToken(fn.body, t))
                        events.emplace_back(pos, kind);
            };
            collect(options.mutateTokens, Kind::Mutate);
            collect(options.barrierTokens, Kind::Barrier);
            collect(options.replyTokens, Kind::Reply);
            std::sort(events.begin(), events.end());
            std::size_t unsynced = npos;
            for (const auto &[pos, kind] : events) {
                if (kind == Kind::Mutate) {
                    unsynced = pos;
                } else if (kind == Kind::Barrier) {
                    unsynced = npos;
                } else if (unsynced != npos) {
                    const std::size_t line = lineOfOffset(
                        m.stripped, fn.bodyOffset + pos);
                    if (!allowedByComment(m.rawLines, line, rule)) {
                        push(findings, m.label, line, rule,
                             fn.name + "() journals (token order: "
                                       "append/wal.push_back at line " +
                                 std::to_string(lineOfOffset(
                                     m.stripped,
                                     fn.bodyOffset + unsynced)) +
                                 ") and then replies without an "
                                 "intervening sync()/flushJournal() "
                                 "-- a crash here discloses "
                                 "un-journaled state",
                             m.label + ":" + fn.name);
                    }
                    break; // One finding per function is enough.
                }
            }
        }
    }
}

// ---------------------------------------------------------------- //
// Rule: layering                                                   //
// ---------------------------------------------------------------- //

std::string
dirOf(const std::string &label)
{
    const std::size_t slash = label.rfind('/');
    return slash == npos ? std::string() : label.substr(0, slash);
}

void
lintLayering(Tree &tree, const InvariantOptions &options,
             std::vector<Finding> &findings)
{
    const std::string rule = "layering";
    std::map<std::string, const SourceModel *> by_label;
    for (const auto &m : tree.srcModels)
        by_label[m.label] = &m;

    const auto resolve = [&](const std::string &includer,
                             const std::string &inc) -> std::string {
        const std::string as_src = "src/" + inc;
        if (by_label.count(as_src) != 0)
            return as_src;
        const std::string sibling = dirOf(includer) + "/" + inc;
        if (by_label.count(sibling) != 0)
            return sibling;
        return "";
    };
    const auto isInterface = [&](const std::string &label) {
        return std::find(options.interfaceHeaders.begin(),
                         options.interfaceHeaders.end(),
                         label) != options.interfaceHeaders.end();
    };

    for (const auto &m : tree.srcModels) {
        if (!pathMatchesAny(options.restrictedDirs, m.label))
            continue;
        if (pathAllowed(options, rule, m.label))
            continue;
        // BFS over the quoted-include closure; interface headers are
        // opaque (their own sim/ includes are the published surface).
        std::map<std::string, std::string> parent;   // node -> includer
        std::map<std::string, std::string> edge_inc; // node -> #include text
        std::vector<std::string> queue;
        const auto visit = [&](const std::string &from,
                               const std::string &inc) {
            const std::string target = resolve(from, inc);
            if (target.empty() || parent.count(target) != 0 ||
                target == m.label)
                return;
            parent[target] = from;
            edge_inc[target] = inc;
            if (!isInterface(target) &&
                !pathMatchesAny(options.forbiddenDirs, target))
                queue.push_back(target);
        };
        for (const auto &inc : m.includes)
            visit(m.label, inc);
        for (std::size_t qi = 0; qi < queue.size(); ++qi) {
            const SourceModel *node = by_label[queue[qi]];
            for (const auto &inc : node->includes)
                visit(node->label, inc);
        }
        for (const auto &[target, from] : parent) {
            if (!pathMatchesAny(options.forbiddenDirs, target) ||
                isInterface(target))
                continue;
            // Reconstruct the include chain back to this file.
            std::vector<std::string> chain{target};
            while (chain.back() != m.label)
                chain.push_back(parent.at(chain.back()));
            std::reverse(chain.begin(), chain.end());
            // Anchor at the #include in this file that starts the
            // chain, so the escape hatch can sit next to it.
            const std::string &first_inc = edge_inc.at(chain[1]);
            std::size_t line = 1;
            for (std::size_t l = 0; l < m.rawLines.size(); ++l) {
                if (m.rawLines[l].find("\"" + first_inc + "\"") !=
                    npos) {
                    line = l + 1;
                    break;
                }
            }
            if (allowedByComment(m.rawLines, line, rule))
                continue;
            std::string chain_text;
            for (const auto &hop : chain) {
                if (!chain_text.empty())
                    chain_text += " -> ";
                chain_text += hop;
            }
            push(findings, m.label, line, rule,
                 "reaches the concrete substrate/simulator header " +
                     target + " (" + chain_text +
                     "); restricted layers must stay "
                     "substrate-blind -- go through the published "
                     "interface headers",
                 m.label + "->" + target);
        }
    }
}

// ---------------------------------------------------------------- //
// Rule: lock-annotation                                            //
// ---------------------------------------------------------------- //

void
lintLockAnnotation(Tree &tree, const InvariantOptions &options,
                   std::vector<Finding> &findings)
{
    const std::string rule = "lock-annotation";
    for (const auto &m : tree.srcModels) {
        if (pathAllowed(options, rule, m.label))
            continue;
        for (const auto &cls : m.classes) {
            if (!cls.holdsMutex())
                continue;
            for (const auto &f : cls.fields) {
                if (f.guarded || f.isConst || f.isRef ||
                    f.mutexLike || f.waitable || f.isAtomic)
                    continue;
                if (allowedByComment(m.rawLines, f.line, rule))
                    continue;
                push(findings, m.label, f.line, rule,
                     cls.name + "::" + f.name +
                         " sits next to a util::Mutex but carries no "
                         "AUTH_GUARDED_BY -- annotate it (or mark "
                         "the documented publication-immutable "
                         "exception with LINT:allow)",
                     m.label + ":" + cls.name + "::" + f.name);
            }
        }
    }
}

// ---------------------------------------------------------------- //
// Rule: stats-key                                                  //
// ---------------------------------------------------------------- //

void
lintStatsKeys(Tree &tree, const InvariantOptions &options,
              std::vector<Finding> &findings)
{
    const std::string rule = "stats-key";
    std::string corpus;
    for (const auto &file : options.statsCoverageFiles) {
        const SourceModel *cm = tree.findByFragment(file);
        if (cm != nullptr) {
            corpus += cm->raw;
            corpus += '\n';
        }
    }

    std::set<std::string> covered;
    std::vector<std::pair<const SourceModel *, const StatsCall *>>
        uncovered;
    std::set<std::string> reported; // file:key dedup
    for (const auto &m : tree.srcModels) {
        for (const auto &call : m.statsCalls) {
            if (!findToken(corpus, call.keyName).empty())
                covered.insert(call.keyName);
            else
                uncovered.emplace_back(&m, &call);
        }
    }
    for (const auto &[m, call] : uncovered) {
        if (pathAllowed(options, rule, m->label))
            continue;
        if (!reported.insert(m->label + ":" + call->keyName).second)
            continue;
        if (allowedByComment(m->rawLines, call->line, rule))
            continue;
        // Near-miss: a typo'd key silently forks the schema; point
        // at the closest covered key the author probably meant.
        std::string best;
        std::size_t best_dist = options.statsSuggestDistance + 1;
        for (const auto &k : covered) {
            const std::size_t d = editDistance(call->keyName, k);
            if (d < best_dist) {
                best_dist = d;
                best = k;
            }
        }
        std::string message =
            "stats key \"" + call->keyName +
            "\" is not covered by any of: " +
            joinNames(options.statsCoverageFiles);
        message += best.empty()
                       ? " -- add it to the test schema or the "
                         "STATS.md catalog"
                       : " -- did you mean \"" + best + "\"?";
        push(findings, m->label, call->line, rule, message,
             m->label + ":" + call->keyName);
    }
}

// ---------------------------------------------------------------- //
// Rule: test-scratch                                               //
// ---------------------------------------------------------------- //

void
lintTestScratch(const fs::path &root, const InvariantOptions &options,
                std::vector<Finding> &findings)
{
    const std::string rule = "test-scratch";
    const fs::path tests = root / "tests";
    if (!fs::is_directory(tests))
        return;
    std::vector<fs::path> files;
    for (const auto &entry : fs::recursive_directory_iterator(tests)) {
        if (entry.is_regular_file() && isCppSource(entry.path()))
            files.push_back(entry.path());
    }
    std::sort(files.begin(), files.end());
    for (const auto &file : files) {
        const std::string label =
            fs::relative(file, root).generic_string();
        if (pathAllowed(options, rule, label))
            continue;
        auto raw = readFile(file);
        if (!raw)
            continue;
        // Comments may name the patterns; string literals must stay.
        const std::string code = stripComments(*raw);
        const std::vector<std::string> raw_lines = splitLines(*raw);
        // One finding per file and pattern, at its first use that no
        // LINT:allow covers.
        for (const auto &pattern : options.scratchPatterns) {
            for (std::size_t pos = code.find(pattern); pos != npos;
                 pos = code.find(pattern, pos + 1)) {
                const std::size_t line = lineOfOffset(code, pos);
                if (allowedByComment(raw_lines, line, rule))
                    continue;
                push(findings, label, line, rule,
                     "test names a fixed scratch location (" +
                         pattern +
                         ") -- parallel ctest runs collide on it; "
                         "take a unique directory from "
                         "tests/temp_dir.hpp",
                     label + ":" + pattern);
                break;
            }
        }
    }
}

} // namespace

InvariantOptions
InvariantOptions::defaults()
{
    InvariantOptions o;

    EnumContract journal;
    journal.enumFile = "src/server/journal.cpp";
    journal.enumName = "EventType";
    journal.stripPrefix = "k";
    journal.sites = {
        {"serializer (encodeEvent)", "src/server/journal.cpp",
         false, "encodeEvent"},
        {"decoder (decodeEvent)", "src/server/journal.cpp", false,
         "decodeEvent"},
        {"replay handler (applyEvent)", "src/server/journal.cpp",
         true, "applyEvent"},
        {"serializer round-trip test", "tests/test_journal.cpp",
         true, ""},
        {"crash-sweep reference workload",
         "tests/test_crash_recovery.cpp", true, ""},
    };

    EnumContract protocol;
    protocol.enumFile = "src/protocol/messages.hpp";
    protocol.enumName = "MessageType";
    protocol.sites = {
        {"wire codec", "src/protocol/messages.cpp", false, ""},
        {"round-trip fuzzer", "tests/test_protocol_fuzz.cpp", false,
         ""},
    };
    protocol.rangeGuardFunction = "peekMessageType";

    o.contracts = {journal, protocol};

    o.restrictedDirs = {"src/server/", "src/protocol/",
                        "src/firmware/", "src/net/"};
    o.forbiddenDirs = {"src/substrate/", "src/sim/"};
    o.interfaceHeaders = {"src/substrate/substrate.hpp",
                          "src/sim/geometry.hpp"};

    o.flowPathFragments = {"src/server/"};
    o.mutateTokens = {"append(", "wal.push_back",
                      "wal.emplace_back"};
    o.barrierTokens = {"sync(", "flushJournal("};
    o.replyTokens = {"send("};

    o.statsCoverageFiles = {"tests/test_stats.cpp",
                            "docs/STATS.md"};

    o.scratchPatterns = {"temp_directory_path", "\"/tmp/"};
    // temp_dir.hpp is the one sanctioned mkdtemp wrapper; the lint
    // fixtures hold deliberate violations.
    o.allow["test-scratch"] = {"tests/temp_dir.hpp",
                               "tests/lint_fixtures/"};
    return o;
}

std::vector<std::pair<std::string, std::string>>
invariantRuleInventory()
{
    return {
        {"exhaustiveness",
         "every journal::EventType / protocol::MessageType value must "
         "thread through its codec, replay handler, tests and range "
         "guards; switches may not hide values behind default:"},
        {"sync-before-reply",
         "in src/server/ a journal mutation must be followed by "
         "sync()/flushJournal() before any send() on the same "
         "function's token order"},
        {"layering",
         "src/server, src/protocol, src/firmware and src/net may not "
         "reach concrete src/substrate// src/sim/ headers through the "
         "include graph"},
        {"lock-annotation",
         "a class holding util::Mutex/SharedMutex must carry "
         "AUTH_GUARDED_BY on every mutable field"},
        {"stats-key",
         "every StatsRegistry key literal must be covered by "
         "tests/test_stats.cpp or docs/STATS.md (with did-you-mean "
         "near-miss detection)"},
        {"test-scratch",
         "tests/ may not use temp_directory_path() or \"/tmp/ "
         "literals outside tests/temp_dir.hpp; scratch directories "
         "must be unique per process"},
    };
}

InvariantReport
lintInvariantTree(const fs::path &root,
                  const InvariantOptions &options,
                  const std::vector<std::string> &baseline)
{
    Tree tree = loadTree(root);
    std::vector<Finding> raw;
    lintExhaustiveness(tree, options, raw);
    lintSyncBeforeReply(tree, options, raw);
    lintLayering(tree, options, raw);
    lintLockAnnotation(tree, options, raw);
    lintStatsKeys(tree, options, raw);
    lintTestScratch(root, options, raw);
    std::sort(raw.begin(), raw.end(),
              [](const Finding &a, const Finding &b) {
                  return std::tie(a.file, a.line, a.rule, a.message) <
                         std::tie(b.file, b.line, b.rule, b.message);
              });

    InvariantReport report;
    std::set<std::string> matched;
    const std::set<std::string> baseline_set(baseline.begin(),
                                             baseline.end());
    for (auto &f : raw) {
        const std::string key = f.rule + ":" + f.key;
        f.key = key;
        if (baseline_set.count(key) != 0) {
            matched.insert(key);
            report.baselined.push_back(std::move(f));
        } else {
            report.findings.push_back(std::move(f));
        }
    }
    for (const auto &entry : baseline) {
        if (matched.count(entry) == 0)
            report.staleBaseline.push_back(entry);
    }
    return report;
}

std::vector<std::string>
loadBaselineFile(const fs::path &path)
{
    std::vector<std::string> entries;
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        const std::size_t hash = line.find('#');
        if (hash != npos)
            line = line.substr(0, hash);
        while (!line.empty() &&
               (line.back() == ' ' || line.back() == '\t' ||
                line.back() == '\r'))
            line.pop_back();
        std::size_t b = 0;
        while (b < line.size() &&
               (line[b] == ' ' || line[b] == '\t'))
            ++b;
        line = line.substr(b);
        if (!line.empty())
            entries.push_back(line);
    }
    return entries;
}

namespace {

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

void
appendFindings(std::string &out, const std::vector<Finding> &list)
{
    for (std::size_t i = 0; i < list.size(); ++i) {
        const Finding &f = list[i];
        out += i == 0 ? "\n" : ",\n";
        out += "    {\"file\": \"" + jsonEscape(f.file) +
               "\", \"line\": " + std::to_string(f.line) +
               ", \"rule\": \"" + jsonEscape(f.rule) +
               "\", \"key\": \"" + jsonEscape(f.key) +
               "\", \"message\": \"" + jsonEscape(f.message) + "\"}";
    }
    if (!list.empty())
        out += "\n  ";
}

} // namespace

std::string
reportToJson(const InvariantReport &report)
{
    std::string out = "{\n  \"findings\": [";
    appendFindings(out, report.findings);
    out += "],\n  \"baselined\": [";
    appendFindings(out, report.baselined);
    out += "],\n  \"stale_baseline\": [";
    for (std::size_t i = 0; i < report.staleBaseline.size(); ++i) {
        out += i == 0 ? "\n" : ",\n";
        out += "    \"" + jsonEscape(report.staleBaseline[i]) + "\"";
    }
    if (!report.staleBaseline.empty())
        out += "\n  ";
    out += "],\n  \"counts\": {\"findings\": " +
           std::to_string(report.findings.size()) +
           ", \"baselined\": " +
           std::to_string(report.baselined.size()) +
           ", \"stale_baseline\": " +
           std::to_string(report.staleBaseline.size()) + "}\n}\n";
    return out;
}

} // namespace authenticache::lint
