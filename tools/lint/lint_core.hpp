/**
 * @file
 * Shared scanning substrate for the project lints (determinism lint,
 * invariant lint). The core primitive is stripCommentsAndStrings: a
 * state machine that blanks comments and string/char literals while
 * preserving offsets and newlines, so token searches never trip on
 * prose and every hit maps back to a real source line. On top of that
 * sit identifier-boundary token search, the `// LINT:allow(rule)`
 * escape hatch, and the Finding record all lints report.
 */

#ifndef AUTH_TOOLS_LINT_LINT_CORE_HPP
#define AUTH_TOOLS_LINT_LINT_CORE_HPP

#include <cstddef>
#include <string>
#include <vector>

namespace authenticache::lint {

/** One rule violation, with a file:line anchor for the diagnostic. */
struct Finding
{
    std::string file; ///< Path label as given to the lint entry point.
    std::size_t line = 0;
    std::string rule;
    std::string message;

    /**
     * Stable identity for baseline matching: line-number-free, so a
     * baselined finding survives unrelated edits above it. Empty for
     * lints that do not support baselining (determinism lint).
     */
    std::string key = {};
};

bool isIdentChar(char c);

/**
 * Replace comments and string/char literals with spaces (newlines
 * kept, so line numbers survive). Handles //, block comments, escape
 * sequences, and the simple R"( ... )" raw-string form.
 */
std::string stripCommentsAndStrings(const std::string &text);

/** Same state machine, but string/char literals are kept verbatim, for
 *  rules that match literal contents (test-scratch's "/tmp/"). */
std::string stripComments(const std::string &text);

/** 1-based line number of @p offset within @p text. */
std::size_t lineOfOffset(const std::string &text, std::size_t offset);

std::vector<std::string> splitLines(const std::string &text);

/** `// LINT:allow(rule)` on the finding's line or the line above. */
bool allowedByComment(const std::vector<std::string> &raw_lines,
                      std::size_t line, const std::string &rule);

/** True when @p path contains any of @p fragments as a substring. */
bool pathMatchesAny(const std::vector<std::string> &fragments,
                    const std::string &path);

/** All offsets where @p token occurs as a standalone identifier (not
 *  preceded/followed by identifier chars). A trailing '(' in the
 *  token pins call sites specifically. */
std::vector<std::size_t> findToken(const std::string &text,
                                   const std::string &token);

} // namespace authenticache::lint

#endif // AUTH_TOOLS_LINT_LINT_CORE_HPP
