#include "lint_core.hpp"

#include <algorithm>
#include <cctype>

namespace authenticache::lint {

bool
isIdentChar(char c)
{
    return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

namespace {

/**
 * The stripper state machine. Comments always become spaces; string
 * and char literals (delimiters included) only when @p blank_literals.
 */
std::string
strip(const std::string &text, bool blank_literals)
{
    std::string out = text;
    const auto lit = [&](std::size_t j) {
        if (blank_literals)
            out[j] = ' ';
    };
    enum class State { Code, Line, Block, Str, Chr, Raw } st =
        State::Code;
    for (std::size_t i = 0; i < out.size(); ++i) {
        const char c = out[i];
        const char nx = i + 1 < out.size() ? out[i + 1] : '\0';
        switch (st) {
          case State::Code:
            if (c == '/' && nx == '/') {
                st = State::Line;
                out[i] = ' ';
            } else if (c == '/' && nx == '*') {
                st = State::Block;
                out[i] = ' ';
            } else if (c == 'R' && nx == '"' &&
                       (i == 0 || !isIdentChar(out[i - 1]))) {
                st = State::Raw;
                lit(i);
            } else if (c == '"') {
                st = State::Str;
                lit(i);
            } else if (c == '\'' && i > 0 && !isIdentChar(out[i - 1])) {
                // Identifier check skips digit separators (1'000).
                st = State::Chr;
                lit(i);
            }
            break;
          case State::Line:
            if (c == '\n')
                st = State::Code;
            else
                out[i] = ' ';
            break;
          case State::Block:
            if (c == '*' && nx == '/') {
                out[i] = ' ';
                out[i + 1] = ' ';
                ++i;
                st = State::Code;
            } else if (c != '\n') {
                out[i] = ' ';
            }
            break;
          case State::Str:
          case State::Chr: {
            const char close = st == State::Str ? '"' : '\'';
            if (c == '\\' && nx != '\0') {
                lit(i);
                if (nx != '\n')
                    lit(i + 1);
                ++i;
            } else if (c == close) {
                lit(i);
                st = State::Code;
            } else if (c != '\n') {
                lit(i);
            }
            break;
          }
          case State::Raw:
            // Plain R"( ... )" only -- no custom delimiters in-tree.
            if (c == ')' && nx == '"') {
                lit(i);
                lit(i + 1);
                ++i;
                st = State::Code;
            } else if (c != '\n') {
                lit(i);
            }
            break;
        }
    }
    return out;
}

} // namespace

std::string
stripCommentsAndStrings(const std::string &text)
{
    return strip(text, true);
}

std::string
stripComments(const std::string &text)
{
    return strip(text, false);
}

std::size_t
lineOfOffset(const std::string &text, std::size_t offset)
{
    return static_cast<std::size_t>(
               std::count(text.begin(), text.begin() + offset, '\n')) +
           1;
}

std::vector<std::string>
splitLines(const std::string &text)
{
    std::vector<std::string> lines;
    std::string cur;
    for (char c : text) {
        if (c == '\n') {
            lines.push_back(cur);
            cur.clear();
        } else {
            cur += c;
        }
    }
    lines.push_back(cur);
    return lines;
}

bool
allowedByComment(const std::vector<std::string> &raw_lines,
                 std::size_t line, const std::string &rule)
{
    const std::string needle = "LINT:allow(" + rule + ")";
    for (std::size_t l : {line, line - 1}) {
        if (l >= 1 && l <= raw_lines.size() &&
            raw_lines[l - 1].find(needle) != std::string::npos)
            return true;
    }
    return false;
}

bool
pathMatchesAny(const std::vector<std::string> &fragments,
               const std::string &path)
{
    for (const auto &fragment : fragments) {
        if (path.find(fragment) != std::string::npos)
            return true;
    }
    return false;
}

std::vector<std::size_t>
findToken(const std::string &text, const std::string &token)
{
    std::vector<std::size_t> hits;
    const bool call = !token.empty() && token.back() == '(';
    const std::string word =
        call ? token.substr(0, token.size() - 1) : token;
    std::size_t pos = 0;
    while ((pos = text.find(word, pos)) != std::string::npos) {
        const bool lead_ok =
            pos == 0 || !isIdentChar(text[pos - 1]);
        std::size_t end = pos + word.size();
        bool trail_ok;
        if (call) {
            // Allow whitespace between the name and the paren.
            std::size_t p = end;
            while (p < text.size() &&
                   std::isspace(static_cast<unsigned char>(text[p])) &&
                   text[p] != '\n')
                ++p;
            trail_ok = p < text.size() && text[p] == '(';
        } else {
            trail_ok = end >= text.size() || !isIdentChar(text[end]);
        }
        if (lead_ok && trail_ok)
            hits.push_back(pos);
        pos = end;
    }
    return hits;
}

} // namespace authenticache::lint
