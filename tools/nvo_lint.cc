/**
 * @file
 * Repository lint pass for the NVOverlay simulator sources.
 *
 * A token-level checker for rules the compiler cannot enforce:
 *
 *  - epoch-compare:  no raw relational comparison of EpochId values;
 *                    16-bit epoch tags wrap (paper Sec. IV-D) and must
 *                    be compared through epoch::compareNarrow.
 *  - epoch-narrow:   no static_cast<EpochId> outside
 *                    nvoverlay/epoch.hh; epoch::narrow is the one
 *                    sanctioned narrowing point.
 *  - include-guard:  guard macros must be NVO_<PATH>_HH derived from
 *                    the file's path (src/cache/llc.hh ->
 *                    NVO_CACHE_LLC_HH).
 *  - raw-new-delete: no raw new/delete expressions; containers and
 *                    unique_ptr own everything except the two radix
 *                    trees, which are allowlisted.
 *  - raw-io:         no direct console output (printf/std::cout and
 *                    friends) in src/; simulator output must flow
 *                    through common/log, the obs/ exporters, or the
 *                    harness table printer so machine-readable runs
 *                    stay clean. Those three locations are exempt.
 *  - asid-key:       multi-tenant tagging under src/nvoverlay/:
 *                    master-table insert/erase must take a tenant key
 *                    (built through tenant::keyOf / tenant::tag, which
 *                    carry the ASID in the tagged address) and
 *                    page-pool allocLines/freeLines must pass the
 *                    owning ASID — a mutation whose argument list
 *                    names nothing key- or asid-like is invisible to
 *                    per-tenant quota and write-amp accounting.
 *  - metric-registry: instrumented subsystems (src/nvoverlay/,
 *                    src/repl/, src/tenant/) hold metric handles from
 *                    obs::metricRegistry(), never a Histogram or
 *                    HistMetric by value.
 *
 * The persist-domain and ledger-hook rules live in nvo_check, which
 * sees through aliases and checks them semantically.
 *
 * Suppression: an allowlist file ("<rule> <path-suffix>" per line) or
 * an inline "nvo-lint: allow(rule)" marker on the offending line.
 *
 * Exit status: 0 clean, 1 violations found, 2 usage or I/O error.
 * `--self-test` runs the rules against seeded violations and verifies
 * each one is caught. `--corpus DIR` lints every fixture in DIR,
 * whose names encode the expectation:
 * `<rule_with_underscores>.<good|bad>[.variant].cc` — bad fixtures
 * must produce at least one violation of exactly that rule, good
 * fixtures must lint clean. Fixtures may pin their lint scope with a
 * leading `// lint-path: <path>` line (e.g. `nvoverlay/fixture.cc`
 * to put the file under the asid-key rule's jurisdiction).
 */

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

namespace
{

namespace fs = std::filesystem;

struct Violation
{
    std::string file;
    int line = 0;
    std::string rule;
    std::string message;
};

struct Token
{
    std::string text;
    int line = 0;
    bool ident = false;
};

/** Per-line "nvo-lint: allow(rule)" markers, rule "*" allows all. */
using AllowMarkers = std::map<int, std::set<std::string>>;

AllowMarkers
collectMarkers(const std::string &text)
{
    AllowMarkers markers;
    std::istringstream in(text);
    std::string line;
    int num = 0;
    while (std::getline(in, line)) {
        ++num;
        std::size_t pos = line.find("nvo-lint: allow(");
        if (pos == std::string::npos)
            continue;
        std::size_t open = line.find('(', pos);
        std::size_t close = line.find(')', open);
        if (close == std::string::npos)
            continue;
        std::string rules = line.substr(open + 1, close - open - 1);
        std::istringstream rs(rules);
        std::string rule;
        while (std::getline(rs, rule, ',')) {
            rule.erase(std::remove_if(rule.begin(), rule.end(),
                                      [](unsigned char c) {
                                          return std::isspace(c);
                                      }),
                       rule.end());
            if (!rule.empty())
                markers[num].insert(rule);
        }
    }
    return markers;
}

/**
 * True when the '"' at @p i opens a raw string literal: preceded by
 * an R (optionally with a u8/u/U/L encoding prefix) that is itself
 * the start of the literal, not the tail of an identifier.
 */
bool
isRawStringStart(const std::string &text, std::size_t i)
{
    if (i == 0 || text[i - 1] != 'R')
        return false;
    std::size_t p = i - 1;   // index of the 'R'
    if (p >= 2 && text[p - 2] == 'u' && text[p - 1] == '8')
        p -= 2;
    else if (p >= 1 && (text[p - 1] == 'u' || text[p - 1] == 'U' ||
                        text[p - 1] == 'L'))
        p -= 1;
    return p == 0 ||
           !(std::isalnum(static_cast<unsigned char>(text[p - 1])) ||
             text[p - 1] == '_');
}

/**
 * Replace comments and string/char literal bodies with spaces,
 * preserving line structure so token line numbers stay true. Raw
 * string literals (R"delim(...)delim", with any encoding prefix) are
 * handled before the ordinary string state so their unescaped quotes
 * and parentheses cannot corrupt the rest of the file.
 */
std::string
stripCommentsAndStrings(const std::string &text)
{
    std::string out;
    out.reserve(text.size());
    enum class St { Code, Line, Block, Str, Chr };
    St st = St::Code;
    for (std::size_t i = 0; i < text.size(); ++i) {
        char c = text[i];
        char n = i + 1 < text.size() ? text[i + 1] : '\0';
        switch (st) {
        case St::Code:
            if (c == '/' && n == '/') {
                st = St::Line;
                out += "  ";
                ++i;
            } else if (c == '/' && n == '*') {
                st = St::Block;
                out += "  ";
                ++i;
            } else if (c == '"' && isRawStringStart(text, i)) {
                // R"delim( ... )delim": scan the delimiter, then blank
                // the body up to (and including) the matching
                // terminator, preserving newlines.
                std::size_t open = text.find('(', i + 1);
                if (open == std::string::npos) {
                    out += '"';   // malformed; treat as ordinary
                    st = St::Str;
                    break;
                }
                std::string term = ")" +
                                   text.substr(i + 1, open - i - 1) +
                                   "\"";
                std::size_t end = text.find(term, open + 1);
                std::size_t stop = end == std::string::npos
                                       ? text.size()
                                       : end + term.size();
                out += '"';
                for (std::size_t j = i + 1; j + 1 < stop; ++j)
                    out += text[j] == '\n' ? '\n' : ' ';
                if (stop > i + 1)
                    out += '"';
                i = stop - 1;
            } else if (c == '"') {
                st = St::Str;
                out += '"';
            } else if (c == '\'') {
                st = St::Chr;
                out += '\'';
            } else {
                out += c;
            }
            break;
        case St::Line:
            if (c == '\n') {
                st = St::Code;
                out += '\n';
            } else {
                out += ' ';
            }
            break;
        case St::Block:
            if (c == '*' && n == '/') {
                st = St::Code;
                out += "  ";
                ++i;
            } else {
                out += c == '\n' ? '\n' : ' ';
            }
            break;
        case St::Str:
        case St::Chr: {
            char quote = st == St::Str ? '"' : '\'';
            if (c == '\\' && n != '\0') {
                out += "  ";
                ++i;
            } else if (c == quote) {
                st = St::Code;
                out += quote;
            } else {
                out += c == '\n' ? '\n' : ' ';
            }
            break;
        }
        }
    }
    return out;
}

bool
isIdentChar(char c)
{
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

/**
 * Tokenize stripped code. Preprocessor directives are skipped (the
 * include-guard rule reads the raw lines instead), except that the
 * conditionally-compiled body of the file is still tokenized.
 */
std::vector<Token>
tokenize(const std::string &stripped)
{
    std::vector<Token> toks;
    int line = 1;
    bool at_line_start = true;
    for (std::size_t i = 0; i < stripped.size();) {
        char c = stripped[i];
        if (c == '\n') {
            ++line;
            at_line_start = true;
            ++i;
            continue;
        }
        if (std::isspace(static_cast<unsigned char>(c))) {
            ++i;
            continue;
        }
        if (c == '#' && at_line_start) {
            // Skip the directive (and continuation lines).
            while (i < stripped.size()) {
                if (stripped[i] == '\\' && i + 1 < stripped.size() &&
                    stripped[i + 1] == '\n') {
                    ++line;
                    i += 2;
                    continue;
                }
                if (stripped[i] == '\n')
                    break;
                ++i;
            }
            continue;
        }
        at_line_start = false;
        if (isIdentChar(c)) {
            std::size_t j = i;
            while (j < stripped.size() && isIdentChar(stripped[j]))
                ++j;
            Token t;
            t.text = stripped.substr(i, j - i);
            t.line = line;
            t.ident = !std::isdigit(static_cast<unsigned char>(c));
            toks.push_back(std::move(t));
            i = j;
            continue;
        }
        // Two-character operators we care about distinguishing.
        static const char *two[] = {"<=", ">=", "<<", ">>", "->",
                                    "==", "!=", "&&", "||", "::"};
        std::string pair = stripped.substr(i, 2);
        bool matched = false;
        for (const char *op : two) {
            if (pair == op) {
                toks.push_back(Token{pair, line, false});
                i += 2;
                matched = true;
                break;
            }
        }
        if (matched)
            continue;
        toks.push_back(Token{std::string(1, c), line, false});
        ++i;
    }
    return toks;
}

/** Normalized path with everything up to a "src/" component removed
 *  (include guards are rooted at src/). */
std::string
guardPathOf(const fs::path &file, const fs::path &root)
{
    std::error_code ec;
    fs::path rel = fs::relative(file, root, ec);
    if (ec || rel.empty())
        rel = file;
    std::vector<std::string> parts;
    for (const auto &comp : rel) {
        std::string s = comp.string();
        if (s == "." || s == "..")
            continue;
        parts.push_back(s);
    }
    // Drop everything through a "src" component so in-tree and
    // out-of-tree invocations agree on the guard name.
    std::size_t start = 0;
    for (std::size_t i = 0; i < parts.size(); ++i) {
        if (parts[i] == "src") {
            start = i + 1;
            break;
        }
    }
    std::string joined;
    for (std::size_t i = start; i < parts.size(); ++i) {
        if (!joined.empty())
            joined += "/";
        joined += parts[i];
    }
    return joined;
}

std::string
expectedGuard(const std::string &guard_path)
{
    std::string g = "NVO_";
    for (char c : guard_path) {
        if (std::isalnum(static_cast<unsigned char>(c)))
            g += static_cast<char>(
                std::toupper(static_cast<unsigned char>(c)));
        else
            g += '_';
    }
    return g;
}

void
checkIncludeGuard(const std::string &display, const std::string &text,
                  const std::string &guard_path,
                  std::vector<Violation> &out)
{
    std::istringstream in(text);
    std::string line;
    int num = 0;
    std::string guard;
    int guard_line = 0;
    while (std::getline(in, line)) {
        ++num;
        std::size_t pos = line.find_first_not_of(" \t");
        if (pos == std::string::npos || line[pos] != '#')
            continue;
        std::istringstream ls(line.substr(pos + 1));
        std::string directive, name;
        ls >> directive >> name;
        if (directive == "ifndef") {
            guard = name;
            guard_line = num;
            break;
        }
        if (directive == "pragma")
            continue;
    }
    std::string want = expectedGuard(guard_path);
    if (guard.empty()) {
        out.push_back({display, 1, "include-guard",
                       "missing include guard (expected " + want +
                           ")"});
        return;
    }
    if (guard != want) {
        out.push_back({display, guard_line, "include-guard",
                       "guard " + guard + " does not match path "
                       "(expected " + want + ")"});
    }
}

/** Whether the argument list opening at token @p open (a "(") names
 *  any identifier containing "key" or "asid" — the asid-key rule's
 *  evidence that a persistent-structure mutation is tenant-tagged. */
bool
argsCarryAsid(const std::vector<Token> &toks, std::size_t open)
{
    int pdepth = 0;
    for (std::size_t j = open; j < toks.size(); ++j) {
        if (toks[j].text == "(") {
            ++pdepth;
        } else if (toks[j].text == ")") {
            if (--pdepth == 0)
                break;
        } else if (toks[j].ident) {
            std::string low;
            for (char ch : toks[j].text)
                low += static_cast<char>(
                    std::tolower(static_cast<unsigned char>(ch)));
            if (low.find("key") != std::string::npos ||
                low.find("asid") != std::string::npos)
                return true;
        }
    }
    return false;
}

void
lintTokens(const std::string &display, const std::vector<Token> &toks,
           bool is_epoch_header, bool raw_io_exempt,
           bool persist_scope, bool metric_scope,
           std::vector<Violation> &out)
{
    // Pass 1: identifiers declared with type EpochId.
    std::set<std::string> epoch_ids;
    for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
        if (toks[i].text == "EpochId" && toks[i + 1].ident &&
            (i == 0 || toks[i - 1].text != "<"))
            epoch_ids.insert(toks[i + 1].text);
    }

    static const std::set<std::string> relops = {"<", ">", "<=", ">="};
    for (std::size_t i = 0; i < toks.size(); ++i) {
        const Token &t = toks[i];

        if (relops.count(t.text) && i > 0 && i + 1 < toks.size()) {
            const Token &a = toks[i - 1];
            const Token &b = toks[i + 1];
            bool a_epoch = a.ident && epoch_ids.count(a.text);
            bool b_epoch = b.ident && epoch_ids.count(b.text);
            // `EpochId x` followed by a template/declaration angle
            // bracket never has an epoch variable on its left.
            if (a_epoch || b_epoch) {
                out.push_back(
                    {display, t.line, "epoch-compare",
                     "raw relational comparison of EpochId values "
                     "(16-bit tags wrap; use epoch::compareNarrow)"});
            }
        }

        if (t.text == "static_cast" && i + 3 < toks.size() &&
            toks[i + 1].text == "<" &&
            toks[i + 2].text == "EpochId" &&
            toks[i + 3].text == ">" && !is_epoch_header) {
            out.push_back(
                {display, t.line, "epoch-narrow",
                 "static_cast<EpochId> outside nvoverlay/epoch.hh "
                 "(narrow through epoch::narrow)"});
        }

        static const std::set<std::string> raw_io = {
            "printf", "fprintf", "vprintf", "vfprintf",
            "puts",   "fputs",   "putchar", "fputc",
            "putc",   "cout",    "cerr",    "clog"};
        if (!raw_io_exempt && t.ident && raw_io.count(t.text)) {
            out.push_back(
                {display, t.line, "raw-io",
                 "direct console output (" + t.text +
                     "); route through common/log, obs/, or the "
                     "harness table printer"});
        }

        static const std::set<std::string> master_names = {
            "master", "master_", "mt", "masterTable", "master_table"};
        static const std::set<std::string> master_muts = {"insert",
                                                          "erase"};
        // asid-key: master-table mutations must carry tenancy. A
        // master key built away from tenant::keyOf/tag, or a page-
        // pool alloc/free without the owning ASID, silently exits a
        // line from per-tenant quota and write-amp accounting.
        if (persist_scope && t.ident && master_names.count(t.text) &&
            i + 3 < toks.size() &&
            (toks[i + 1].text == "." || toks[i + 1].text == "->") &&
            master_muts.count(toks[i + 2].text) &&
            toks[i + 3].text == "(" &&
            !argsCarryAsid(toks, i + 3)) {
            out.push_back(
                {display, t.line, "asid-key",
                 "master-table " + toks[i + 2].text + " with an "
                 "untagged key (build it with tenant::keyOf / "
                 "tenant::tag so the mutation carries its ASID)"});
        }
        static const std::set<std::string> pool_muts = {"allocLines",
                                                        "freeLines"};
        if (persist_scope && t.ident && pool_muts.count(t.text) &&
            i > 0 &&
            (toks[i - 1].text == "." || toks[i - 1].text == "->") &&
            i + 1 < toks.size() && toks[i + 1].text == "(" &&
            !argsCarryAsid(toks, i + 1)) {
            out.push_back(
                {display, t.line, "asid-key",
                 t.text + "() without an owning ASID argument "
                 "(page-pool occupancy is accounted per tenant; "
                 "pass the caller's asid)"});
        }

        // metric-registry: instrumented subsystems must hold metric
        // *handles* from obs::metricRegistry() (addHist), never own
        // a Histogram by value — a privately owned
        // instrument is invisible to the exporter and to the stats
        // JSON metrics section.
        // Pointer declarations (`HistMetric *h`) and forward
        // declarations stay clean: the next token is not an ident.
        static const std::set<std::string> metric_types = {
            "Histogram", "HistMetric"};
        if (metric_scope && t.ident && metric_types.count(t.text) &&
            i + 1 < toks.size() && toks[i + 1].ident) {
            out.push_back(
                {display, t.line, "metric-registry",
                 "by-value " + t.text + " construction outside the "
                 "registry (hold a handle from obs::metricRegistry()"
                 ".addHist so the exporter and the "
                 "stats JSON see it)"});
        }

        if (t.text == "new") {
            out.push_back({display, t.line, "raw-new-delete",
                           "raw new expression (own memory with "
                           "containers or unique_ptr)"});
        }
        if (t.text == "delete") {
            // `= delete`d members and `operator delete` are fine.
            bool deleted_member = i > 0 && toks[i - 1].text == "=";
            bool op_decl = i > 0 && toks[i - 1].text == "operator";
            if (!deleted_member && !op_decl)
                out.push_back({display, t.line, "raw-new-delete",
                               "raw delete expression"});
        }
    }
}

/** Lint one in-memory file; guard_path decides the expected include
 *  guard and whether the epoch-narrow exemption applies. */
std::vector<Violation>
lintText(const std::string &display, const std::string &guard_path,
         const std::string &text)
{
    std::vector<Violation> out;
    AllowMarkers markers = collectMarkers(text);
    std::string stripped = stripCommentsAndStrings(text);
    std::vector<Token> toks = tokenize(stripped);

    bool is_header = guard_path.size() > 3 &&
                     guard_path.substr(guard_path.size() - 3) == ".hh";
    bool is_epoch_header = guard_path == "nvoverlay/epoch.hh";
    bool raw_io_exempt =
        guard_path.rfind("obs/", 0) == 0 ||
        guard_path.rfind("common/log", 0) == 0 ||
        guard_path.rfind("harness/table_printer", 0) == 0;
    bool persist_scope = guard_path.rfind("nvoverlay/", 0) == 0;
    bool metric_scope = persist_scope ||
                        guard_path.rfind("repl/", 0) == 0 ||
                        guard_path.rfind("tenant/", 0) == 0;
    if (is_header)
        checkIncludeGuard(display, text, guard_path, out);
    lintTokens(display, toks, is_epoch_header, raw_io_exempt,
               persist_scope, metric_scope, out);

    // Drop violations suppressed by an inline marker.
    out.erase(std::remove_if(
                  out.begin(), out.end(),
                  [&markers](const Violation &v) {
                      auto it = markers.find(v.line);
                      if (it == markers.end())
                          return false;
                      return it->second.count(v.rule) != 0 ||
                             it->second.count("*") != 0;
                  }),
              out.end());
    return out;
}

struct AllowEntry
{
    std::string rule;
    std::string pathSuffix;
};

std::vector<AllowEntry>
loadAllowlist(const std::string &path, bool &ok)
{
    std::vector<AllowEntry> entries;
    std::ifstream in(path);
    ok = in.good();
    std::string line;
    while (std::getline(in, line)) {
        std::size_t hash = line.find('#');
        if (hash != std::string::npos)
            line = line.substr(0, hash);
        std::istringstream ls(line);
        AllowEntry e;
        if (ls >> e.rule >> e.pathSuffix)
            entries.push_back(std::move(e));
    }
    return entries;
}

bool
suffixMatches(const std::string &path, const std::string &suffix)
{
    if (suffix.size() > path.size())
        return false;
    if (path.compare(path.size() - suffix.size(), suffix.size(),
                     suffix) != 0)
        return false;
    // Require a path-component boundary.
    return path.size() == suffix.size() ||
           path[path.size() - suffix.size() - 1] == '/';
}

bool
allowlisted(const Violation &v, const std::vector<AllowEntry> &allow)
{
    for (const auto &e : allow)
        if ((e.rule == v.rule || e.rule == "*") &&
            suffixMatches(v.file, e.pathSuffix))
            return true;
    return false;
}

int
selfTest()
{
    struct Case
    {
        const char *name;
        const char *guardPath;
        const char *code;
        const char *expectRule;   // nullptr = expect clean
    };
    const Case cases[] = {
        {"epoch compare flagged", "nvoverlay/foo.cc",
         "void f(EpochId a, EpochId b) { if (a < b) {} }\n",
         "epoch-compare"},
        {"epoch compare vs literal flagged", "nvoverlay/foo.cc",
         "bool g(EpochId tag) { return tag >= 5; }\n",
         "epoch-compare"},
        {"compareNarrow is clean", "nvoverlay/foo.cc",
         "bool h(EpochId a, EpochId b)\n"
         "{ return epoch::compareNarrow(a, b) < 0; }\n",
         nullptr},
        {"narrowing cast flagged", "nvoverlay/foo.cc",
         "EpochId n(EpochWide e) { return static_cast<EpochId>(e); }\n",
         "epoch-narrow"},
        {"narrowing cast allowed in epoch.hh", "nvoverlay/epoch.hh",
         "#ifndef NVO_NVOVERLAY_EPOCH_HH\n"
         "#define NVO_NVOVERLAY_EPOCH_HH\n"
         "inline EpochId n(EpochWide e)\n"
         "{ return static_cast<EpochId>(e); }\n"
         "#endif\n",
         nullptr},
        {"wrong include guard flagged", "cache/llc.hh",
         "#ifndef LLC_HH\n#define LLC_HH\n#endif\n",
         "include-guard"},
        {"matching include guard clean", "cache/llc.hh",
         "#ifndef NVO_CACHE_LLC_HH\n#define NVO_CACHE_LLC_HH\n"
         "#endif\n",
         nullptr},
        {"raw new flagged", "common/foo.cc",
         "int *leak() { return new int(7); }\n",
         "raw-new-delete"},
        {"assigned new flagged", "common/foo.cc",
         "void f(int *&p) { p = new int; }\n",
         "raw-new-delete"},
        {"raw delete flagged", "common/foo.cc",
         "void f(int *p) { delete p; }\n",
         "raw-new-delete"},
        {"deleted member is clean", "common/foo.cc",
         "struct A { A(const A &) = delete; };\n",
         nullptr},
        {"comment mentioning new is clean", "common/foo.cc",
         "// a new epoch starts here; delete nothing\n"
         "int x = 0;\n",
         nullptr},
        {"string mentioning delete is clean", "common/foo.cc",
         "const char *s = \"new delete if (a < b)\";\n",
         nullptr},
        {"block comment mentioning new is clean", "common/foo.cc",
         "/* new delete printf */ int x = 0;\n",
         nullptr},
        {"code sharing a line with a block comment fires",
         "common/foo.cc",
         "/* harmless */ int *p = new int;\n",
         "raw-new-delete"},
        {"raw string mentioning violations is clean", "common/foo.cc",
         "const char *s = R\"(new delete printf if (a < b))\";\n",
         nullptr},
        {"delimited raw string with quote is clean", "common/foo.cc",
         "const char *s = uR\"x(quote \" paren ) new)x\";\n"
         "int y = 0;\n",
         nullptr},
        {"code after a raw string on the same line fires",
         "common/foo.cc",
         "const char *s = R\"(x)\"; int *p = new int;\n",
         "raw-new-delete"},
        {"raw string quote does not swallow later code",
         "common/foo.cc",
         "const char *s = R\"(\")\";\n"
         "void f(int *p) { delete p; }\n",
         "raw-new-delete"},
        {"inline allow marker suppresses", "common/foo.cc",
         "int *p = new int;   // nvo-lint: allow(raw-new-delete)\n",
         nullptr},
        {"raw printf flagged", "cache/foo.cc",
         "void f() { printf(\"%d\", 1); }\n",
         "raw-io"},
        {"std::cout flagged", "nvoverlay/foo.cc",
         "void f() { std::cout << 1; }\n",
         "raw-io"},
        {"fprintf to stderr flagged", "mem/foo.cc",
         "void f() { std::fprintf(stderr, \"x\"); }\n",
         "raw-io"},
        {"printf exempt under obs/", "obs/foo.cc",
         "void f() { std::printf(\"%d\", 1); }\n",
         nullptr},
        {"printf exempt in common/log", "common/log.cc",
         "void f() { std::vfprintf(stderr, \"x\", {}); }\n",
         nullptr},
        {"printf exempt in table printer", "harness/table_printer.cc",
         "void f() { std::printf(\"x\"); }\n",
         nullptr},
        {"string mentioning printf is clean", "cache/foo.cc",
         "const char *s = \"printf cout\";\n",
         nullptr},
        {"raw-io allow marker suppresses", "cache/foo.cc",
         "void f() { puts(\"x\"); }  // nvo-lint: allow(raw-io)\n",
         nullptr},
        {"untagged master insert flagged", "nvoverlay/foo.cc",
         "void f() { master.insert(a, nvm, e); }\n",
         "asid-key"},
        {"keyOf-tagged master insert is clean", "nvoverlay/foo.cc",
         "void f() { master.insert(tenant::keyOf(a), nvm, e); }\n",
         nullptr},
        {"asid-named erase argument is clean", "nvoverlay/foo.cc",
         "void f() { mt->erase(asid_line); }\n",
         nullptr},
        {"allocLines without asid flagged", "nvoverlay/foo.cc",
         "void f() { pool.allocLines(4); }\n",
         "asid-key"},
        {"allocLines with asid is clean", "nvoverlay/foo.cc",
         "void f() { pool.allocLines(4, asid); }\n",
         nullptr},
        {"freeLines without asid flagged", "nvoverlay/foo.cc",
         "void f() { part.pool->freeLines(addr, n); }\n",
         "asid-key"},
        {"pool mutation outside nvoverlay is clean", "baselines/foo.cc",
         "void f() { pool.allocLines(4); }\n",
         nullptr},
        {"asid-key allow marker suppresses", "nvoverlay/foo.cc",
         "void f() { pool.allocLines(4); }"
         "  // nvo-lint: allow(asid-key)\n",
         nullptr},
        {"by-value Histogram flagged in nvoverlay", "nvoverlay/foo.cc",
         "struct S { Histogram walkDepth; };\n",
         "metric-registry"},
        {"by-value HistMetric flagged in tenant", "tenant/foo.cc",
         "struct S { obs::HistMetric stall; };\n",
         "metric-registry"},
        {"registry handle pointer is clean", "repl/foo.cc",
         "struct S { obs::HistMetric *hRing = nullptr; };\n",
         nullptr},
        {"metric forward declaration is clean", "nvoverlay/foo.cc",
         "namespace obs { struct HistMetric; }\n",
         nullptr},
        {"by-value Histogram outside the scoped dirs is clean",
         "obs/foo.cc",
         "struct S { Histogram h; };\n",
         nullptr},
        {"metric-registry allow marker suppresses", "nvoverlay/foo.cc",
         "struct S { Histogram h; };"
         "  // nvo-lint: allow(metric-registry)\n",
         nullptr},
    };

    int failures = 0;
    for (const auto &c : cases) {
        std::vector<Violation> vs =
            lintText(c.guardPath, c.guardPath, c.code);
        bool pass;
        if (c.expectRule == nullptr) {
            pass = vs.empty();
        } else {
            pass = !vs.empty() &&
                   std::all_of(vs.begin(), vs.end(),
                               [&c](const Violation &v) {
                                   return v.rule == c.expectRule;
                               });
        }
        if (!pass) {
            ++failures;
            std::fprintf(stderr, "self-test FAILED: %s\n", c.name);
            for (const auto &v : vs)
                std::fprintf(stderr, "  got %s:%d [%s] %s\n",
                             v.file.c_str(), v.line, v.rule.c_str(),
                             v.message.c_str());
        }
    }
    if (failures == 0) {
        std::printf("nvo_lint self-test: %zu cases passed\n",
                    sizeof(cases) / sizeof(cases[0]));
        return 0;
    }
    std::fprintf(stderr, "nvo_lint self-test: %d case(s) failed\n",
                 failures);
    return 1;
}

bool
lintable(const fs::path &p)
{
    std::string ext = p.extension().string();
    return ext == ".hh" || ext == ".cc";
}

/**
 * Fixture corpus: every lintable file in @p dir encodes its own
 * expectation in its name, `<rule_with_underscores>.<good|bad>
 * [.variant].cc`. A leading `// lint-path: <path>` line (within the
 * first five lines) pins the guard path the fixture is linted under,
 * so scope-gated rules can be exercised from anywhere on disk.
 */
int
runCorpus(const std::string &dir)
{
    std::error_code ec;
    std::vector<fs::path> fixtures;
    for (auto it = fs::directory_iterator(dir, ec);
         !ec && it != fs::directory_iterator(); ++it)
        if (it->is_regular_file() && lintable(it->path()))
            fixtures.push_back(it->path());
    if (ec || fixtures.empty()) {
        std::fprintf(stderr, "corpus %s: no lintable fixtures\n",
                     dir.c_str());
        return 2;
    }
    std::sort(fixtures.begin(), fixtures.end());

    int failures = 0;
    for (const fs::path &file : fixtures) {
        std::string stem = file.filename().string();
        std::size_t dot = stem.find('.');
        if (dot == std::string::npos) {
            std::fprintf(stderr, "corpus: unparsable name %s\n",
                         stem.c_str());
            ++failures;
            continue;
        }
        std::string rule = stem.substr(0, dot);
        std::replace(rule.begin(), rule.end(), '_', '-');
        std::size_t dot2 = stem.find('.', dot + 1);
        std::string verdict =
            stem.substr(dot + 1, dot2 == std::string::npos
                                     ? std::string::npos
                                     : dot2 - dot - 1);
        if (verdict != "good" && verdict != "bad") {
            std::fprintf(stderr,
                         "corpus: %s: expected .good or .bad\n",
                         stem.c_str());
            ++failures;
            continue;
        }

        std::ifstream in(file, std::ios::binary);
        if (!in) {
            std::fprintf(stderr, "cannot read %s\n",
                         file.string().c_str());
            return 2;
        }
        std::ostringstream buf;
        buf << in.rdbuf();
        std::string text = buf.str();

        std::string gpath = stem;
        std::istringstream head(text);
        std::string line;
        for (int n = 0; n < 5 && std::getline(head, line); ++n) {
            std::size_t pos = line.find("lint-path:");
            if (pos == std::string::npos)
                continue;
            std::istringstream ls(line.substr(pos + 10));
            ls >> gpath;
            break;
        }

        std::vector<Violation> vs =
            lintText(file.generic_string(), gpath, text);
        bool pass;
        if (verdict == "good") {
            pass = vs.empty();
        } else {
            pass = !vs.empty() &&
                   std::all_of(vs.begin(), vs.end(),
                               [&rule](const Violation &v) {
                                   return v.rule == rule;
                               });
        }
        if (!pass) {
            ++failures;
            std::fprintf(stderr, "corpus FAILED: %s (expected %s %s)\n",
                         stem.c_str(), verdict.c_str(), rule.c_str());
            for (const auto &v : vs)
                std::fprintf(stderr, "  got %s:%d [%s] %s\n",
                             v.file.c_str(), v.line, v.rule.c_str(),
                             v.message.c_str());
        }
    }
    if (failures == 0) {
        std::printf("nvo_lint corpus: %zu fixture(s) passed\n",
                    fixtures.size());
        return 0;
    }
    std::fprintf(stderr, "nvo_lint corpus: %d fixture(s) failed\n",
                 failures);
    return 1;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string allowlist_path;
    std::string corpus_dir;
    std::vector<std::string> roots;
    bool self_test = false;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--self-test") {
            self_test = true;
        } else if (arg == "--allowlist") {
            if (i + 1 >= argc) {
                std::fprintf(stderr,
                             "--allowlist needs a file argument\n");
                return 2;
            }
            allowlist_path = argv[++i];
        } else if (arg == "--corpus") {
            if (i + 1 >= argc) {
                std::fprintf(stderr,
                             "--corpus needs a directory argument\n");
                return 2;
            }
            corpus_dir = argv[++i];
        } else if (arg == "--help" || arg == "-h") {
            std::printf(
                "usage: nvo_lint [--allowlist FILE] [--self-test] "
                "[--corpus DIR] PATH...\n");
            return 0;
        } else {
            roots.push_back(arg);
        }
    }

    if (self_test)
        return selfTest();
    if (!corpus_dir.empty())
        return runCorpus(corpus_dir);

    if (roots.empty()) {
        std::fprintf(stderr, "usage: nvo_lint [--allowlist FILE] "
                             "[--self-test] [--corpus DIR] PATH...\n");
        return 2;
    }

    std::vector<AllowEntry> allow;
    if (allowlist_path.empty()) {
        // Default: tools/nvo_lint_allow.txt relative to the cwd.
        if (fs::exists("tools/nvo_lint_allow.txt"))
            allowlist_path = "tools/nvo_lint_allow.txt";
    }
    if (!allowlist_path.empty()) {
        bool ok = false;
        allow = loadAllowlist(allowlist_path, ok);
        if (!ok) {
            std::fprintf(stderr, "cannot read allowlist %s\n",
                         allowlist_path.c_str());
            return 2;
        }
    }

    std::vector<Violation> all;
    std::size_t files = 0;
    for (const std::string &root : roots) {
        fs::path rp(root);
        std::error_code ec;
        std::vector<fs::path> targets;
        if (fs::is_directory(rp, ec)) {
            for (auto it = fs::recursive_directory_iterator(rp, ec);
                 !ec && it != fs::recursive_directory_iterator();
                 ++it)
                if (it->is_regular_file() && lintable(it->path()))
                    targets.push_back(it->path());
        } else if (fs::is_regular_file(rp, ec)) {
            targets.push_back(rp);
        } else {
            std::fprintf(stderr, "cannot open %s\n", root.c_str());
            return 2;
        }
        std::sort(targets.begin(), targets.end());
        fs::path guard_root = fs::is_directory(rp) ? rp : fs::path(".");
        for (const fs::path &file : targets) {
            std::ifstream in(file, std::ios::binary);
            if (!in) {
                std::fprintf(stderr, "cannot read %s\n",
                             file.string().c_str());
                return 2;
            }
            std::ostringstream buf;
            buf << in.rdbuf();
            ++files;
            std::string display = file.generic_string();
            std::string gpath = guardPathOf(file, guard_root);
            for (auto &v : lintText(display, gpath, buf.str()))
                if (!allowlisted(v, allow))
                    all.push_back(std::move(v));
        }
    }

    for (const auto &v : all)
        std::fprintf(stderr, "%s:%d: [%s] %s\n", v.file.c_str(),
                     v.line, v.rule.c_str(), v.message.c_str());
    if (!all.empty()) {
        std::fprintf(stderr, "nvo_lint: %zu violation(s) in %zu "
                             "file(s) scanned\n",
                     all.size(), files);
        return 1;
    }
    std::printf("nvo_lint: %zu file(s) clean\n", files);
    return 0;
}
