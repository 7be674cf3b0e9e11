/**
 * @file
 * simlint — simulator-aware static analysis for scusim.
 *
 * Scans C++ sources for modeling hazards a generic linter cannot
 * know about. v2 runs per-function control-flow graphs with a
 * must-dataflow engine under the flow-sensitive rules (unguarded
 * fifo pushes, hardcoded device indices, leaked interconnect
 * credits) and token heuristics for the rest.
 *
 * Usage:
 *   simlint [options] [PATH...]        lint PATHs (default: src
 *                                      bench examples) under --root
 *   simlint --self-test DIR            run the fixture corpus: every
 *                                      expect() must fire, nothing
 *                                      else may
 *   simlint --list-rules               describe all rules
 *
 * Options:
 *   --root DIR           tree root (default: cwd); paths in
 *                        diagnostics are root-relative
 *   --format text|json|sarif
 *                        diagnostic format (default: text; sarif is
 *                        SARIF 2.1.0 for code-scanning upload)
 *   --baseline FILE      known-findings baseline: findings covered
 *                        by it are reported as warnings and do not
 *                        fail the run; only *new* findings do
 *   --write-baseline FILE
 *                        write the current findings as a baseline
 *   --jobs N             lint N files in parallel (default:
 *                        $SCUSIM_JOBS, else hardware concurrency);
 *                        finding order is deterministic regardless
 *
 * Exit status: 0 clean (or all findings baselined), 1 new findings
 * (or self-test mismatch), 2 usage or I/O error.
 */

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "lexer.hh"
#include "rules.hh"

namespace fs = std::filesystem;
using namespace simlint;

namespace
{

bool
isSourceFile(const fs::path &p)
{
    const std::string ext = p.extension().string();
    return ext == ".cc" || ext == ".hh" || ext == ".cpp" ||
           ext == ".hpp";
}

/** Read a whole file; returns false on I/O error. */
bool
slurp(const fs::path &p, std::string &out)
{
    std::ifstream in(p, std::ios::binary);
    if (!in)
        return false;
    std::ostringstream ss;
    ss << in.rdbuf();
    out = ss.str();
    return true;
}

/** Collect source files under @p path (file or directory). The
 *  simlint fixture corpus is deliberately full of findings and is
 *  excluded from tree lints (it is covered by --self-test). */
bool
collect(const fs::path &path, std::vector<fs::path> &out)
{
    std::error_code ec;
    if (fs::is_regular_file(path, ec)) {
        out.push_back(path);
        return true;
    }
    if (!fs::is_directory(path, ec)) {
        std::fprintf(stderr, "simlint: no such file or directory: "
                             "%s\n",
                     path.string().c_str());
        return false;
    }
    for (fs::recursive_directory_iterator it(path, ec), end;
         it != end; it.increment(ec)) {
        if (ec) {
            std::fprintf(stderr, "simlint: error walking %s: %s\n",
                         path.string().c_str(),
                         ec.message().c_str());
            return false;
        }
        if (!it->is_regular_file() || !isSourceFile(it->path()))
            continue;
        const std::string g = it->path().generic_string();
        if (g.find("simlint/fixtures") != std::string::npos)
            continue;
        out.push_back(it->path());
    }
    return true;
}

std::string
relativeTo(const fs::path &p, const fs::path &root)
{
    std::error_code ec;
    fs::path rel = fs::proximate(p, root, ec);
    std::string s = (ec ? p : rel).generic_string();
    return s;
}

/**
 * The paired header of a .cc/.cpp file (same stem, .hh/.hpp, same
 * directory), if it exists. Its declarations seed the symbol table
 * so member fifos declared in the header are visible to the flow
 * rules while linting the implementation file.
 */
fs::path
companionHeader(const fs::path &p)
{
    const std::string ext = p.extension().string();
    if (ext != ".cc" && ext != ".cpp")
        return {};
    for (const char *hext : {".hh", ".hpp"}) {
        fs::path h = p;
        h.replace_extension(hext);
        std::error_code ec;
        if (fs::is_regular_file(h, ec))
            return h;
    }
    return {};
}

/** Turn stale allow() directives into reportable findings. */
void
appendUnusedSuppressions(const LexedFile &lf, const RuleResults &rr,
                         std::vector<Finding> &out)
{
    for (const Directive &d : rr.unusedAllows) {
        out.push_back(Finding{
            lf.path, d.line, "unused-suppression",
            "allow(" + d.rule +
                ") suppresses nothing on this or the next line; "
                "the hazard was fixed or the rule got more "
                "precise — remove the comment"});
    }
}

int
parseJobs(const char *arg)
{
    int jobs = 0;
    if (arg) {
        jobs = std::atoi(arg);
    } else if (const char *env = std::getenv("SCUSIM_JOBS")) {
        jobs = std::atoi(env);
    }
    if (jobs <= 0)
        jobs = static_cast<int>(std::thread::hardware_concurrency());
    if (jobs <= 0)
        jobs = 1;
    return jobs;
}

// ---------------------------------------------------------------
// Baselines: `count rule path` per line, '#' comments. A finding
// (rule, path) pair is "baselined" while the recorded count lasts;
// anything beyond it is new and fails the run.
// ---------------------------------------------------------------

bool
loadBaseline(const fs::path &file,
             std::map<std::pair<std::string, std::string>, int> &out)
{
    std::ifstream in(file);
    if (!in) {
        std::fprintf(stderr, "simlint: cannot read baseline %s\n",
                     file.string().c_str());
        return false;
    }
    std::string lineStr;
    while (std::getline(in, lineStr)) {
        std::istringstream ls(lineStr);
        int count = 0;
        std::string rule, path;
        if (!(ls >> count))
            continue; // blank or '#' comment line
        if (!(ls >> rule >> path))
            continue;
        out[{rule, path}] += count;
    }
    return true;
}

bool
writeBaseline(const fs::path &file,
              const std::vector<Finding> &findings)
{
    std::map<std::pair<std::string, std::string>, int> counts;
    for (const auto &f : findings)
        ++counts[{f.rule, f.path}];
    std::ofstream out(file, std::ios::trunc);
    if (!out) {
        std::fprintf(stderr, "simlint: cannot write baseline %s\n",
                     file.string().c_str());
        return false;
    }
    out << "# simlint baseline: known findings that do not fail the "
           "lint.\n"
        << "# Format: <count> <rule> <path>. Regenerate with\n"
        << "#   simlint --write-baseline simlint.baseline [PATH...]\n"
        << "# The gate fails only on findings NOT covered here, so\n"
        << "# the count can only ratchet down.\n";
    for (const auto &[key, n] : counts)
        out << n << ' ' << key.first << ' ' << key.second << '\n';
    return true;
}

// ---------------------------------------------------------------
// Output formats
// ---------------------------------------------------------------

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 8);
    for (char c : s) {
        switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\t': out += "\\t"; break;
        case '\r': out += "\\r"; break;
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
printText(const std::vector<Finding> &findings,
          const std::vector<bool> &baselined)
{
    for (std::size_t i = 0; i < findings.size(); ++i) {
        const Finding &f = findings[i];
        std::fprintf(stderr, "%s:%d: %s[%s] %s\n", f.path.c_str(),
                     f.line, baselined[i] ? "(baselined) " : "",
                     f.rule.c_str(), f.message.c_str());
    }
}

void
printJson(const std::vector<Finding> &findings,
          const std::vector<bool> &baselined)
{
    std::printf("[\n");
    for (std::size_t i = 0; i < findings.size(); ++i) {
        const Finding &f = findings[i];
        std::printf("  {\"path\": \"%s\", \"line\": %d, \"rule\": "
                    "\"%s\", \"baselined\": %s, \"message\": "
                    "\"%s\"}%s\n",
                    jsonEscape(f.path).c_str(), f.line,
                    jsonEscape(f.rule).c_str(),
                    baselined[i] ? "true" : "false",
                    jsonEscape(f.message).c_str(),
                    i + 1 < findings.size() ? "," : "");
    }
    std::printf("]\n");
}

void
printSarif(const std::vector<Finding> &findings,
           const std::vector<bool> &baselined)
{
    std::printf(
        "{\n"
        "  \"$schema\": "
        "\"https://json.schemastore.org/sarif-2.1.0.json\",\n"
        "  \"version\": \"2.1.0\",\n"
        "  \"runs\": [{\n"
        "    \"tool\": {\"driver\": {\n"
        "      \"name\": \"simlint\",\n"
        "      \"informationUri\": "
        "\"https://example.invalid/scusim/tools/simlint\",\n"
        "      \"rules\": [\n");
    const auto &reg = ruleRegistry();
    for (std::size_t i = 0; i < reg.size(); ++i) {
        std::printf("        {\"id\": \"%s\", \"shortDescription\": "
                    "{\"text\": \"%s\"}}%s\n",
                    jsonEscape(reg[i].name).c_str(),
                    jsonEscape(reg[i].description).c_str(),
                    i + 1 < reg.size() ? "," : "");
    }
    std::printf("      ]\n"
                "    }},\n"
                "    \"results\": [\n");
    for (std::size_t i = 0; i < findings.size(); ++i) {
        const Finding &f = findings[i];
        std::printf(
            "      {\"ruleId\": \"%s\", \"level\": \"%s\", "
            "\"message\": {\"text\": \"%s\"}, \"locations\": "
            "[{\"physicalLocation\": {\"artifactLocation\": "
            "{\"uri\": \"%s\"}, \"region\": {\"startLine\": "
            "%d}}}]}%s\n",
            jsonEscape(f.rule).c_str(),
            baselined[i] ? "warning" : "error",
            jsonEscape(f.message).c_str(),
            jsonEscape(f.path).c_str(), f.line,
            i + 1 < findings.size() ? "," : "");
    }
    std::printf("    ]\n"
                "  }]\n"
                "}\n");
}

// ---------------------------------------------------------------
// Tree lint
// ---------------------------------------------------------------

struct Options
{
    fs::path root;
    std::vector<std::string> paths;
    std::string format = "text";
    std::string baselineFile;
    std::string writeBaselineFile;
    int jobs = 1;
};

int
lintTree(const Options &opt)
{
    std::vector<fs::path> files;
    for (const auto &p : opt.paths) {
        if (!collect(opt.root / p, files))
            return 2;
    }
    std::sort(files.begin(), files.end());
    files.erase(std::unique(files.begin(), files.end()),
                files.end());

    // One result slot per file, filled by a worker pool and merged
    // in file order, so the output is deterministic for any --jobs.
    std::vector<std::vector<Finding>> slots(files.size());
    std::vector<std::string> errors(files.size());
    std::atomic<std::size_t> next{0};

    auto work = [&]() {
        for (;;) {
            std::size_t idx = next.fetch_add(1);
            if (idx >= files.size())
                return;
            const fs::path &file = files[idx];
            std::string src;
            if (!slurp(file, src)) {
                errors[idx] =
                    "simlint: cannot read " + file.string();
                continue;
            }
            LexedFile lf = lex(relativeTo(file, opt.root), src);

            LexedFile companion;
            const LexedFile *companionPtr = nullptr;
            fs::path hdr = companionHeader(file);
            if (!hdr.empty()) {
                std::string hsrc;
                if (slurp(hdr, hsrc)) {
                    companion =
                        lex(relativeTo(hdr, opt.root), hsrc);
                    companionPtr = &companion;
                }
            }

            RuleResults rr =
                runRules(lf, /*treatAsSrc=*/false, companionPtr);
            slots[idx] = std::move(rr.findings);
            appendUnusedSuppressions(lf, rr, slots[idx]);
        }
    };

    const int jobs = std::max(
        1, std::min<int>(opt.jobs,
                         static_cast<int>(files.size())));
    if (jobs <= 1) {
        work();
    } else {
        std::vector<std::thread> pool;
        for (int t = 0; t < jobs; ++t)
            pool.emplace_back(work);
        for (auto &t : pool)
            t.join();
    }

    for (const auto &err : errors) {
        if (!err.empty()) {
            std::fprintf(stderr, "%s\n", err.c_str());
            return 2;
        }
    }

    std::vector<Finding> all;
    for (auto &slot : slots)
        all.insert(all.end(), slot.begin(), slot.end());
    std::sort(all.begin(), all.end(),
              [](const Finding &x, const Finding &y) {
                  if (x.path != y.path)
                      return x.path < y.path;
                  if (x.line != y.line)
                      return x.line < y.line;
                  return x.rule < y.rule;
              });

    if (!opt.writeBaselineFile.empty()) {
        if (!writeBaseline(opt.root / opt.writeBaselineFile, all))
            return 2;
        std::printf("simlint: baseline with %zu finding%s written "
                    "to %s\n",
                    all.size(), all.size() == 1 ? "" : "s",
                    opt.writeBaselineFile.c_str());
        return 0;
    }

    std::map<std::pair<std::string, std::string>, int> baseline;
    if (!opt.baselineFile.empty() &&
        !loadBaseline(opt.root / opt.baselineFile, baseline))
        return 2;

    std::vector<bool> baselined(all.size(), false);
    std::size_t fresh = 0;
    for (std::size_t i = 0; i < all.size(); ++i) {
        auto it = baseline.find({all[i].rule, all[i].path});
        if (it != baseline.end() && it->second > 0) {
            --it->second;
            baselined[i] = true;
        } else {
            ++fresh;
        }
    }

    if (opt.format == "json")
        printJson(all, baselined);
    else if (opt.format == "sarif")
        printSarif(all, baselined);
    else
        printText(all, baselined);

    if (fresh) {
        std::fprintf(stderr,
                     "simlint: %zu new finding%s (%zu baselined) in "
                     "%zu files scanned\n",
                     fresh, fresh == 1 ? "" : "s",
                     all.size() - fresh, files.size());
        return 1;
    }
    if (opt.format == "text") {
        if (!all.empty()) {
            std::fprintf(stderr,
                         "simlint: %zu baselined finding%s, none "
                         "new, in %zu files scanned\n",
                         all.size(), all.size() == 1 ? "" : "s",
                         files.size());
        } else {
            std::printf("simlint: %zu files clean\n", files.size());
        }
    }
    return 0;
}

/**
 * Self-test over the fixture corpus: the (line, rule) multiset of
 * findings in every fixture file must match its expect() directives
 * exactly — missing *and* unexpected findings fail. Unused allow()
 * directives surface as unused-suppression findings here too, so
 * fixtures can pin the meta-rule's behavior with expect().
 */
int
selfTest(const fs::path &dir)
{
    std::vector<fs::path> files;
    std::error_code ec;
    for (fs::recursive_directory_iterator it(dir, ec), end;
         it != end; it.increment(ec)) {
        if (ec) {
            std::fprintf(stderr, "simlint: error walking %s: %s\n",
                         dir.string().c_str(), ec.message().c_str());
            return 2;
        }
        if (it->is_regular_file() && isSourceFile(it->path()))
            files.push_back(it->path());
    }
    if (files.empty()) {
        std::fprintf(stderr, "simlint: no fixtures under %s\n",
                     dir.string().c_str());
        return 2;
    }
    std::sort(files.begin(), files.end());

    int failures = 0;
    std::size_t expectations = 0;
    for (const auto &file : files) {
        std::string src;
        if (!slurp(file, src)) {
            std::fprintf(stderr, "simlint: cannot read %s\n",
                         file.string().c_str());
            return 2;
        }
        LexedFile lf = lex(relativeTo(file, dir), src);
        RuleResults rr = runRules(lf, /*treatAsSrc=*/true);
        std::vector<Finding> found = std::move(rr.findings);
        appendUnusedSuppressions(lf, rr, found);

        std::map<std::pair<int, std::string>, int> want, got;
        for (const auto &d : lf.directives) {
            if (d.kind == Directive::Kind::Expect)
                ++want[{d.line, d.rule}];
        }
        for (const auto &f : found)
            ++got[{f.line, f.rule}];
        expectations += found.size();

        for (const auto &[key, n] : want) {
            int have = got.count(key) ? got[key] : 0;
            if (have < n) {
                std::fprintf(stderr,
                             "simlint self-test: %s:%d: expected "
                             "[%s] to fire (%dx), fired %dx\n",
                             lf.path.c_str(), key.first,
                             key.second.c_str(), n, have);
                ++failures;
            }
        }
        for (const auto &[key, n] : got) {
            int wanted = want.count(key) ? want[key] : 0;
            if (n > wanted) {
                std::fprintf(stderr,
                             "simlint self-test: %s:%d: unexpected "
                             "[%s] finding (%dx, expected %dx)\n",
                             lf.path.c_str(), key.first,
                             key.second.c_str(), n, wanted);
                ++failures;
            }
        }
    }
    if (failures) {
        std::fprintf(stderr, "simlint self-test: %d mismatch%s\n",
                     failures, failures == 1 ? "" : "es");
        return 1;
    }
    std::printf("simlint self-test: %zu fixtures, %zu findings, all "
                "as expected\n",
                files.size(), expectations);
    return 0;
}

void
listRules()
{
    for (const auto &r : ruleRegistry()) {
        std::printf("%-28s %s%s\n", r.name.c_str(),
                    r.description.c_str(),
                    r.srcOnly ? " [src/ only]" : "");
    }
}

int
usage()
{
    std::fprintf(
        stderr,
        "usage: simlint [--root DIR] [--format text|json|sarif]\n"
        "               [--baseline FILE] [--write-baseline FILE]\n"
        "               [--jobs N] [PATH...]\n"
        "       simlint --self-test DIR\n"
        "       simlint --list-rules\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    opt.root = fs::current_path();
    opt.jobs = parseJobs(nullptr);
    std::string selfTestDir;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--list-rules") {
            listRules();
            return 0;
        } else if (arg == "--root") {
            if (++i >= argc)
                return usage();
            opt.root = argv[i];
        } else if (arg == "--self-test") {
            if (++i >= argc)
                return usage();
            selfTestDir = argv[i];
        } else if (arg == "--format") {
            if (++i >= argc)
                return usage();
            opt.format = argv[i];
            if (opt.format != "text" && opt.format != "json" &&
                opt.format != "sarif")
                return usage();
        } else if (arg == "--baseline") {
            if (++i >= argc)
                return usage();
            opt.baselineFile = argv[i];
        } else if (arg == "--write-baseline") {
            if (++i >= argc)
                return usage();
            opt.writeBaselineFile = argv[i];
        } else if (arg == "--jobs") {
            if (++i >= argc)
                return usage();
            opt.jobs = parseJobs(argv[i]);
        } else if (!arg.empty() && arg[0] == '-') {
            return usage();
        } else {
            opt.paths.push_back(arg);
        }
    }

    if (!selfTestDir.empty())
        return selfTest(selfTestDir);

    if (opt.paths.empty())
        opt.paths = {"src", "bench", "examples"};
    return lintTree(opt);
}
