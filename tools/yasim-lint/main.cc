/**
 * @file
 * yasim-analyze command-line driver.
 *
 *     yasim-analyze [--root DIR] [--rules R1,R2] [--allow SUFFIX:RULE]
 *                   [--no-builtin-allowlist] [--list-rules]
 *                   [--sarif FILE] [--since REF] [--fix]
 *                   [--update-lock] [--lock FILE] [--baseline FILE]
 *                   [--serial] [paths...]
 *
 * Paths (subtrees relative to --root) default to src bench tests.
 * Exit status: 0 clean, 1 findings, 2 usage or I/O error — an
 * unreadable file, a corrupt serialization.lock, or a corrupt
 * baseline is an operational failure, not a lint finding, and must
 * not be mistaken for one by CI.
 */

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "analyze.hh"

namespace {

int
usage(std::ostream &os, int status)
{
    os << "usage: yasim-analyze [--root DIR] [--rules R1,R2] "
          "[--allow SUFFIX:RULE]\n"
          "                     [--no-builtin-allowlist] "
          "[--list-rules] [--sarif FILE]\n"
          "                     [--since REF] [--fix] "
          "[--update-lock] [--lock FILE]\n"
          "                     [--baseline FILE] [--serial] "
          "[paths...]\n"
          "exit codes: 0 clean, 1 findings, 2 usage or I/O error\n";
    return status;
}

/**
 * Root-relative files that differ from @p ref (committed or working
 * tree) plus untracked files; empty with @p ok=false when git fails.
 */
std::vector<std::string>
changedFiles(const std::string &root, const std::string &ref, bool &ok)
{
    std::vector<std::string> files;
    ok = false;
    const std::string commands[] = {
        "git -C '" + root + "' diff --name-only '" + ref + "' 2>&1",
        "git -C '" + root +
            "' ls-files --others --exclude-standard 2>&1",
    };
    for (const std::string &command : commands) {
        FILE *pipe = popen(command.c_str(), "r");
        if (!pipe)
            return files;
        char buffer[4096];
        std::string output;
        while (fgets(buffer, sizeof buffer, pipe))
            output += buffer;
        if (pclose(pipe) != 0) {
            std::cerr << "yasim-analyze: git failed: " << output;
            return files;
        }
        size_t start = 0;
        while (start < output.size()) {
            size_t eol = output.find('\n', start);
            if (eol == std::string::npos)
                eol = output.size();
            if (eol > start)
                files.push_back(output.substr(start, eol - start));
            start = eol + 1;
        }
    }
    ok = true;
    return files;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace yasim::lint;

    std::string root = ".";
    AnalyzeOptions options;
    std::vector<std::string> paths;
    bool listRules = false;
    std::string sarifPath;
    std::string sinceRef;

    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        auto value = [&]() -> const char * {
            if (i + 1 >= argc) {
                std::cerr << "yasim-analyze: " << arg
                          << " needs a value\n";
                std::exit(2);
            }
            return argv[++i];
        };
        if (std::strcmp(arg, "--root") == 0) {
            root = value();
        } else if (std::strcmp(arg, "--rules") == 0) {
            std::string list = value();
            size_t start = 0;
            while (start <= list.size()) {
                size_t comma = list.find(',', start);
                if (comma == std::string::npos)
                    comma = list.size();
                if (comma > start)
                    options.lint.rules.push_back(
                        list.substr(start, comma - start));
                start = comma + 1;
            }
        } else if (std::strcmp(arg, "--allow") == 0) {
            options.lint.extraAllow.push_back(value());
        } else if (std::strcmp(arg, "--no-builtin-allowlist") == 0) {
            options.lint.builtinAllowlist = false;
        } else if (std::strcmp(arg, "--list-rules") == 0) {
            listRules = true;
        } else if (std::strcmp(arg, "--sarif") == 0) {
            sarifPath = value();
        } else if (std::strcmp(arg, "--since") == 0) {
            sinceRef = value();
        } else if (std::strcmp(arg, "--fix") == 0) {
            options.fix = true;
        } else if (std::strcmp(arg, "--update-lock") == 0) {
            options.updateLock = true;
        } else if (std::strcmp(arg, "--lock") == 0) {
            options.lockPath = value();
        } else if (std::strcmp(arg, "--baseline") == 0) {
            options.baselinePath = value();
        } else if (std::strcmp(arg, "--serial") == 0) {
            options.parallel = false;
        } else if (std::strcmp(arg, "--help") == 0 ||
                   std::strcmp(arg, "-h") == 0) {
            return usage(std::cout, 0);
        } else if (arg[0] == '-') {
            std::cerr << "yasim-analyze: unknown option " << arg
                      << "\n";
            return usage(std::cerr, 2);
        } else {
            paths.push_back(arg);
        }
    }

    if (listRules) {
        for (const RuleInfo &info : analyzeRuleCatalog())
            std::cout << info.id << "  " << info.summary << "\n";
        return 0;
    }

    if (!paths.empty())
        options.roots = paths;

    if (!sinceRef.empty()) {
        bool ok = false;
        options.sinceFiles = changedFiles(root, sinceRef, ok);
        if (!ok) {
            std::cerr << "yasim-analyze: --since " << sinceRef
                      << ": cannot determine changed files\n";
            return 2;
        }
        if (options.sinceFiles.empty()) {
            std::cerr << "yasim-analyze: clean (no files changed "
                         "since "
                      << sinceRef << ")\n";
            return 0;
        }
    }

    AnalyzeResult result = analyzeRepo(root, options);

    if (!sarifPath.empty()) {
        std::string report = sarifReport(result.findings);
        if (sarifPath == "-") {
            std::cout << report;
        } else {
            std::ofstream out(sarifPath, std::ios::binary);
            if (!out || !(out << report)) {
                std::cerr << "yasim-analyze: cannot write SARIF to "
                          << sarifPath << "\n";
                return 2;
            }
        }
    }

    bool ioError = false;
    for (const Finding &f : result.findings) {
        if (f.rule == "IO")
            ioError = true;
        std::cout << f.file << ":" << f.line << ": [" << f.rule
                  << "] " << f.message << "\n";
    }
    if (result.fixedIncludes > 0) {
        std::cerr << "yasim-analyze: removed " << result.fixedIncludes
                  << " unused include"
                  << (result.fixedIncludes == 1 ? "" : "s") << "\n";
    }
    if (ioError) {
        std::cerr << "yasim-analyze: I/O error (see findings marked "
                     "[IO])\n";
        return 2;
    }
    if (result.findings.empty()) {
        std::cerr << "yasim-analyze: clean (" << result.filesScanned
                  << " files)\n";
        return 0;
    }
    std::cerr << "yasim-analyze: " << result.findings.size()
              << " finding"
              << (result.findings.size() == 1 ? "" : "s") << "\n";
    return 1;
}
