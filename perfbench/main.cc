/**
 * @file
 * perfbench: the yasim regeneration benchmark (README.md).
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             --work DIR --digests FILE [--write-digests]
 *
 * Every set-up and every round runs in its own child process, forked
 * from a parent that never starts a thread. Each child so begins as a
 * fresh yasim process does: no worker pool yet, empty in-process caches
 * (SimPoint's simulation points among them) and a fresh heap.
 *
 * Set-up (inputs plus one untimed warm-up round) runs kSetUps times and
 * setup_s is their median. Untraced (--trace 0): timed rounds until S
 * seconds are spent (at least three), every round's result digest
 * checked, then the end-to-end metrics, each timing scaled to the
 * reference clock by the clock probe of the process that measured it
 * (kReferenceProbeMs). Traced (--trace 1): untraced
 * and traced rounds alternate twice, and the last traced child then
 * runs the per-layer probes under spans; prints the per-layer metrics,
 * the per-span self time, and the tracing overhead. The last stdout
 * line is always one JSON object
 * {"correct", "attempted", "failed", "metrics"}.
 */

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <optional>
#include <sstream>
#include <thread>

#include "perfbench.hh"
#include "support/logging.hh"
#include "support/thread_pool.hh"

namespace fs = std::filesystem;
using namespace perfbench;

namespace {

/**
 * Suite data seeds with checked-in digests. Untraced runs measure the
 * suite default; traced runs check the seed held out while the
 * benchmark was written. --seed orders service_warm's request stream.
 */
constexpr uint64_t kDefaultSuiteSeed = 12345;
constexpr uint64_t kHeldOutSuiteSeed = 4242;
constexpr size_t kMinRounds = 3;
constexpr size_t kSetUps = 3;

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\n"
                 "usage: perfbench --workload svat_cold|service_warm "
                 "--seed N --seconds S --trace 0|1\n"
                 "                 --work DIR --digests FILE "
                 "[--write-digests]\n",
                 why);
    std::exit(2);
}

uint64_t
parseCount(const char *text, const char *flag)
{
    char *end = nullptr;
    errno = 0;
    unsigned long long v = std::strtoull(text, &end, 10);
    if (errno != 0 || end == text || *end != '\0')
        usage((std::string("bad value for ") + flag).c_str());
    return v;
}

using DigestTable = std::map<std::pair<std::string, uint64_t>, std::string>;

DigestTable
readDigests(const std::string &path)
{
    DigestTable table;
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream fields(line);
        std::string workload, digest;
        uint64_t seed = 0;
        if (fields >> workload >> seed >> digest)
            table[{workload, seed}] = digest;
    }
    return table;
}

void
writeDigests(const std::string &path, const DigestTable &table)
{
    std::ofstream out(path);
    out << "# Expected result digests: workload, suite data seed, digest\n"
           "# over every result's SimStats, CPI, metric vector and "
           "BBEF/BBV plus\n"
           "# the figure table text. Regenerate with --write-digests only "
           "when a\n"
           "# change alters simulated results on purpose.\n";
    for (const auto &[key, digest] : table)
        out << key.first << ' ' << key.second << ' ' << digest << '\n';
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return ru.ru_maxrss / 1024.0;
}

void
printResult(bool correct, uint64_t attempted, uint64_t failed,
            const Metrics &metrics)
{
    std::fprintf(stderr, "\n%-34s %18s  %s\n", "metric", "value", "unit");
    for (const Metric &m : metrics)
        std::fprintf(stderr, "%-34s %18.6g  %s\n", m.name.c_str(), m.value,
                     m.unit.c_str());
    std::string json = "{\"correct\": ";
    json += correct ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(attempted);
    json += ", \"failed\": " + std::to_string(failed);
    json += ", \"metrics\": {";
    for (size_t i = 0; i < metrics.size(); ++i) {
        char value[64];
        std::snprintf(value, sizeof(value), "%.17g", metrics[i].value);
        json += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
                value + ", \"unit\": \"" + metrics[i].unit + "\"}";
    }
    json += "}}";
    std::fflush(stderr);
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
}

void
printFootprint(const std::string &workload, const CacheUsage &usage)
{
    const std::pair<const char *, KindUsage> kinds[] = {
        {"results (.result/.reflen)", usage.results},
        {"trace spills (.trace)", usage.traces},
        {"livepoints/", usage.livepoints},
        {"warm/", usage.warm},
        {"other", usage.other}};
    std::fprintf(stderr, "\ncache-dir footprint after a %s round:\n",
                 workload.c_str());
    for (const auto &[kind, k] : kinds)
        std::fprintf(stderr, "  %-28s %10.2f MB %8llu files\n", kind,
                     k.bytes / 1e6, static_cast<unsigned long long>(k.files));
}

bool
writeAll(int fd, const std::string &text)
{
    size_t off = 0;
    while (off < text.size()) {
        const ssize_t n = write(fd, text.data() + off, text.size() - off);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            return false;
        off += static_cast<size_t>(n);
    }
    return true;
}

/**
 * Run @p body in a child process and return the text it produced, or
 * nothing when the child failed. Returns only after the child ended.
 */
std::optional<std::string>
inChild(const std::function<std::string()> &body)
{
    int fds[2];
    if (pipe(fds) != 0)
        return std::nullopt;
    std::fflush(stdout);
    std::fflush(stderr);
    const pid_t pid = fork();
    if (pid < 0) {
        close(fds[0]);
        close(fds[1]);
        return std::nullopt;
    }
    if (pid == 0) {
        close(fds[0]);
        int code = 1;
        try {
            code = writeAll(fds[1], body()) ? 0 : 1;
        } catch (const std::exception &e) {
            std::fprintf(stderr, "perfbench: %s\n", e.what());
        }
        close(fds[1]);
        std::fflush(stderr);
        _exit(code);
    }
    close(fds[1]);
    std::string text;
    char buf[1 << 16];
    for (;;) {
        const ssize_t n = read(fds[0], buf, sizeof(buf));
        if (n > 0)
            text.append(buf, static_cast<size_t>(n));
        else if (n == 0 || errno != EINTR)
            break;
    }
    close(fds[0]);
    int status = 0;
    while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0)
        return std::nullopt;
    return text;
}

/** What one child process ran: a round and its per-layer metrics. */
struct Report
{
    Round round;
    Metrics layers;
    /** Seconds from fork to the clean-up after the child ended. */
    double elapsedS = 0.0;
};

} // namespace

int
main(int argc, char **argv)
{
    std::string workload_name, work, digests_path;
    uint64_t seed = 0;
    double seconds = 0.0;
    int trace = -1;
    bool write_digests = false;
    bool have_seed = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--write-digests") {
            write_digests = true;
            continue;
        }
        if (i + 1 >= argc)
            usage(("missing value for " + flag).c_str());
        const char *value = argv[++i];
        if (flag == "--workload") {
            workload_name = value;
        } else if (flag == "--seed") {
            seed = parseCount(value, "--seed");
            have_seed = true;
        } else if (flag == "--seconds") {
            seconds = static_cast<double>(parseCount(value, "--seconds"));
        } else if (flag == "--trace") {
            trace = static_cast<int>(parseCount(value, "--trace"));
        } else if (flag == "--work") {
            work = value;
        } else if (flag == "--digests") {
            digests_path = value;
        } else {
            usage(("unknown flag " + flag).c_str());
        }
    }
    if (!have_seed || seconds <= 0.0 || (trace != 0 && trace != 1) ||
        work.empty() || digests_path.empty())
        usage("missing or invalid arguments");

    yasim::setInformEnabled(false);
    yasim::setParallelWorkers(
        std::clamp(std::thread::hardware_concurrency(), 1u, 4u));
    const uint64_t suite_seed =
        trace == 1 ? kHeldOutSuiteSeed : kDefaultSuiteSeed;
    const std::string work_dir = work + "/" + workload_name;
    auto workload =
        makeWorkload(workload_name, seed, suite_seed, work_dir);
    if (!workload)
        usage(("unknown workload " + workload_name).c_str());
    freshDir(work_dir);

    DigestTable digests = readDigests(digests_path);
    const auto digest_key = std::make_pair(workload_name, suite_seed);
    bool correct = true;
    uint64_t attempted = 0, failed = 0;
    bool recorded = false;
    auto check_round = [&](const Round &round) {
        attempted += round.attempted;
        failed += round.failed;
        if (write_digests && !recorded && round.failed == 0) {
            digests[digest_key] = round.digest;
            recorded = true;
        }
        auto it = digests.find(digest_key);
        if (it == digests.end() || it->second != round.digest) {
            std::fprintf(stderr,
                         "perfbench: %s seed %llu: digest %s does not match "
                         "the expected %s\n",
                         workload_name.c_str(),
                         static_cast<unsigned long long>(suite_seed),
                         round.digest.c_str(),
                         it == digests.end() ? "(none)" : it->second.c_str());
            failed += round.attempted - std::min(round.failed, round.attempted);
            correct = false;
        }
        if (round.failed > 0)
            correct = false;
    };

    // One child: optionally set up first, then one round (traced or
    // not), then optionally the per-layer probes. Set-up failures and
    // probe checks count with the round's operations.
    auto run_child = [&](bool set_up, bool traced,
                         bool probes) -> std::optional<Report> {
        const auto t0 = Clock::now();
        auto text = inChild([&] {
            const double probe_before = clockProbeMs();
            const auto start = Clock::now();
            const uint64_t setup_failed = set_up ? workload->setUp() : 0;
            setTracing(traced);
            Round round = workload->runRound();
            round.processS = secondsSince(start);
            round.peakRssMb = peakRssMb();
            round.probeMs = 0.5 * (probe_before + clockProbeMs());
            round.attempted += setup_failed;
            round.failed += setup_failed;
            Metrics layers;
            if (probes) {
                const ProbeOutcome outcome =
                    runProbes(*workload, round, work_dir + "/probe", layers);
                round.attempted += outcome.checks;
                round.failed += outcome.failures;
                std::fprintf(stderr, "\nper-span self time (%s, traced "
                                     "run):\n",
                             workload_name.c_str());
                reportSelfTime(collectSpans(), stderr,
                               work + "/" + workload_name + "-spans.jsonl");
            }
            return encodeReport(round, layers);
        });
        // Between rounds and outside every timing: delete the round's
        // cache dir and write back what the file system still holds,
        // so one round's deletes and writeback never land in the next.
        if (!workload->cacheDir().empty())
            fs::remove_all(workload->cacheDir());
        sync();
        Report report;
        report.elapsedS = secondsSince(t0);
        if (!text || !decodeReport(*text, report.round, report.layers)) {
            std::fprintf(stderr, "perfbench: a %s child process failed\n",
                         workload_name.c_str());
            return std::nullopt;
        }
        check_round(report.round);
        return report;
    };
    auto give_up = [&] {
        fs::remove_all(work_dir);
        printResult(false, attempted + 1, failed + 1, {});
        return 1;
    };

    // Set-up: the workload's inputs, and one untimed warm-up round so
    // the host (page cache, file system, CPU clocks) is settled before
    // timing. Repeated; setup_s is the median. Every timing below is
    // scaled to the reference clock by its own process's clock probe.
    std::vector<double> setups;
    for (size_t s = 0; s < kSetUps; ++s) {
        const auto report = run_child(true, false, false);
        if (!report)
            return give_up();
        setups.push_back(report->round.processS *
                         report->round.clockScale());
    }
    const double setup_s = median(setups);

    Metrics metrics;
    if (trace == 0) {
        std::vector<Round> rounds;
        double last_elapsed_s = 0.0;
        const auto start = Clock::now();
        while (rounds.size() < kMinRounds ||
               secondsSince(start) + last_elapsed_s <= seconds) {
            const auto report = run_child(false, false, false);
            if (!report)
                return give_up();
            rounds.push_back(report->round);
            last_elapsed_s = report->elapsedS;
            std::fprintf(stderr,
                         "perfbench: %s round %zu: %.3f s, clock probe "
                         "%.2f ms\n",
                         workload_name.c_str(), rounds.size(),
                         rounds.back().wallS, rounds.back().probeMs);
        }
        std::vector<double> wall, raw_wall, probe, cache, rate, rss, req,
            hit;
        for (const Round &r : rounds) {
            const double scale = r.clockScale();
            wall.push_back(r.wallS * scale);
            raw_wall.push_back(r.wallS);
            probe.push_back(r.probeMs);
            cache.push_back(r.cacheBytes / 1e6);
            rate.push_back(r.reqMs.size() / (r.wallS * scale));
            rss.push_back(r.peakRssMb);
            for (double ms : r.reqMs)
                req.push_back(ms * scale);
            for (double ms : r.hitMs)
                hit.push_back(ms * scale);
        }
        std::fprintf(stderr,
                     "perfbench: %zu rounds, %zu requests, %zu hits; "
                     "unscaled median round %.3f s, clock probe median "
                     "%.2f ms (reference %.2f ms)\n",
                     rounds.size(), req.size(), hit.size(),
                     median(raw_wall), median(probe), kReferenceProbeMs);
        printFootprint(workload_name, rounds.back().usage);
        metrics = {
            {"wall_s", median(wall), "s"},
            {"setup_s", setup_s, "s"},
            {"peak_rss_mb", median(rss), "MB"},
            {"ok_frac",
             attempted ? double(attempted - std::min(failed, attempted)) /
                             attempted
                       : 0.0,
             "ratio"},
            {"cache_mb", median(cache), "MB"},
            {"req_p50_ms", quantile(req, 0.5), "ms"},
            {"req_p90_ms", quantile(req, 0.9), "ms"},
            {"hit_p50_ms", quantile(hit, 0.5), "ms"},
            {"req_per_s", median(rate), "1/s"},
        };
    } else {
        // Untraced and traced rounds alternate twice; the overhead is
        // the difference of their medians. The last traced child also
        // runs the probes.
        std::vector<double> untraced_wall, traced_wall;
        for (int pair = 0; pair < 2; ++pair) {
            const auto untraced = run_child(false, false, false);
            if (!untraced)
                return give_up();
            untraced_wall.push_back(untraced->round.wallS *
                                    untraced->round.clockScale());
            if (pair == 0)
                printFootprint(workload_name, untraced->round.usage);
            const auto traced = run_child(false, true, pair == 1);
            if (!traced)
                return give_up();
            traced_wall.push_back(traced->round.wallS *
                                  traced->round.clockScale());
            metrics = traced->layers;
        }
        const double untraced_s = median(untraced_wall);
        const double traced_s = median(traced_wall);
        metrics.push_back({"bench.untraced_wall_s", untraced_s, "s"});
        metrics.push_back({"bench.traced_wall_s", traced_s, "s"});
        metrics.push_back(
            {"bench.trace_overhead_s", traced_s - untraced_s, "s"});
    }

    if (write_digests)
        writeDigests(digests_path, digests);
    fs::remove_all(work_dir);
    printResult(correct, attempted, failed, metrics);
    return correct ? 0 : 1;
}
