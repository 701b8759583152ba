/**
 * @file
 * bench_service — the yasimd load generator and correctness harness.
 *
 * Hammers one daemon with N concurrent clients, each pipelining the
 * same M-cell experiment grid, then proves the service honored its
 * contract under whatever faults were injected:
 *
 *   - zero lost responses: every client got a terminal answer for
 *     every request it submitted;
 *   - zero duplicated responses: ids are matched one-to-one;
 *   - bit-identical results: every response's key and serialized
 *     result equal a direct in-process executeRequest() of the same
 *     request on a local verification engine — the daemon's shared
 *     caches and the transport (including failpoint-corrupted frames
 *     and the reconnect+resubmit recovery) change nothing.
 *
 * --deadline-ms N turns on the deadline storm: requests carry a
 * deterministic mix of hopeless, plausible, generous, and absent
 * deadlines, so one run exercises queued expiry, mid-run deadline
 * unwinding, overload shedding, and untouched completions at once.
 * The contract tightens rather than loosens: every request still gets
 * exactly one response; Ok responses must still be bit-identical to
 * the in-process run; Cancelled/DeadlineExceeded/shed responses must
 * carry no result payload.
 *
 * By default it spawns an in-process daemon on a private Unix socket;
 * --socket/--port aims it at an external yasimd instead (the CI
 * service job starts one under YASIM_FAILPOINTS and drains it with
 * SIGTERM afterwards). Emits a JsonReport of kind "service-load" with
 * throughput, rejection/reconnect counts, and the daemon's shared-
 * cache hit rate. Exit status 0 only when every assertion held.
 */

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "engine/options.hh"
#include "engine/result_io.hh"
#include "service/client.hh"
#include "service/daemon.hh"
#include "support/failpoint.hh"
#include "support/logging.hh"

using namespace yasim;

namespace {

[[noreturn]] void
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s [options]\n"
        "\n"
        "load options:\n"
        "  --clients N     concurrent client connections (default 8)\n"
        "  --requests N    grid cells per client (default 200)\n"
        "  --window N      outstanding requests per client (default 16)\n"
        "  --json PATH     write the service-load JsonReport to PATH\n"
        "  --ref-insts N   suite reference length (default 2000000)\n"
        "  --seed N        suite data seed (default 12345)\n"
        "  --deadline-ms N deadline storm: mixed per-request deadlines "
        "around N ms (default 0 = off)\n"
        "\n"
        "daemon options (default: spawn an in-process daemon):\n"
        "  --socket PATH   use the external yasimd at PATH\n"
        "  --port N        use the external yasimd on loopback port N\n"
        "\n"
        "engine options (in-process daemon only):\n%s",
        argv0, engineCliUsage());
    std::exit(2);
}

const char *
nextValue(int argc, char **argv, int &i)
{
    if (i + 1 >= argc) {
        std::fprintf(stderr, "bench_service: option '%s' needs a value\n",
                     argv[i]);
        std::exit(2);
    }
    return argv[++i];
}

/**
 * @p text, the value of @p flag, as a whole decimal number no larger
 * than @p max, the largest value the flag's field holds; exit 2
 * otherwise.
 */
uint64_t
parseCount(const char *flag, const char *text, uint64_t max = UINT64_MAX)
{
    uint64_t value = 0;
    if (!parseDecimal(text, value)) {
        std::fprintf(stderr,
                     "bench_service: %s wants a number, got '%s'\n",
                     flag, text);
        std::exit(2);
    }
    if (value > max) {
        std::fprintf(stderr,
                     "bench_service: %s wants a number up to %llu, got '%s'\n",
                     flag, static_cast<unsigned long long>(max), text);
        std::exit(2);
    }
    return value;
}

/** The grid: deterministic, and identical for every client. */
std::vector<ExperimentRequest>
buildGrid(size_t cells, const SuiteConfig &suite, uint64_t deadline_ms)
{
    static const char *const kBenchmarks[] = {"gzip", "mcf"};
    std::vector<ExperimentRequest> grid;
    grid.reserve(cells);
    for (size_t r = 0; r < cells; ++r) {
        ExperimentRequest request;
        request.kind = RequestKind::Run;
        request.benchmark = kBenchmarks[r % 2];
        request.technique = "reference";
        request.config = (r % 3 == 0)
                             ? csprintf("arch:%zu", r % 4 + 1)
                             : csprintf("pb:%zu", r % 40);
        request.priority = uint32_t(r % 3);
        request.suite = suite;
        if (deadline_ms > 0) {
            // The storm mix (file comment): hopeless, plausible,
            // generous, none — by request index, so every client
            // stresses the same deterministic spectrum.
            switch (r % 4) {
              case 0:
                request.deadlineMs = 1;
                break;
              case 1:
                request.deadlineMs = deadline_ms;
                break;
              case 2:
                request.deadlineMs = deadline_ms * 8;
                break;
              default:
                break; // no deadline
            }
        }
        grid.push_back(std::move(request));
    }
    return grid;
}

/** A response's comparable identity: status, key, exact result bytes. */
std::string
responseFingerprint(const ExperimentResponse &response)
{
    std::ostringstream os;
    os << "status " << uint32_t(response.status) << "\n"
       << "error " << response.error << "\n";
    if (!response.key.empty())
        writeResult(os, response.key, response.result);
    return os.str();
}

struct ClientOutcome
{
    bool ok = false;
    std::string error;
    BatchStats stats;
    std::vector<ExperimentResponse> responses;
};

} // namespace

int
main(int argc, char **argv)
{
    size_t clients = 8;
    size_t requests = 200;
    uint32_t window = 16;
    uint64_t deadline_ms = 0;
    std::string json_path;
    SuiteConfig suite;
    ClientOptions endpoint;
    EngineCliOptions engine_opts;

    for (int i = 1; i < argc; ++i) {
        if (parseEngineCliOption(engine_opts, argc, argv, i))
            continue;
        const std::string arg = argv[i];
        if (arg == "--clients") {
            clients = size_t(
                parseCount("--clients", nextValue(argc, argv, i)));
        } else if (arg == "--requests") {
            requests = size_t(
                parseCount("--requests", nextValue(argc, argv, i)));
        } else if (arg == "--window") {
            window = uint32_t(parseCount(
                "--window", nextValue(argc, argv, i), UINT32_MAX));
        } else if (arg == "--json") {
            json_path = nextValue(argc, argv, i);
        } else if (arg == "--ref-insts") {
            suite.referenceInstructions =
                parseCount("--ref-insts", nextValue(argc, argv, i));
        } else if (arg == "--seed") {
            suite.seed = parseCount("--seed", nextValue(argc, argv, i));
        } else if (arg == "--deadline-ms") {
            deadline_ms =
                parseCount("--deadline-ms", nextValue(argc, argv, i));
        } else if (arg == "--socket") {
            endpoint.socketPath = nextValue(argc, argv, i);
        } else if (arg == "--port") {
            endpoint.tcpPort =
                int(parseCount("--port", nextValue(argc, argv, i), 65535));
        } else if (arg == "--help" || arg == "-h") {
            usage(argv[0]);
        } else {
            std::fprintf(stderr, "bench_service: unknown option '%s'\n",
                         argv[i]);
            usage(argv[0]);
        }
    }
    if (clients == 0 || requests == 0) {
        std::fprintf(stderr,
                     "bench_service: --clients and --requests must be "
                     "> 0\n");
        return 2;
    }
    endpoint.window = window;

    // An in-process daemon unless an external endpoint was named. The
    // fault schedule (flags or YASIM_FAILPOINTS) applies to it too.
    applyEngineRuntime(engine_opts);
    if (engine_opts.failpoints.empty())
        failpoint::configureFromEnv();
    std::unique_ptr<ExperimentEngine> local_engine;
    std::unique_ptr<ServiceDaemon> local_daemon;
    const bool external =
        !endpoint.socketPath.empty() || endpoint.tcpPort >= 0;
    char socket_dir[] = "/tmp/yasim-svc-XXXXXX";
    if (!external) {
        if (!mkdtemp(socket_dir)) {
            std::fprintf(stderr, "bench_service: mkdtemp: %s\n",
                         std::strerror(errno));
            return 1;
        }
        local_engine = std::make_unique<ExperimentEngine>(
            engineOptionsFrom(engine_opts));
        DaemonOptions daemon_opts;
        daemon_opts.socketPath = std::string(socket_dir) + "/yasimd.sock";
        local_daemon = std::make_unique<ServiceDaemon>(daemon_opts,
                                                       *local_engine);
        std::string error;
        if (!local_daemon->start(error)) {
            std::fprintf(stderr, "bench_service: %s\n", error.c_str());
            return 1;
        }
        endpoint.socketPath = daemon_opts.socketPath;
    }

    const std::vector<ExperimentRequest> grid =
        buildGrid(requests, suite, deadline_ms);

    const auto wall_start = std::chrono::steady_clock::now();
    std::vector<ClientOutcome> outcomes(clients);
    std::vector<std::thread> threads;
    threads.reserve(clients);
    for (size_t c = 0; c < clients; ++c) {
        threads.emplace_back([&, c] {
            std::vector<ExperimentRequest> mine = grid;
            for (size_t r = 0; r < mine.size(); ++r)
                mine[r].id = c * 1'000'000 + r + 1;
            ServiceClient client(endpoint);
            ClientOutcome &out = outcomes[c];
            out.ok = client.runBatch(mine, out.responses, out.stats,
                                     out.error);
        });
    }
    for (std::thread &t : threads)
        t.join();
    const double wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      wall_start)
            .count();

    // The verification engine recomputes the whole grid in-process;
    // every daemon response must match it byte for byte.
    ExperimentEngine verify_engine;
    std::vector<std::string> expected;
    expected.reserve(requests);
    for (const ExperimentRequest &request : grid)
        expected.push_back(
            responseFingerprint(executeRequest(verify_engine, request)));

    uint64_t lost = 0, mismatches = 0, duplicated = 0;
    uint64_t submitted = 0, completed = 0, rejections = 0,
             reconnects = 0;
    uint64_t ok_responses = 0, cancelled = 0, deadline_exceeded = 0,
             shed = 0;
    bool clients_ok = true;
    for (size_t c = 0; c < clients; ++c) {
        const ClientOutcome &out = outcomes[c];
        submitted += out.stats.submitted;
        completed += out.stats.completed;
        rejections += out.stats.rejections;
        reconnects += out.stats.reconnects;
        if (!out.ok) {
            std::fprintf(stderr, "bench_service: client %zu failed: %s\n",
                         c, out.error.c_str());
            clients_ok = false;
            lost += requests;
            continue;
        }
        std::map<uint64_t, size_t> seen;
        for (size_t r = 0; r < out.responses.size(); ++r) {
            const ExperimentResponse &response = out.responses[r];
            const uint64_t want_id = c * 1'000'000 + r + 1;
            if (response.id != want_id) {
                ++lost;
                continue;
            }
            if (!seen.emplace(response.id, r).second) {
                ++duplicated;
                continue;
            }
            switch (response.status) {
              case ResponseStatus::Cancelled:
              case ResponseStatus::DeadlineExceeded:
              case ResponseStatus::Rejected:
                // Terminal non-results (mid-run cancel, expiry, shed):
                // well-formed means *no* result payload rode along.
                if (response.status == ResponseStatus::Cancelled)
                    ++cancelled;
                else if (response.status ==
                         ResponseStatus::DeadlineExceeded)
                    ++deadline_exceeded;
                else
                    ++shed;
                if (!response.key.empty()) {
                    if (++mismatches == 1)
                        std::fprintf(
                            stderr,
                            "bench_service: client %zu request %zu "
                            "carried a result despite status %u\n",
                            c, r, uint32_t(response.status));
                }
                break;
              default:
                // Ok and Error compare byte-for-byte against the
                // in-process run — deadlines never perturb a result
                // they failed to stop.
                if (response.status == ResponseStatus::Ok)
                    ++ok_responses;
                if (responseFingerprint(response) != expected[r]) {
                    if (++mismatches == 1)
                        std::fprintf(
                            stderr,
                            "bench_service: client %zu request %zu "
                            "diverged from the in-process result\n",
                            c, r);
                }
                break;
            }
        }
    }

    // The daemon's own view: shared-cache hit rate and queue pressure.
    JsonReport daemon_stats("service-stats");
    {
        ServiceClient stats_client(endpoint);
        ExperimentRequest stats_request;
        stats_request.id = 999'999'999;
        stats_request.kind = RequestKind::Stats;
        ExperimentResponse stats_response;
        std::string error;
        if (stats_client.call(stats_request, stats_response, error) &&
            stats_response.status == ResponseStatus::Ok) {
            parseReport(stats_response.report, daemon_stats);
        } else {
            std::fprintf(stderr,
                         "bench_service: stats query failed: %s\n",
                         error.empty() ? stats_response.error.c_str()
                                       : error.c_str());
        }
    }

    if (local_daemon) {
        local_daemon->requestDrain();
        local_daemon->wait();
        unlink(endpoint.socketPath.c_str());
        rmdir(socket_dir);
    }

    const uint64_t memo_hits = daemon_stats.count("memo_hits");
    const uint64_t memo_misses = daemon_stats.count("memo_misses");
    const double hit_rate =
        memo_hits + memo_misses
            ? double(memo_hits) / double(memo_hits + memo_misses)
            : 0.0;

    JsonReport report("service-load");
    report.setCount("clients", clients);
    report.setCount("requests_per_client", requests);
    report.setCount("submitted", submitted);
    report.setCount("completed", completed);
    report.setCount("lost", lost);
    report.setCount("duplicated", duplicated);
    report.setCount("mismatches", mismatches);
    report.setCount("rejections", rejections);
    report.setCount("reconnects", reconnects);
    report.setCount("deadline_ms", deadline_ms);
    report.setCount("ok_responses", ok_responses);
    report.setCount("cancelled", cancelled);
    report.setCount("deadline_exceeded", deadline_exceeded);
    report.setCount("shed", shed);
    report.setNumber("wall_seconds", wall_seconds);
    report.setNumber("requests_per_sec",
                     wall_seconds > 0.0
                         ? double(clients * requests) / wall_seconds
                         : 0.0);
    report.setCount("daemon_memo_hits", memo_hits);
    report.setCount("daemon_memo_misses", memo_misses);
    report.setNumber("shared_cache_hit_rate", hit_rate);
    report.setCount("daemon_jobs_executed",
                    daemon_stats.count("svc_jobs_executed"));
    report.setCount("daemon_max_queue_depth",
                    daemon_stats.count("svc_max_queue_depth"));
    report.setCount("daemon_protocol_errors",
                    daemon_stats.count("svc_protocol_errors"));
    report.setCount("daemon_jobs_cancelled",
                    daemon_stats.count("svc_jobs_cancelled"));
    report.setCount("daemon_jobs_deadline_expired",
                    daemon_stats.count("svc_jobs_deadline_expired"));
    report.setCount("daemon_jobs_shed",
                    daemon_stats.count("svc_jobs_shed"));
    report.setCount("daemon_watchdog_wakeups",
                    daemon_stats.count("svc_watchdog_wakeups"));
    report.setBool("bit_identical", mismatches == 0);
    if (!json_path.empty())
        writeReportFile(report, json_path);
    std::cout << report.render();

    const bool passed = clients_ok && lost == 0 && duplicated == 0 &&
                        mismatches == 0 &&
                        completed == uint64_t(clients) * requests;
    if (!passed) {
        std::fprintf(stderr,
                     "bench_service: FAILED (lost=%llu duplicated=%llu "
                     "mismatches=%llu completed=%llu/%llu)\n",
                     static_cast<unsigned long long>(lost),
                     static_cast<unsigned long long>(duplicated),
                     static_cast<unsigned long long>(mismatches),
                     static_cast<unsigned long long>(completed),
                     static_cast<unsigned long long>(
                         uint64_t(clients) * requests));
        return 1;
    }
    std::fprintf(stderr,
                 "bench_service: OK (%llu responses, %.0f%% shared-cache "
                 "hit rate, %llu reconnects survived, %llu expired, "
                 "%llu shed)\n",
                 static_cast<unsigned long long>(completed),
                 hit_rate * 100.0,
                 static_cast<unsigned long long>(reconnects),
                 static_cast<unsigned long long>(deadline_exceeded),
                 static_cast<unsigned long long>(shed));
    return 0;
}
