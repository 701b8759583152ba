/**
 * @file
 * yasimd — the multi-tenant experiment service daemon (docs/service.md).
 *
 * Binds the configured Unix and/or loopback-TCP listener, builds one
 * shared ExperimentEngine from the standard engine flags, and serves
 * the framed protocol of src/service until drained. SIGTERM and SIGINT
 * begin a graceful drain: every accepted job finishes, every response
 * flushes, then the process exits 0 — so "kill -TERM $(pidof yasimd)"
 * never loses an accepted job (the CI service job asserts this).
 */

#include <climits>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>

#include "engine/options.hh"
#include "service/daemon.hh"
#include "support/failpoint.hh"
#include "support/logging.hh"

namespace {

constexpr const char *kTool = "yasimd";

yasim::ServiceDaemon *activeDaemon = nullptr;

/** Async-signal-safe: requestDrain is a flag store + pipe write. */
void
onTerminate(int)
{
    if (activeDaemon)
        activeDaemon->requestDrain();
}

[[noreturn]] void
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s [options]\n"
                 "\n"
                 "service options:\n"
                 "  --socket PATH        listen on a Unix-domain socket\n"
                 "  --port N             listen on loopback TCP port N "
                 "(0 = ephemeral)\n"
                 "  --service-workers N  executor threads (default 2)\n"
                 "  --max-queue N        job-queue admission bound "
                 "(default 256)\n"
                 "  --client-quota N     per-connection outstanding-job "
                 "bound (default 64)\n"
                 "\n"
                 "engine options:\n%s",
                 argv0, yasim::engineCliUsage());
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace yasim;

    DaemonOptions daemon_opts;
    EngineCliOptions engine_opts;

    for (int i = 1; i < argc; ++i) {
        if (parseEngineCliOption(engine_opts, argc, argv, i))
            continue;
        const std::string arg = argv[i];
        if (arg == "--socket") {
            daemon_opts.socketPath = toolFlagValue(kTool, argc, argv, i);
        } else if (arg == "--port") {
            daemon_opts.tcpPort =
                int(toolFlagCount(kTool, argc, argv, i, 65535));
        } else if (arg == "--service-workers") {
            daemon_opts.workers =
                unsigned(toolFlagCount(kTool, argc, argv, i, UINT_MAX));
        } else if (arg == "--max-queue") {
            daemon_opts.maxQueue = size_t(toolFlagCount(kTool, argc, argv, i));
        } else if (arg == "--client-quota") {
            daemon_opts.clientQuota =
                uint32_t(toolFlagCount(kTool, argc, argv, i, UINT32_MAX));
        } else if (arg == "--help" || arg == "-h") {
            usage(argv[0]);
        } else {
            std::fprintf(stderr, "yasimd: unknown option '%s'\n",
                         argv[i]);
            usage(argv[0]);
        }
    }
    if (daemon_opts.socketPath.empty() && daemon_opts.tcpPort < 0) {
        std::fprintf(stderr,
                     "yasimd: need a listener (--socket or --port)\n");
        usage(argv[0]);
    }
    if (daemon_opts.workers == 0) {
        std::fprintf(stderr, "yasimd: --service-workers must be > 0\n");
        return 2;
    }

    // Engine flags configure failpoints when given; otherwise honor the
    // CI's YASIM_FAILPOINTS environment.
    applyEngineRuntime(engine_opts);
    if (engine_opts.failpoints.empty())
        failpoint::configureFromEnv();

    ExperimentEngine engine(engineOptionsFrom(engine_opts));
    ServiceDaemon daemon(daemon_opts, engine);

    activeDaemon = &daemon;
    struct sigaction action{};
    action.sa_handler = onTerminate;
    sigaction(SIGTERM, &action, nullptr);
    sigaction(SIGINT, &action, nullptr);
    signal(SIGPIPE, SIG_IGN);

    std::string error;
    if (!daemon.start(error)) {
        std::fprintf(stderr, "yasimd: %s\n", error.c_str());
        return 1;
    }
    if (!daemon_opts.socketPath.empty())
        std::fprintf(stderr, "yasimd: listening on %s\n",
                     daemon_opts.socketPath.c_str());
    if (daemon.tcpPort() >= 0)
        std::fprintf(stderr, "yasimd: listening on 127.0.0.1:%d\n",
                     daemon.tcpPort());

    daemon.wait();
    activeDaemon = nullptr;

    if (engine_opts.engineStats)
        engine.printStats(std::cerr);
    if (!engine_opts.engineStatsJson.empty())
        writeReportFile(daemon.statsReport(),
                        engine_opts.engineStatsJson);

    const DaemonCounters counters = daemon.counters();
    std::fprintf(stderr,
                 "yasimd: drained cleanly (%llu jobs executed, "
                 "%llu responses dropped)\n",
                 static_cast<unsigned long long>(counters.jobsExecuted),
                 static_cast<unsigned long long>(
                     counters.responsesDropped));
    return 0;
}
