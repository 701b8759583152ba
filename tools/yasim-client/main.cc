/**
 * @file
 * yasim-client — the CLI tenant of a yasimd (docs/service.md).
 *
 * Builds the one canonical ExperimentRequest from its flags and
 * exchanges it with a daemon over the framed service protocol:
 *
 *     yasim-client --socket /tmp/yasimd.sock ping
 *     yasim-client --socket /tmp/yasimd.sock submit --bench gzip \
 *         --technique "SimPoint/multiple 10M" --config arch:2 \
 *         --deadline-ms 5000
 *     yasim-client --socket /tmp/yasimd.sock cancel --target 7
 *     yasim-client --port 7443 stats
 *     yasim-client --socket /tmp/yasimd.sock shutdown
 *
 * `submit` prints the result in the cache's own text serialization
 * (key line, IEEE-754 doubles, strict end marker); `stats` prints the
 * daemon's merged JsonReport; `cancel` asks the daemon to cancel an
 * earlier submit on the *same connection* — useful from scripts that
 * pipeline requests, a no-op (exit 3) over this one-shot CLI's fresh
 * connection unless the daemon still queues the id. Exit status: 0 on
 * Ok, 3 when the daemon answered Error/Rejected, 4 when it answered
 * Cancelled/DeadlineExceeded, 1 when it was unreachable.
 */

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>

#include "engine/options.hh"
#include "service/client.hh"
#include "support/logging.hh"

namespace {

constexpr const char *kTool = "yasim-client";

[[noreturn]] void
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s [options] <submit|cancel|ping|stats|shutdown>\n"
        "\n"
        "connection options:\n"
        "  --socket PATH      daemon's Unix-domain socket\n"
        "  --port N           daemon's loopback TCP port\n"
        "  --reconnects N     reconnect attempts before giving up "
        "(default 32)\n"
        "\n"
        "submit options:\n"
        "  --bench NAME       suite benchmark to run (required)\n"
        "  --technique SEL    \"reference\" or \"<family>/<permutation>\" "
        "(default reference)\n"
        "  --config SEL       arch:N | envelope:N | pb:N "
        "(default arch:1)\n"
        "  --priority N       scheduling priority, lower runs sooner "
        "(default 1)\n"
        "  --id N             correlation id (default 1)\n"
        "  --ref-insts N      suite reference length (default 2000000)\n"
        "  --seed N           suite data seed (default 12345)\n"
        "  --deadline-ms N    answer DeadlineExceeded if not done in N "
        "ms (default: none)\n"
        "\n"
        "cancel options:\n"
        "  --target N         correlation id of the submit to cancel "
        "(required)\n",
        argv0);
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace yasim;

    ClientOptions client_opts;
    ExperimentRequest request;
    request.id = 1;
    std::string command;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--socket") {
            client_opts.socketPath = toolFlagValue(kTool, argc, argv, i);
        } else if (arg == "--port") {
            client_opts.tcpPort =
                int(toolFlagCount(kTool, argc, argv, i, 65535));
        } else if (arg == "--reconnects") {
            client_opts.maxReconnects =
                uint32_t(toolFlagCount(kTool, argc, argv, i, UINT32_MAX));
        } else if (arg == "--bench") {
            request.benchmark = toolFlagValue(kTool, argc, argv, i);
        } else if (arg == "--technique") {
            request.technique = toolFlagValue(kTool, argc, argv, i);
        } else if (arg == "--config") {
            request.config = toolFlagValue(kTool, argc, argv, i);
        } else if (arg == "--priority") {
            request.priority =
                uint32_t(toolFlagCount(kTool, argc, argv, i, UINT32_MAX));
        } else if (arg == "--id") {
            request.id = toolFlagCount(kTool, argc, argv, i);
        } else if (arg == "--ref-insts") {
            request.suite.referenceInstructions =
                toolFlagCount(kTool, argc, argv, i);
        } else if (arg == "--seed") {
            request.suite.seed = toolFlagCount(kTool, argc, argv, i);
        } else if (arg == "--deadline-ms") {
            request.deadlineMs = toolFlagCount(kTool, argc, argv, i);
        } else if (arg == "--target") {
            request.target = toolFlagCount(kTool, argc, argv, i);
        } else if (arg == "--help" || arg == "-h") {
            usage(argv[0]);
        } else if (!arg.empty() && arg[0] == '-') {
            std::fprintf(stderr, "yasim-client: unknown option '%s'\n",
                         argv[i]);
            usage(argv[0]);
        } else if (command.empty()) {
            command = arg;
        } else {
            std::fprintf(stderr, "yasim-client: extra argument '%s'\n",
                         argv[i]);
            usage(argv[0]);
        }
    }

    if (command == "submit") {
        request.kind = RequestKind::Run;
        if (request.benchmark.empty()) {
            std::fprintf(stderr, "yasim-client: submit needs --bench\n");
            usage(argv[0]);
        }
    } else if (command == "cancel") {
        request.kind = RequestKind::Cancel;
        if (request.target == 0) {
            std::fprintf(stderr, "yasim-client: cancel needs --target\n");
            usage(argv[0]);
        }
    } else if (command == "ping") {
        request.kind = RequestKind::Ping;
    } else if (command == "stats") {
        request.kind = RequestKind::Stats;
    } else if (command == "shutdown") {
        request.kind = RequestKind::Shutdown;
    } else {
        std::fprintf(stderr, "yasim-client: unknown command '%s'\n",
                     command.c_str());
        usage(argv[0]);
    }
    if (client_opts.socketPath.empty() && client_opts.tcpPort < 0) {
        std::fprintf(stderr,
                     "yasim-client: need a daemon (--socket or "
                     "--port)\n");
        usage(argv[0]);
    }

    ServiceClient client(client_opts);
    ExperimentResponse response;
    std::string error;
    if (!client.call(request, response, error)) {
        std::fprintf(stderr, "yasim-client: %s\n", error.c_str());
        return 1;
    }

    if (response.status != ResponseStatus::Ok) {
        const char *what = "error";
        int status = 3;
        switch (response.status) {
          case ResponseStatus::Rejected:
            what = "rejected";
            break;
          case ResponseStatus::Cancelled:
            what = "cancelled";
            status = 4;
            break;
          case ResponseStatus::DeadlineExceeded:
            what = "deadline exceeded";
            status = 4;
            break;
          default:
            break;
        }
        std::fprintf(stderr, "yasim-client: daemon answered %s: %s\n",
                     what, response.error.c_str());
        return status;
    }

    switch (request.kind) {
      case RequestKind::Run:
        writeResult(std::cout, response.key, response.result);
        break;
      case RequestKind::Stats:
        std::cout << response.report << "\n";
        break;
      case RequestKind::Ping:
        std::cout << "pong\n";
        break;
      case RequestKind::Shutdown:
        std::cout << "draining\n";
        break;
      case RequestKind::Cancel:
        std::cout << "cancelled\n";
        break;
    }
    return 0;
}
