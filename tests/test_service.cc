/**
 * @file
 * The experiment service: protocol codec, frame fuzzing, cache-key
 * stamping, JsonReport, and the daemon under concurrency and faults.
 *
 * The fuzz tests are exhaustive over the interesting corruption space
 * of one frame — every truncation length and a bit flip in every byte
 * — because the daemon's drop-on-protocol-error policy is only safe if
 * no corrupted frame can ever decode. The daemon tests run a real
 * ServiceDaemon on a private Unix socket and prove the multi-tenant
 * contract: bit-identical results, quota rejection, graceful drain
 * that loses no accepted job, and survival of garbage and
 * failpoint-corrupted streams.
 */

#include <gtest/gtest.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <string>
#include <sys/socket.h>
#include <sys/un.h>
#include <thread>
#include <unistd.h>
#include <utility>
#include <vector>

#include "core/pb_characterization.hh"
#include "engine/cache_key.hh"
#include "engine/result_io.hh"
#include "service/client.hh"
#include "service/daemon.hh"
#include "support/artifact_io.hh"
#include "support/failpoint.hh"
#include "techniques/full_reference.hh"

using namespace yasim;

namespace {

ExperimentRequest
sampleRequest()
{
    ExperimentRequest request;
    request.id = 42;
    request.kind = RequestKind::Run;
    request.priority = 3;
    request.benchmark = "gzip";
    request.technique = "reference";
    request.config = "arch:2";
    request.suite.referenceInstructions = 150000;
    request.suite.seed = 99;
    return request;
}

/** status + error + exact result bytes (the bit-identity oracle). */
std::string
fingerprint(const ExperimentResponse &response)
{
    std::ostringstream os;
    os << uint32_t(response.status) << "\n" << response.error << "\n";
    if (!response.key.empty())
        writeResult(os, response.key, response.result);
    return os.str();
}

/** Bounded no-clock wait for a daemon-side condition. */
template <typename Cond>
bool
eventually(Cond cond)
{
    for (int i = 0; i < 5000; ++i) {
        if (cond())
            return true;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return false;
}

/** A raw (non-ServiceClient) connection for protocol-level tests. */
class RawConn
{
  public:
    explicit RawConn(const std::string &path)
    {
        fd = socket(AF_UNIX, SOCK_STREAM, 0);
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
        if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                      sizeof(addr)) != 0) {
            ::close(fd);
            fd = -1;
        }
    }

    ~RawConn()
    {
        if (fd >= 0)
            ::close(fd);
    }

    bool ok() const { return fd >= 0; }

    bool
    sendAll(const std::string &bytes)
    {
        size_t sent = 0;
        while (sent < bytes.size()) {
            ssize_t n = send(fd, bytes.data() + sent,
                             bytes.size() - sent, MSG_NOSIGNAL);
            if (n <= 0 && errno != EINTR)
                return false;
            if (n > 0)
                sent += size_t(n);
        }
        return true;
    }

    /** Read exactly @p count framed responses (false on disconnect). */
    bool
    readResponses(size_t count, std::vector<ExperimentResponse> &out)
    {
        while (out.size() < count) {
            uint64_t frame_bytes = 0;
            FrameSizeStatus status =
                frameSize(buf, kMaxServicePayload, frame_bytes);
            if (status == FrameSizeStatus::Malformed)
                return false;
            if (status == FrameSizeStatus::Known &&
                buf.size() >= frame_bytes) {
                std::string payload, error;
                if (!decodeFrame(std::string_view(buf).substr(
                                     0, size_t(frame_bytes)),
                                 kResponseMagic, kServiceFormatVersion,
                                 payload, error))
                    return false;
                buf.erase(0, size_t(frame_bytes));
                ExperimentResponse response;
                if (!decodeResponse(payload, response, error))
                    return false;
                out.push_back(std::move(response));
                continue;
            }
            char chunk[4096];
            ssize_t n = recv(fd, chunk, sizeof(chunk), 0);
            if (n == 0)
                return false;
            if (n < 0) {
                if (errno == EINTR)
                    continue;
                return false;
            }
            buf.append(chunk, size_t(n));
        }
        return true;
    }

    /** True when the daemon closed this connection. */
    bool
    closedByPeer()
    {
        char chunk[256];
        for (;;) {
            ssize_t n = recv(fd, chunk, sizeof(chunk), 0);
            if (n == 0)
                return true;
            if (n < 0)
                return false;
        }
    }

  private:
    int fd = -1;
    std::string buf;
};

/** A started daemon on a private Unix socket, torn down on scope exit. */
class DaemonFixture
{
  public:
    explicit DaemonFixture(DaemonOptions options = {})
    {
        char dir_template[] = "/tmp/yasim-test-svc-XXXXXX";
        dir = mkdtemp(dir_template);
        options.socketPath = dir + "/d.sock";
        daemon = std::make_unique<ServiceDaemon>(options, engine);
        std::string error;
        started = daemon->start(error);
        socketPath = options.socketPath;
    }

    ~DaemonFixture()
    {
        daemon->stop();
        daemon.reset();
        ::unlink(socketPath.c_str());
        ::rmdir(dir.c_str());
    }

    ExperimentEngine engine;
    std::unique_ptr<ServiceDaemon> daemon;
    std::string dir;
    std::string socketPath;
    bool started = false;
};

ClientOptions
clientFor(const DaemonFixture &fixture)
{
    ClientOptions options;
    options.socketPath = fixture.socketPath;
    return options;
}

} // namespace

// --- protocol codec ---------------------------------------------------

TEST(ServiceProtocol, RequestRoundTrip)
{
    ExperimentRequest request = sampleRequest();
    ExperimentRequest decoded;
    std::string error;
    ASSERT_TRUE(decodeRequest(encodeRequest(request), decoded, error))
        << error;
    EXPECT_EQ(decoded.id, request.id);
    EXPECT_EQ(decoded.kind, request.kind);
    EXPECT_EQ(decoded.priority, request.priority);
    EXPECT_EQ(decoded.benchmark, request.benchmark);
    EXPECT_EQ(decoded.technique, request.technique);
    EXPECT_EQ(decoded.config, request.config);
    EXPECT_EQ(decoded.suite.referenceInstructions,
              request.suite.referenceInstructions);
    EXPECT_EQ(decoded.suite.seed, request.suite.seed);
}

TEST(ServiceProtocol, ResponseRoundTripWithResult)
{
    ExperimentEngine engine;
    ExperimentResponse response =
        executeRequest(engine, sampleRequest());
    ASSERT_EQ(response.status, ResponseStatus::Ok);
    ASSERT_FALSE(response.key.empty());

    ExperimentResponse decoded;
    std::string error;
    ASSERT_TRUE(
        decodeResponse(encodeResponse(response), decoded, error))
        << error;
    EXPECT_EQ(fingerprint(decoded), fingerprint(response));
    EXPECT_EQ(decoded.id, response.id);
}

TEST(ServiceProtocol, ResponseRoundTripErrorAndReport)
{
    ExperimentResponse response;
    response.id = 7;
    response.status = ResponseStatus::Rejected;
    response.error = "queue full";
    response.report = "{\"k\": 1}\n";
    ExperimentResponse decoded;
    std::string error;
    ASSERT_TRUE(
        decodeResponse(encodeResponse(response), decoded, error));
    EXPECT_EQ(decoded.status, ResponseStatus::Rejected);
    EXPECT_EQ(decoded.error, "queue full");
    EXPECT_EQ(decoded.report, response.report);
    EXPECT_TRUE(decoded.key.empty());
}

TEST(ServiceProtocol, DecodeRejectsMalformedPayloads)
{
    ExperimentRequest request;
    std::string error;
    EXPECT_FALSE(decodeRequest("", request, error));
    EXPECT_FALSE(decodeRequest("junk\n", request, error));

    std::string good = encodeRequest(sampleRequest());
    // Every truncation that clips into the end marker must fail (the
    // final byte is the trailing newline after "end", which the
    // whitespace-tolerant reader accepts; transport integrity is the
    // frame checksum's job).
    for (size_t len = 0; len + 1 < good.size(); ++len)
        EXPECT_FALSE(decodeRequest(good.substr(0, len), request, error))
            << "truncation at " << len << " decoded";
    // Trailing bytes after a well-formed payload must fail too.
    EXPECT_FALSE(decodeRequest(good + "x", request, error));
}

// --- frame layer ------------------------------------------------------

TEST(ServiceFrames, RoundTripAndIncrementalSize)
{
    std::string frame = frameRequest(sampleRequest());

    // Incremental reassembly: every strict prefix is NeedMore or Known
    // (never Malformed), and a Known size always names the full frame.
    for (size_t len = 0; len < frame.size(); ++len) {
        uint64_t size = 0;
        FrameSizeStatus status = frameSize(
            frame.substr(0, len), kMaxServicePayload, size);
        ASSERT_NE(status, FrameSizeStatus::Malformed)
            << "prefix of " << len << " bytes misread as malformed";
        if (status == FrameSizeStatus::Known) {
            EXPECT_EQ(size, frame.size());
        }
    }
    uint64_t size = 0;
    ASSERT_EQ(frameSize(frame, kMaxServicePayload, size),
              FrameSizeStatus::Known);
    EXPECT_EQ(size, frame.size());

    std::string payload, error;
    ASSERT_TRUE(decodeFrame(frame, kRequestMagic,
                            kServiceFormatVersion, payload, error));
    ExperimentRequest decoded;
    ASSERT_TRUE(decodeRequest(payload, decoded, error));
    EXPECT_EQ(decoded.id, sampleRequest().id);
}

TEST(ServiceFrames, EveryTruncationFailsToDecode)
{
    std::string frame = frameRequest(sampleRequest());
    for (size_t len = 0; len < frame.size(); ++len) {
        std::string payload, error;
        EXPECT_FALSE(decodeFrame(frame.substr(0, len), kRequestMagic,
                                 kServiceFormatVersion, payload, error))
            << "truncation at " << len << " decoded";
    }
}

TEST(ServiceFrames, EveryBitFlipFailsToDecode)
{
    std::string frame = frameRequest(sampleRequest());
    for (size_t i = 0; i < frame.size(); ++i) {
        std::string flipped = frame;
        flipped[i] = char(uint8_t(flipped[i]) ^ 0x10);
        std::string payload, error;
        EXPECT_FALSE(decodeFrame(flipped, kRequestMagic,
                                 kServiceFormatVersion, payload, error))
            << "bit flip at byte " << i << " decoded";
    }
}

TEST(ServiceFrames, WrongMagicOrVersionRejected)
{
    std::string frame = frameRequest(sampleRequest());
    std::string payload, error;
    EXPECT_FALSE(decodeFrame(frame, kResponseMagic,
                             kServiceFormatVersion, payload, error));
    EXPECT_FALSE(decodeFrame(frame, kRequestMagic,
                             kServiceFormatVersion + 1, payload, error));
}

TEST(ServiceFrames, OversizedPayloadIsMalformed)
{
    std::string frame = frameRequest(sampleRequest());
    uint64_t size = 0;
    EXPECT_EQ(frameSize(frame, 4, size), FrameSizeStatus::Malformed);
    EXPECT_EQ(frameSize("not a frame at all, definitely",
                        kMaxServicePayload, size),
              FrameSizeStatus::Malformed);
}

// --- selectors and execution -----------------------------------------

TEST(ServiceExecute, ResolvesSelectors)
{
    std::string error;
    ExperimentRequest request = sampleRequest();
    EXPECT_NE(resolveTechnique(request, error), nullptr) << error;

    request.technique = "no-such/family";
    EXPECT_EQ(resolveTechnique(request, error), nullptr);

    request.technique = "reference";
    request.benchmark = "definitely-not-a-benchmark";
    EXPECT_EQ(resolveTechnique(request, error), nullptr);

    SimConfig config;
    request = sampleRequest();
    for (int n = 1; n <= 4; ++n) {
        request.config = "arch:" + std::to_string(n);
        EXPECT_TRUE(resolveConfig(request, config, error)) << error;
    }
    request.config = "arch:0";
    EXPECT_FALSE(resolveConfig(request, config, error));
    // Every table row resolves to the directly constructed config, and
    // the first index past the table is an error.
    const std::vector<std::pair<std::string, std::vector<SimConfig>>>
        tables = {
            {"pb", pbDesignConfigs(
                       PbDesign::forFactors(numPbFactors(), false))},
            {"envelope", envelopeConfigs()},
        };
    for (const auto &[scheme, direct] : tables) {
        for (size_t n = 0; n <= direct.size(); ++n) {
            request.config = scheme + ":" + std::to_string(n);
            if (n == direct.size()) {
                EXPECT_FALSE(resolveConfig(request, config, error))
                    << request.config;
                continue;
            }
            ASSERT_TRUE(resolveConfig(request, config, error)) << error;
            EXPECT_EQ(config.name, direct[n].name) << request.config;
            EXPECT_EQ(configKeyText(config), configKeyText(direct[n]))
                << request.config;
        }
    }
    request.config = "pb:100000";
    EXPECT_FALSE(resolveConfig(request, config, error));
    request.config = "nonsense";
    EXPECT_FALSE(resolveConfig(request, config, error));
}

TEST(ServiceExecute, RunIsMemoizedAndDeterministic)
{
    ExperimentEngine engine;
    ExperimentResponse first =
        executeRequest(engine, sampleRequest());
    ASSERT_EQ(first.status, ResponseStatus::Ok);
    EXPECT_NE(first.key.find("v2|bench=gzip|"), std::string::npos);
    EXPECT_GT(first.result.cpi, 0.0);

    ExperimentResponse second =
        executeRequest(engine, sampleRequest());
    EXPECT_EQ(fingerprint(second), fingerprint(first));
    EXPECT_GE(engine.counters().memoHits, 1u);
}

TEST(ServiceExecute, ValidationFailuresAreErrors)
{
    ExperimentEngine engine;
    ExperimentRequest request = sampleRequest();
    request.suite.referenceInstructions = 10;
    EXPECT_EQ(executeRequest(engine, request).status,
              ResponseStatus::Error);

    request = sampleRequest();
    request.benchmark = "nope";
    EXPECT_EQ(executeRequest(engine, request).status,
              ResponseStatus::Error);

    request = sampleRequest();
    request.config = "arch:9";
    EXPECT_EQ(executeRequest(engine, request).status,
              ResponseStatus::Error);
}

// --- cache-key layout -------------------------------------------------

TEST(CacheKey, HistoricalLayoutPreservedByteForByte)
{
    // Every result already in a cache directory is filed under these
    // texts: a sharded context puts its segment before "tech=".
    TechniqueContext ctx;
    ctx.benchmark = "gzip";
    ctx.suite.referenceInstructions = 1000;
    ctx.suite.seed = 2;
    const SimConfig config;
    const std::string head =
        "v2|bench=gzip|ref=1000,seed=2|"
        "cost=1/0.040000000000000001/0.01/0.014999999999999999/0.01";
    const std::string tail =
        "|tech=reference|full|cfg=" + configKeyText(config);
    EXPECT_EQ(resultCacheKey(FullReference(), ctx, config), head + tail);

    ctx.shards.shards = 4;
    ctx.shards.warmupInsts = 65536;
    EXPECT_EQ(resultCacheKey(FullReference(), ctx, config),
              head + "|shards{n=4,warm=65536,stitch=drain}" + tail);
}

// --- JsonReport (satellite: one versioned JSON schema) ----------------

TEST(JsonReportTest, RenderParseRoundTrip)
{
    JsonReport report("unit-test");
    report.setCount("answers", 42);
    report.setNumber("ratio", 0.25);
    report.setBool("flag", true);
    report.setText("label", "a \"quoted\"\nvalue");

    JsonReport parsed("");
    ASSERT_TRUE(parseReport(report.render(), parsed));
    EXPECT_EQ(parsed.kind(), "unit-test");
    EXPECT_EQ(parsed.count("answers"), 42u);
    EXPECT_DOUBLE_EQ(parsed.number("ratio"), 0.25);
    EXPECT_TRUE(parsed.boolean("flag"));
    EXPECT_EQ(parsed.text("label"), "a \"quoted\"\nvalue");
    // Round-trips byte-identically (field order is insertion order).
    EXPECT_EQ(parsed.render(), report.render());
}

TEST(JsonReportTest, OverwritingKeepsPositionAndEnvelopeIsStrict)
{
    JsonReport report("unit-test");
    report.setCount("first", 1);
    report.setCount("second", 2);
    report.setCount("first", 10);
    std::string rendered = report.render();
    EXPECT_LT(rendered.find("\"first\": 10"),
              rendered.find("\"second\": 2"));

    JsonReport parsed("");
    EXPECT_FALSE(parseReport("", parsed));
    EXPECT_FALSE(parseReport("{}", parsed));
    EXPECT_FALSE(parseReport("{\"schema\": \"other\", "
                             "\"schema_version\": 1, "
                             "\"kind\": \"x\"}",
                             parsed));
    EXPECT_FALSE(parseReport("{\"schema\": \"yasim-report\", "
                             "\"schema_version\": 999, "
                             "\"kind\": \"x\"}",
                             parsed));
    EXPECT_TRUE(parseReport("{\"schema\": \"yasim-report\", "
                            "\"schema_version\": 1, "
                            "\"kind\": \"x\"}",
                            parsed));
    EXPECT_FALSE(parseReport(report.render() + "trailing", parsed));
}

// --- the daemon -------------------------------------------------------

TEST(ServiceDaemonTest, PingStatsAndRunBitIdentity)
{
    DaemonFixture fixture;
    ASSERT_TRUE(fixture.started);

    ServiceClient client(clientFor(fixture));
    ExperimentResponse response;
    std::string error;

    ExperimentRequest ping;
    ping.id = 1;
    ping.kind = RequestKind::Ping;
    ASSERT_TRUE(client.call(ping, response, error)) << error;
    EXPECT_EQ(response.status, ResponseStatus::Ok);
    EXPECT_EQ(response.id, 1u);

    ExperimentRequest run = sampleRequest();
    run.id = 2;
    ASSERT_TRUE(client.call(run, response, error)) << error;
    ASSERT_EQ(response.status, ResponseStatus::Ok);

    // Bit-identical to a direct in-process execution.
    ExperimentEngine local;
    ExperimentResponse direct = executeRequest(local, run);
    EXPECT_EQ(fingerprint(response), fingerprint(direct));
    EXPECT_EQ(response.key, direct.key);

    ExperimentRequest stats;
    stats.id = 3;
    stats.kind = RequestKind::Stats;
    ASSERT_TRUE(client.call(stats, response, error)) << error;
    ASSERT_EQ(response.status, ResponseStatus::Ok);
    JsonReport parsed("");
    ASSERT_TRUE(parseReport(response.report, parsed));
    EXPECT_EQ(parsed.kind(), "service-stats");
    EXPECT_GE(parsed.count("svc_connections_accepted"), 1u);
    EXPECT_EQ(parsed.count("svc_jobs_executed"), 1u);
    EXPECT_TRUE(parsed.has("runs_executed"));
}

TEST(ServiceDaemonTest, QuotaRejectsBurstBeyondBound)
{
    DaemonOptions options;
    options.clientQuota = 2;
    DaemonFixture fixture(options);
    ASSERT_TRUE(fixture.started);

    // Four Run frames in one write: the daemon decodes them in one
    // buffered pass, so exactly quota-many are admitted before any
    // response can lower the outstanding count.
    std::string burst;
    for (uint64_t id = 1; id <= 4; ++id) {
        ExperimentRequest request = sampleRequest();
        request.id = id;
        request.priority = 1;
        burst += frameRequest(request);
    }
    RawConn conn(fixture.socketPath);
    ASSERT_TRUE(conn.ok());
    ASSERT_TRUE(conn.sendAll(burst));

    std::vector<ExperimentResponse> responses;
    ASSERT_TRUE(conn.readResponses(4, responses));
    size_t ok = 0, rejected = 0;
    for (const ExperimentResponse &response : responses) {
        if (response.status == ResponseStatus::Ok)
            ++ok;
        if (response.status == ResponseStatus::Rejected) {
            ++rejected;
            EXPECT_NE(response.error.find("quota"), std::string::npos);
        }
    }
    EXPECT_EQ(ok, 2u);
    EXPECT_EQ(rejected, 2u);
    EXPECT_EQ(fixture.daemon->counters().rejectedQuota, 2u);
}

TEST(ServiceDaemonTest, DrainFinishesEveryAcceptedJob)
{
    DaemonFixture fixture;
    ASSERT_TRUE(fixture.started);

    constexpr size_t kJobs = 6;
    std::string burst;
    for (uint64_t id = 1; id <= kJobs; ++id) {
        ExperimentRequest request = sampleRequest();
        request.id = id;
        request.config = "arch:" + std::to_string(id % 4 + 1);
        burst += frameRequest(request);
    }
    RawConn conn(fixture.socketPath);
    ASSERT_TRUE(conn.ok());
    ASSERT_TRUE(conn.sendAll(burst));

    // Once all six are accepted, drain mid-flight. Every accepted job
    // must still produce its response before the daemon exits.
    ASSERT_TRUE(eventually([&] {
        return fixture.daemon->counters().jobsAccepted == kJobs;
    }));
    fixture.daemon->requestDrain();

    std::vector<ExperimentResponse> responses;
    ASSERT_TRUE(conn.readResponses(kJobs, responses));
    for (const ExperimentResponse &response : responses)
        EXPECT_EQ(response.status, ResponseStatus::Ok);

    fixture.daemon->wait();
    DaemonCounters counters = fixture.daemon->counters();
    EXPECT_EQ(counters.jobsAccepted, kJobs);
    EXPECT_EQ(counters.jobsExecuted, kJobs);
    EXPECT_EQ(counters.responsesDropped, 0u);
}

TEST(ServiceDaemonTest, ShutdownRequestRejectsLaterRunsAndDrains)
{
    DaemonFixture fixture;
    ASSERT_TRUE(fixture.started);

    // One write: [shutdown][run]. Decoded in order, so the run must be
    // rejected as draining, and both responses must still flush.
    ExperimentRequest shutdown;
    shutdown.id = 1;
    shutdown.kind = RequestKind::Shutdown;
    ExperimentRequest run = sampleRequest();
    run.id = 2;
    RawConn conn(fixture.socketPath);
    ASSERT_TRUE(conn.ok());
    ASSERT_TRUE(
        conn.sendAll(frameRequest(shutdown) + frameRequest(run)));

    std::vector<ExperimentResponse> responses;
    ASSERT_TRUE(conn.readResponses(2, responses));
    EXPECT_EQ(responses[0].id, 1u);
    EXPECT_EQ(responses[0].status, ResponseStatus::Ok);
    EXPECT_EQ(responses[1].id, 2u);
    EXPECT_EQ(responses[1].status, ResponseStatus::Rejected);
    EXPECT_EQ(responses[1].error, "draining");

    fixture.daemon->wait();
    EXPECT_EQ(fixture.daemon->counters().rejectedDraining, 1u);
}

TEST(ServiceDaemonTest, GarbageBytesDropOnlyThatConnection)
{
    DaemonFixture fixture;
    ASSERT_TRUE(fixture.started);

    RawConn bad(fixture.socketPath);
    ASSERT_TRUE(bad.ok());
    ASSERT_TRUE(bad.sendAll("this is definitely not an artifact frame"));
    EXPECT_TRUE(bad.closedByPeer());
    EXPECT_TRUE(eventually([&] {
        return fixture.daemon->counters().protocolErrors >= 1;
    }));

    // The daemon survives and keeps serving other tenants.
    ServiceClient client(clientFor(fixture));
    ExperimentRequest ping;
    ping.id = 1;
    ping.kind = RequestKind::Ping;
    ExperimentResponse response;
    std::string error;
    ASSERT_TRUE(client.call(ping, response, error)) << error;
    EXPECT_EQ(response.status, ResponseStatus::Ok);
}

TEST(ServiceDaemonTest, ConcurrentClientsShareOneCache)
{
    DaemonFixture fixture;
    ASSERT_TRUE(fixture.started);

    constexpr size_t kClients = 3;
    constexpr size_t kRequests = 4;
    std::vector<ExperimentRequest> grid;
    for (size_t r = 0; r < kRequests; ++r) {
        ExperimentRequest request = sampleRequest();
        request.config = "arch:" + std::to_string(r % 4 + 1);
        grid.push_back(request);
    }

    std::vector<std::vector<ExperimentResponse>> all(kClients);
    // char, not bool: vector<bool> packs bits, so concurrent per-client
    // writes would share a word.
    std::vector<char> ok(kClients, 0);
    std::vector<std::thread> threads;
    for (size_t c = 0; c < kClients; ++c) {
        threads.emplace_back([&, c] {
            std::vector<ExperimentRequest> mine = grid;
            for (size_t r = 0; r < mine.size(); ++r)
                mine[r].id = c * 100 + r + 1;
            ServiceClient client(clientFor(fixture));
            BatchStats stats;
            std::string error;
            ok[c] = client.runBatch(mine, all[c], stats, error);
        });
    }
    for (std::thread &t : threads)
        t.join();

    ExperimentEngine local;
    for (size_t c = 0; c < kClients; ++c) {
        ASSERT_TRUE(ok[c]);
        ASSERT_EQ(all[c].size(), kRequests);
        for (size_t r = 0; r < kRequests; ++r) {
            EXPECT_EQ(all[c][r].id, c * 100 + r + 1);
            EXPECT_EQ(fingerprint(all[c][r]),
                      fingerprint(executeRequest(local, grid[r])));
        }
    }
    // kRequests distinct cells across kClients * kRequests executions:
    // after each cell's first computation, every other execution was a
    // memo hit or joined the computation in flight.
    EngineCounters counters = fixture.engine.counters();
    EXPECT_GE(counters.memoHits + counters.inflightJoins,
              (kClients - 1) * kRequests);
}

TEST(ServiceDaemonTest, SurvivesCorruptFramesViaReconnect)
{
    failpoint::ScopedSchedule faults("svc.read.corrupt=1in5,seed=11");
    DaemonFixture fixture;
    ASSERT_TRUE(fixture.started);

    std::vector<ExperimentRequest> batch;
    for (uint64_t id = 1; id <= 8; ++id) {
        ExperimentRequest request = sampleRequest();
        request.id = id;
        request.config = "arch:" + std::to_string(id % 4 + 1);
        batch.push_back(request);
    }
    ServiceClient client(clientFor(fixture));
    std::vector<ExperimentResponse> responses;
    BatchStats stats;
    std::string error;
    ASSERT_TRUE(client.runBatch(batch, responses, stats, error))
        << error;
    ASSERT_EQ(responses.size(), batch.size());

    ExperimentEngine local;
    for (size_t r = 0; r < batch.size(); ++r) {
        EXPECT_EQ(responses[r].id, batch[r].id);
        EXPECT_EQ(fingerprint(responses[r]),
                  fingerprint(executeRequest(local, batch[r])));
    }
    EXPECT_EQ(stats.completed, batch.size());
}

TEST(ServiceDaemonTest, AcceptTransientsRetryFromBacklog)
{
    failpoint::ScopedSchedule faults("svc.accept.transient=1in2,seed=5");
    DaemonFixture fixture;
    ASSERT_TRUE(fixture.started);

    for (uint64_t id = 1; id <= 6; ++id) {
        ServiceClient client(clientFor(fixture));
        ExperimentRequest ping;
        ping.id = id;
        ping.kind = RequestKind::Ping;
        ExperimentResponse response;
        std::string error;
        ASSERT_TRUE(client.call(ping, response, error)) << error;
        EXPECT_EQ(response.status, ResponseStatus::Ok);
    }
    EXPECT_GE(fixture.daemon->counters().acceptTransients, 1u);
}

// --- deadlines, cancellation, shedding (protocol v2) -------------------

TEST(ServiceProtocol, DeadlineAndCancelFieldsRoundTrip)
{
    ExperimentRequest request = sampleRequest();
    request.deadlineMs = 1234;
    ExperimentRequest decoded;
    std::string error;
    ASSERT_TRUE(decodeRequest(encodeRequest(request), decoded, error))
        << error;
    EXPECT_EQ(decoded.deadlineMs, 1234u);
    EXPECT_EQ(decoded.target, 0u);

    ExperimentRequest cancel;
    cancel.id = 9;
    cancel.kind = RequestKind::Cancel;
    cancel.target = 42;
    ASSERT_TRUE(decodeRequest(encodeRequest(cancel), decoded, error))
        << error;
    EXPECT_EQ(decoded.kind, RequestKind::Cancel);
    EXPECT_EQ(decoded.target, 42u);

    ExperimentResponse response;
    response.id = 9;
    response.status = ResponseStatus::DeadlineExceeded;
    response.error = "deadline-exceeded";
    ExperimentResponse rdecoded;
    ASSERT_TRUE(
        decodeResponse(encodeResponse(response), rdecoded, error))
        << error;
    EXPECT_EQ(rdecoded.status, ResponseStatus::DeadlineExceeded);
    response.status = ResponseStatus::Cancelled;
    ASSERT_TRUE(
        decodeResponse(encodeResponse(response), rdecoded, error));
    EXPECT_EQ(rdecoded.status, ResponseStatus::Cancelled);
}

TEST(ServiceExecute, CancelledRequestReportsStatusNotException)
{
    ExperimentEngine engine;
    CancelSource source;
    source.cancel();
    ExperimentResponse response =
        executeRequest(engine, sampleRequest(), source.token());
    EXPECT_EQ(response.status, ResponseStatus::Cancelled);
    EXPECT_TRUE(response.key.empty());

    CancelSource expired;
    expired.setDeadlineAfterMs(-1);
    response = executeRequest(engine, sampleRequest(), expired.token());
    EXPECT_EQ(response.status, ResponseStatus::DeadlineExceeded);
    EXPECT_TRUE(response.key.empty());
}

TEST(ServiceDaemonTest, CancelQueuedJobById)
{
    failpoint::ScopedSchedule off("");
    DaemonOptions options;
    options.workers = 1;
    DaemonFixture fixture(options);
    ASSERT_TRUE(fixture.started);

    // One worker: A occupies it, B must still be queued when the
    // Cancel lands. All three frames go out in one write, so they are
    // decoded (and A dispatched) strictly in order.
    ExperimentRequest a = sampleRequest();
    a.id = 1;
    ExperimentRequest b = sampleRequest();
    b.id = 2;
    b.config = "arch:3";
    ExperimentRequest cancel;
    cancel.id = 3;
    cancel.kind = RequestKind::Cancel;
    cancel.target = 2;

    RawConn conn(fixture.socketPath);
    ASSERT_TRUE(conn.ok());
    ASSERT_TRUE(conn.sendAll(frameRequest(a) + frameRequest(b) +
                             frameRequest(cancel)));

    std::vector<ExperimentResponse> responses;
    ASSERT_TRUE(conn.readResponses(3, responses));
    ExperimentResponse by_id[4];
    for (const ExperimentResponse &response : responses) {
        ASSERT_GE(response.id, 1u);
        ASSERT_LE(response.id, 3u);
        by_id[response.id] = response;
    }
    EXPECT_EQ(by_id[1].status, ResponseStatus::Ok);
    EXPECT_EQ(by_id[2].status, ResponseStatus::Cancelled);
    EXPECT_TRUE(by_id[2].key.empty());
    EXPECT_EQ(by_id[3].status, ResponseStatus::Ok); // the cancel ack
    EXPECT_EQ(fixture.daemon->counters().jobsCancelled, 1u);
    EXPECT_EQ(fixture.daemon->counters().jobsExecuted, 1u);
}

TEST(ServiceDaemonTest, CancelUnknownTargetIsAnError)
{
    DaemonFixture fixture;
    ASSERT_TRUE(fixture.started);

    ServiceClient client(clientFor(fixture));
    ExperimentRequest cancel;
    cancel.id = 1;
    cancel.kind = RequestKind::Cancel;
    cancel.target = 777;
    ExperimentResponse response;
    std::string error;
    ASSERT_TRUE(client.call(cancel, response, error)) << error;
    EXPECT_EQ(response.status, ResponseStatus::Error);
    EXPECT_NE(response.error.find("no such job"), std::string::npos);
}

TEST(ServiceDaemonTest, QueuedJobExpiresViaWatchdog)
{
    failpoint::ScopedSchedule off("");
    DaemonOptions options;
    options.workers = 1;
    DaemonFixture fixture(options);
    ASSERT_TRUE(fixture.started);

    // A (no deadline) occupies the single worker; B's 1ms deadline
    // expires while it is still queued. Whether the watchdog or the
    // dispatch-time backstop catches it, B must answer
    // DeadlineExceeded without ever executing.
    ExperimentRequest a = sampleRequest();
    a.id = 1;
    ExperimentRequest b = sampleRequest();
    b.id = 2;
    b.config = "arch:4";
    b.deadlineMs = 1;

    RawConn conn(fixture.socketPath);
    ASSERT_TRUE(conn.ok());
    ASSERT_TRUE(conn.sendAll(frameRequest(a) + frameRequest(b)));

    std::vector<ExperimentResponse> responses;
    ASSERT_TRUE(conn.readResponses(2, responses));
    ExperimentResponse by_id[3];
    for (const ExperimentResponse &response : responses) {
        ASSERT_GE(response.id, 1u);
        ASSERT_LE(response.id, 2u);
        by_id[response.id] = response;
    }
    EXPECT_EQ(by_id[1].status, ResponseStatus::Ok);
    EXPECT_EQ(by_id[2].status, ResponseStatus::DeadlineExceeded);
    EXPECT_TRUE(by_id[2].key.empty());
    DaemonCounters counters = fixture.daemon->counters();
    EXPECT_EQ(counters.jobsDeadlineExpired, 1u);
    EXPECT_EQ(counters.jobsExecuted, 1u);
    EXPECT_EQ(counters.responsesDropped, 0u);
}

TEST(ServiceDaemonTest, DispatchExpiryFailpointForcesDeadline)
{
    // Deterministic deadline coverage with no timing at all: the
    // "svc.cancel.dispatch" failpoint expires every deadline-carrying
    // job at dispatch, so it must answer DeadlineExceeded and the
    // engine must never run it.
    failpoint::ScopedSchedule sched("svc.cancel.dispatch=always");
    DaemonFixture fixture;
    ASSERT_TRUE(fixture.started);

    ServiceClient client(clientFor(fixture));
    ExperimentRequest request = sampleRequest();
    request.deadlineMs = 600'000; // far future; the failpoint decides
    ExperimentResponse response;
    std::string error;
    ASSERT_TRUE(client.call(request, response, error)) << error;
    EXPECT_EQ(response.status, ResponseStatus::DeadlineExceeded);
    EXPECT_TRUE(response.key.empty());
    EXPECT_EQ(fixture.daemon->counters().jobsDeadlineExpired, 1u);
    EXPECT_EQ(fixture.engine.counters().runsExecuted, 0u);
}

TEST(ServiceDaemonTest, MidRunDeadlineUnwindsCooperatively)
{
    failpoint::ScopedSchedule off("");
    DaemonFixture fixture;
    ASSERT_TRUE(fixture.started);

    // A genuinely slow run (sequential detailed reference, scaled up)
    // with a deadline it cannot meet: the executor's batch-boundary
    // polls must trip it mid-run and unwind without a result.
    ExperimentRequest request = sampleRequest();
    request.suite.referenceInstructions = 3'000'000;
    request.deadlineMs = 30;
    ServiceClient client(clientFor(fixture));
    ExperimentResponse response;
    std::string error;
    ASSERT_TRUE(client.call(request, response, error)) << error;
    EXPECT_EQ(response.status, ResponseStatus::DeadlineExceeded);
    EXPECT_TRUE(response.key.empty());
    DaemonCounters counters = fixture.daemon->counters();
    EXPECT_EQ(counters.jobsDeadlineExpired, 1u);
    EXPECT_EQ(counters.jobsExecuted, 0u);
    // The run really started and was really cancelled (not expired in
    // the queue): the engine charged a cancelled run.
    EXPECT_GE(fixture.engine.counters().runsCancelled +
                  counters.watchdogWakeups,
              1u);
}

TEST(ServiceDaemonTest, CancelRunningJobUnwindsMidRun)
{
    failpoint::ScopedSchedule off("");
    DaemonOptions options;
    options.workers = 1;
    DaemonFixture fixture(options);
    ASSERT_TRUE(fixture.started);

    ExperimentRequest run = sampleRequest();
    run.id = 1;
    run.suite.referenceInstructions = 3'000'000;
    RawConn conn(fixture.socketPath);
    ASSERT_TRUE(conn.ok());
    ASSERT_TRUE(conn.sendAll(frameRequest(run)));
    ASSERT_TRUE(eventually([&] {
        return fixture.daemon->counters().jobsAccepted == 1;
    }));

    ExperimentRequest cancel;
    cancel.id = 2;
    cancel.kind = RequestKind::Cancel;
    cancel.target = 1;
    ASSERT_TRUE(conn.sendAll(frameRequest(cancel)));

    std::vector<ExperimentResponse> responses;
    ASSERT_TRUE(conn.readResponses(2, responses));
    ExperimentResponse by_id[3];
    for (const ExperimentResponse &response : responses) {
        ASSERT_GE(response.id, 1u);
        ASSERT_LE(response.id, 2u);
        by_id[response.id] = response;
    }
    EXPECT_EQ(by_id[2].status, ResponseStatus::Ok); // the ack
    EXPECT_EQ(by_id[1].status, ResponseStatus::Cancelled);
    EXPECT_TRUE(by_id[1].key.empty());
    DaemonCounters counters = fixture.daemon->counters();
    EXPECT_EQ(counters.jobsCancelled, 1u);
    EXPECT_EQ(counters.jobsExecuted, 0u);
    EXPECT_EQ(counters.responsesDropped, 0u);
}

TEST(ServiceDaemonTest, ShedsLowestPriorityUnderOverload)
{
    failpoint::ScopedSchedule off("");
    DaemonOptions options;
    options.workers = 1;
    DaemonFixture fixture(options);
    ASSERT_TRUE(fixture.started);

    ServiceClient client(clientFor(fixture));
    ExperimentResponse response;
    std::string error;

    // Seed the execution-time EWMA with one completed job.
    ExperimentRequest warm = sampleRequest();
    warm.id = 1;
    ASSERT_TRUE(client.call(warm, response, error)) << error;
    ASSERT_EQ(response.status, ResponseStatus::Ok);

    // Occupy the worker with a long run and stack a queue behind it,
    // then offer a 1ms-deadline job that cannot possibly be served:
    // admission must shed it (lowest priority loses; the incoming job
    // does not outrank the queued ones here) instead of queueing it.
    ExperimentRequest slow = sampleRequest();
    slow.id = 2;
    slow.suite.referenceInstructions = 3'000'000;
    slow.priority = 1;
    ExperimentRequest queued = sampleRequest();
    queued.id = 3;
    queued.config = "arch:3";
    queued.priority = 1;
    ExperimentRequest hopeless = sampleRequest();
    hopeless.id = 4;
    hopeless.config = "arch:4";
    hopeless.priority = 5;
    hopeless.deadlineMs = 1;

    RawConn conn(fixture.socketPath);
    ASSERT_TRUE(conn.ok());
    ASSERT_TRUE(conn.sendAll(frameRequest(slow) + frameRequest(queued) +
                             frameRequest(hopeless)));

    std::vector<ExperimentResponse> responses;
    ASSERT_TRUE(conn.readResponses(3, responses));
    ExperimentResponse by_id[5];
    for (const ExperimentResponse &response : responses) {
        ASSERT_GE(response.id, 2u);
        ASSERT_LE(response.id, 4u);
        by_id[response.id] = response;
    }
    EXPECT_EQ(by_id[2].status, ResponseStatus::Ok);
    EXPECT_EQ(by_id[3].status, ResponseStatus::Ok);
    EXPECT_EQ(by_id[4].status, ResponseStatus::Rejected);
    EXPECT_EQ(by_id[4].error, "shed");
    DaemonCounters counters = fixture.daemon->counters();
    EXPECT_EQ(counters.jobsShed, 1u);
    EXPECT_EQ(counters.responsesDropped, 0u);
}

TEST(ServiceDaemonTest, ShedsQueuedVictimWhenIncomingOutranksIt)
{
    failpoint::ScopedSchedule off("");
    DaemonOptions options;
    options.workers = 1;
    DaemonFixture fixture(options);
    ASSERT_TRUE(fixture.started);

    ServiceClient client(clientFor(fixture));
    ExperimentResponse response;
    std::string error;
    ExperimentRequest warm = sampleRequest();
    warm.id = 1;
    ASSERT_TRUE(client.call(warm, response, error)) << error;
    ASSERT_EQ(response.status, ResponseStatus::Ok);

    // Same overload shape, but now the deadline-carrying arrival
    // outranks the queued job: the queued low-priority job is the
    // victim and the urgent one takes its place.
    ExperimentRequest slow = sampleRequest();
    slow.id = 2;
    slow.suite.referenceInstructions = 3'000'000;
    slow.priority = 1;
    ExperimentRequest doomed = sampleRequest();
    doomed.id = 3;
    doomed.config = "arch:3";
    doomed.priority = 9;
    ExperimentRequest urgent = sampleRequest();
    urgent.id = 4;
    urgent.config = "arch:2";
    urgent.priority = 1;
    urgent.deadlineMs = 1;

    RawConn conn(fixture.socketPath);
    ASSERT_TRUE(conn.ok());
    ASSERT_TRUE(conn.sendAll(frameRequest(slow) + frameRequest(doomed) +
                             frameRequest(urgent)));

    std::vector<ExperimentResponse> responses;
    ASSERT_TRUE(conn.readResponses(3, responses));
    ExperimentResponse by_id[5];
    for (const ExperimentResponse &response : responses) {
        ASSERT_GE(response.id, 2u);
        ASSERT_LE(response.id, 4u);
        by_id[response.id] = response;
    }
    EXPECT_EQ(by_id[2].status, ResponseStatus::Ok);
    EXPECT_EQ(by_id[3].status, ResponseStatus::Rejected);
    EXPECT_EQ(by_id[3].error, "shed");
    // The urgent job was admitted; with a 1ms deadline it then either
    // expired in queue/at dispatch or got cancelled mid-run — but it
    // was answered, and not with a shed.
    EXPECT_TRUE(by_id[4].status == ResponseStatus::DeadlineExceeded ||
                by_id[4].status == ResponseStatus::Ok)
        << "urgent job answered " << uint32_t(by_id[4].status);
    DaemonCounters counters = fixture.daemon->counters();
    EXPECT_EQ(counters.jobsShed, 1u);
    EXPECT_EQ(counters.responsesDropped, 0u);
}

TEST(ServiceDaemonTest, StatsReportCarriesCancellationCounters)
{
    failpoint::ScopedSchedule sched("svc.cancel.dispatch=always");
    DaemonFixture fixture;
    ASSERT_TRUE(fixture.started);

    ServiceClient client(clientFor(fixture));
    ExperimentResponse response;
    std::string error;
    ExperimentRequest request = sampleRequest();
    request.deadlineMs = 600'000;
    ASSERT_TRUE(client.call(request, response, error)) << error;
    ASSERT_EQ(response.status, ResponseStatus::DeadlineExceeded);

    ExperimentRequest stats;
    stats.id = 2;
    stats.kind = RequestKind::Stats;
    ASSERT_TRUE(client.call(stats, response, error)) << error;
    JsonReport parsed("");
    ASSERT_TRUE(parseReport(response.report, parsed));
    EXPECT_EQ(parsed.count("svc_jobs_deadline_expired"), 1u);
    EXPECT_TRUE(parsed.has("svc_jobs_cancelled"));
    EXPECT_TRUE(parsed.has("svc_jobs_shed"));
    EXPECT_TRUE(parsed.has("svc_watchdog_wakeups"));
}
