/**
 * @file
 * Benchmark driver: one process per phase, so the orchestrator
 * (run.py) can time set-up from the process's start and read each
 * phase's peak RSS from outside.
 *
 *   perfbench_driver setup  --workload W --seed N --out F.ftrace
 *                           [--spans F.json]
 *   perfbench_driver replay --workload W --ftrace F --seconds S
 *                           --payload-out F [--spans F.json]
 *   perfbench_driver check  --workload W --seed N --ftrace F --payload F
 *   perfbench_driver selftest --dir D
 *
 * Each command prints JSON objects, one per line. Peak RSS is read from
 * a forked child's wait4 rusage: setup runs in one, and replay runs one
 * untimed replay in one before its timed loop. With
 * --spans, setup and replay run traced: they time the layer boundaries
 * and write their phase spans as Chrome trace-event JSON.
 */
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "checks.h"
#include "core/policy_factory.h"
#include "layers.h"
#include "platform/cluster.h"
#include "platform/experiment_checkpoint.h"
#include "platform/server.h"
#include "sim/simulator.h"
#include "sim/sweep_checkpoint.h"
#include "trace/ftrace_format.h"
#include "trace/generated_source.h"
#include "util/stats.h"
#include "workloads.h"

using namespace faascache;
using namespace perfbench;

namespace {

// --- small helpers --------------------------------------------------------

using Args = std::map<std::string, std::string>;

Args
parseArgs(int argc, char** argv, int first)
{
    Args args;
    for (int i = first; i < argc; ++i) {
        const std::string key = argv[i];
        if (key.rfind("--", 0) != 0 || i + 1 >= argc)
            throw std::invalid_argument("bad argument: " + key);
        args[key.substr(2)] = argv[++i];
    }
    return args;
}

const std::string&
need(const Args& args, const std::string& key)
{
    const auto it = args.find(key);
    if (it == args.end())
        throw std::invalid_argument("missing --" + key);
    return it->second;
}

std::string
num(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

/** Insertion-ordered flat JSON object. */
class JsonObject
{
  public:
    JsonObject& set(const std::string& key, const std::string& raw_json)
    {
        fields_.emplace_back(key, raw_json);
        return *this;
    }
    JsonObject& num(const std::string& key, double v)
    {
        return set(key, ::num(v));
    }
    JsonObject& str(const std::string& key, const std::string& v)
    {
        std::string quoted = "\"";
        for (const char ch : v) {
            if (ch == '"' || ch == '\\')
                quoted += '\\';
            quoted += ch;
        }
        return set(key, quoted + "\"");
    }
    std::string dump() const
    {
        std::string out = "{";
        for (std::size_t i = 0; i < fields_.size(); ++i) {
            out += (i ? ", \"" : "\"") + fields_[i].first + "\": " +
                fields_[i].second;
        }
        return out + "}";
    }

  private:
    std::vector<std::pair<std::string, std::string>> fields_;
};

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::string
readFile(const std::string& path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw std::runtime_error("cannot read " + path);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

void
writeFile(const std::string& path, const std::string& bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    if (!out)
        throw std::runtime_error("cannot write " + path);
}

double
ratio(double a, double b)
{
    return b != 0.0 ? a / b : 0.0;
}

// --- setup ----------------------------------------------------------------

int
cmdSetup(const Args& args)
{
    const Workload& w = findWorkload(need(args, "workload"));
    const AzureModelConfig model =
        w.modelFor(std::stoull(need(args, "seed")));
    const std::string out = need(args, "out");
    const auto spans_path = args.find("spans");
    const bool traced = spans_path != args.end();

    JsonObject json;
    SpanLog spans;
    const int setup = spans.begin("setup");
    if (traced) {
        // Generator alone: drain it with no writer attached.
        const int gen = spans.begin("setup.generate", setup);
        const auto source = makeAzureSource(model);
        Invocation inv;
        std::size_t drained = 0;
        while (source->next(inv))
            ++drained;
        spans.end(gen);
        json.num("generate_s", spans.seconds(gen));
    }
    const int write = spans.begin("setup.write", setup);
    const auto source = makeAzureSource(model);
    const std::size_t invocations = writeFtraceFile(out, *source);
    spans.end(write);
    spans.end(setup);
    json.num("invocations", static_cast<double>(invocations))
        .num("functions", static_cast<double>(source->functions().size()))
        .num("ftrace_bytes",
             static_cast<double>(std::filesystem::file_size(out)))
        .num("write_s", spans.seconds(write));
    if (traced)
        spans.writeChromeTrace(spans_path->second, getpid());
    std::cout << json.dump() << std::endl;
    return 0;
}

// --- replay ---------------------------------------------------------------

/** One replay from opening the `.ftrace` to the encoded payload. */
struct Replay
{
    std::string payload;
    std::int64_t invocations = 0;
    /** Invocations the program resolved into an outcome. */
    std::int64_t resolved = 0;
    /** Open -> payload encoded. */
    double replay_s = 0.0;

    // Layer boundaries (traced replays only).
    double run_s = 0.0;
    double encode_s = 0.0;
    double cpu_s = 0.0;
    PolicyCounters policy;
    SourceCounters source;
    std::int64_t cursors_opened = 0;
    /** Simulated statistics reported by the traced run. */
    std::vector<std::pair<std::string, double>> stats;
};

std::unique_ptr<KeepAlivePolicy>
gdPolicy(bool traced, PolicyCounters* counters)
{
    auto policy = makePolicy(PolicyKind::GreedyDual);
    if (traced)
        return std::make_unique<TracedPolicy>(std::move(policy), counters);
    return policy;
}

/**
 * Replay the workload once. `traced` wraps the policy and the cursors;
 * `spans` (may be null) receives replay.run / replay.encode spans.
 * `shards` overrides the cluster's shard count when non-zero.
 */
Replay
replayOnce(const Workload& w, const std::string& path, bool traced,
           SpanLog* spans, int parent, std::size_t shards = 0)
{
    Replay out;
    const double start = nowSeconds();
    std::shared_ptr<FtraceRegion> region = FtraceRegion::open(path);
    out.invocations = static_cast<std::int64_t>(region->numInvocations());
    int span = -1;
    const auto beginSpan = [&](const char* name) {
        if (spans != nullptr)
            span = spans->begin(name, parent);
    };
    const auto endSpan = [&] {
        if (spans != nullptr)
            spans->end(span);
    };

    std::unique_ptr<InvocationSource> cursor = region->makeCursor();
    TracedSource* traced_cursor = nullptr;
    if (traced && w.layer != Layer::Cluster) {
        auto wrapped = std::make_unique<TracedSource>(std::move(cursor));
        traced_cursor = wrapped.get();
        cursor = std::move(wrapped);
    }

    beginSpan("replay.run");
    const double run_start = nowSeconds();
    const double cpu_start = processCpuSeconds();
    switch (w.layer) {
      case Layer::Sim: {
        const SimResult r =
            simulateSource(*cursor, gdPolicy(traced, &out.policy), w.sim);
        out.run_s = nowSeconds() - run_start;
        endSpan();
        beginSpan("replay.encode");
        const double enc = nowSeconds();
        out.payload = encodeCheckpointPayload(w.name, r);
        out.encode_s = nowSeconds() - enc;
        out.resolved = r.total();
        out.stats = {{"sim.warm_starts", double(r.warm_starts)},
                     {"sim.cold_starts", double(r.cold_starts)},
                     {"sim.dropped", double(r.dropped)},
                     {"sim.evictions", double(r.evictions)},
                     {"sim.eviction_rounds", double(r.eviction_rounds)}};
        break;
      }
      case Layer::Server: {
        Server server(gdPolicy(traced, &out.policy), w.server);
        const PlatformResult r = server.run(*cursor);
        out.run_s = nowSeconds() - run_start;
        endSpan();
        beginSpan("replay.encode");
        const double enc = nowSeconds();
        out.payload = encodePlatformCheckpointPayload(w.name, r);
        out.encode_s = nowSeconds() - enc;
        out.resolved = r.total();
        const Summary lat = r.latencySummary();
        out.stats = {
            {"platform.server.latency_samples", double(r.latencies_sec.size())},
            {"platform.server.warm_starts", double(r.warm_starts)},
            {"platform.server.cold_starts", double(r.cold_starts)},
            {"platform.server.dropped", double(r.dropped())},
            {"platform.server.evictions", double(r.evictions)},
            {"platform.server.latency_p50_s", lat.p50},
            {"platform.server.latency_p99_s", lat.p99}};
        break;
      }
      case Layer::Cluster: {
        cursor.reset();
        SourceFactory plain = [region] {
            return std::unique_ptr<InvocationSource>(region->makeCursor());
        };
        CountingFactory counting(plain);
        ShardedWorkload workload;
        workload.make_full = traced ? counting.factory() : plain;
        ClusterConfig config = w.cluster;
        if (shards != 0)
            config.shards = shards;
        const ClusterResult r =
            runCluster(workload, PolicyKind::GreedyDual, config);
        out.run_s = nowSeconds() - run_start;
        out.cpu_s = processCpuSeconds() - cpu_start;
        endSpan();
        beginSpan("replay.encode");
        const double enc = nowSeconds();
        out.payload = encodeClusterCheckpointPayload(w.name, r);
        out.encode_s = nowSeconds() - enc;
        out.resolved = r.shed_requests + r.failed_requests;
        for (const PlatformResult& s : r.servers)
            out.resolved += s.served() + s.dropped();
        out.source = counting.total();
        out.cursors_opened = counting.cursorsOpened();
        out.stats = {
            {"platform.cluster.warm_starts", double(r.warmStarts())},
            {"platform.cluster.cold_starts", double(r.coldStarts())},
            {"platform.cluster.retries", double(r.retries)},
            {"platform.cluster.failovers", double(r.failovers)},
            {"platform.cluster.shed_requests", double(r.shed_requests)},
            {"platform.cluster.failed_requests", double(r.failed_requests)},
            {"platform.cluster.breaker_opens", double(r.breaker_opens)},
            {"platform.cluster.spawn_failures",
             double(r.robustness().spawn_failures)}};
        break;
      }
    }
    endSpan();
    if (traced_cursor != nullptr)
        out.source = traced_cursor->counters();
    out.replay_s = nowSeconds() - start;
    return out;
}

/**
 * Fixed host-speed probe, run between timed replays: random updates of
 * a 16 MB table, a bounded heap and hexfloat text, the kinds of work a
 * replay does. The host's speed drifts by tens of percent over minutes
 * on a shared machine; a replay's time over the probe's time right
 * around it drifts much less. The median of three short passes keeps
 * the probe's own noise down; the table is allocated once, so the
 * probe does no page faults.
 */
class HostProbe
{
  public:
    HostProbe() : table_(std::size_t{1} << 21, 1) {}

    double seconds()
    {
        std::vector<double> passes;
        for (int i = 0; i < 3; ++i) {
            const double start = nowSeconds();
            pass();
            passes.push_back(nowSeconds() - start);
        }
        return median(passes);
    }

  private:
    void pass()
    {
        std::vector<std::uint64_t> heap;
        std::string text;
        for (int i = 0; i < 100000; ++i) {
            x_ ^= x_ << 13;
            x_ ^= x_ >> 7;
            x_ ^= x_ << 17;
            table_[x_ & (table_.size() - 1)] += x_;
            heap.push_back(x_);
            std::push_heap(heap.begin(), heap.end());
            if (heap.size() > 4096) {
                std::pop_heap(heap.begin(), heap.end());
                heap.pop_back();
            }
            if ((i & 1) == 0) {
                char buf[40];
                std::snprintf(buf, sizeof buf, "%a ",
                              static_cast<double>(x_ >> 11));
                text += buf;
            }
        }
        sink_ = sink_ + heap.front() + text.size();
    }

    std::vector<std::uint64_t> table_;
    std::uint64_t x_ = 88172645463325252ULL;
    volatile std::uint64_t sink_ = 0;
};

/** Drain one cursor with no consumer; invocations per second. */
double
decodeRate(const std::string& path)
{
    const double start = nowSeconds();
    const auto region = FtraceRegion::open(path);
    const auto cursor = region->makeCursor();
    Invocation inv;
    std::size_t n = 0;
    while (cursor->next(inv))
        ++n;
    return static_cast<double>(n) / (nowSeconds() - start);
}

std::string
secondsList(const std::vector<double>& v)
{
    std::string out = "[";
    for (std::size_t i = 0; i < v.size(); ++i)
        out += (i ? ", " : "") + num(v[i]);
    return out + "]";
}

/** Per-layer metrics of the traced replays (medians of their times,
 *  counts from the last one). Metrics of layers the workload does not
 *  run read 0. */
std::string
layerMetrics(const Workload& w, const std::vector<Replay>& traced,
             double decode_inv_per_s, double overhead)
{
    std::vector<std::pair<std::string, double>> m;
    const auto med = [&](auto field) {
        std::vector<double> v;
        for (const Replay& r : traced)
            v.push_back(field(r));
        return median(v);
    };
    const Replay& last = traced.back();
    const double inv = static_cast<double>(last.invocations);
    const double run_s = med([](const Replay& r) { return r.run_s; });
    const double encode_s = med([](const Replay& r) { return r.encode_s; });
    const double source_s =
        med([](const Replay& r) { return r.source.seconds; });
    const double core_s = med([](const Replay& r) {
        return r.policy.select_victims_s + r.policy.notify_s +
            r.policy.expired_s;
    });
    const PolicyCounters& p = last.policy;
    const bool sim = w.layer == Layer::Sim;
    const bool server = w.layer == Layer::Server;
    const bool cluster = w.layer == Layer::Cluster;
    m = {
        {"trace.decode_inv_per_s", decode_inv_per_s},
        {"trace.source_s", source_s},
        {"trace.source_calls_per_inv",
         ratio(static_cast<double>(last.source.calls), inv)},
        {"core.select_victims_calls", double(p.select_victims_calls)},
        {"core.select_victims_s",
         med([](const Replay& r) { return r.policy.select_victims_s; })},
        {"core.victims_per_call",
         ratio(double(p.victims_returned), double(p.select_victims_calls))},
        {"core.victims_evicted_ratio",
         ratio(double(p.victims_evicted), double(p.victims_returned))},
        {"core.notify_s",
         med([](const Replay& r) { return r.policy.notify_s; })},
        {"core.expired_s",
         med([](const Replay& r) { return r.policy.expired_s; })},
        {"sim.run_s", sim ? run_s : 0.0},
        {"sim.self_s", sim ? run_s - core_s - source_s : 0.0},
        {"sim.result_encode_s", sim ? encode_s : 0.0},
        {"platform.server.run_s", server ? run_s : 0.0},
        {"platform.server.self_s", server ? run_s - core_s - source_s : 0.0},
        {"platform.server.result_encode_s", server ? encode_s : 0.0},
        {"platform.cluster.run_s", cluster ? run_s : 0.0},
        {"platform.cluster.cpu_s",
         cluster ? med([](const Replay& r) { return r.cpu_s; }) : 0.0},
        {"platform.cluster.parallelism",
         cluster ? med([](const Replay& r) { return ratio(r.cpu_s, r.run_s); })
                 : 0.0},
        {"platform.cluster.cursors_opened", double(last.cursors_opened)},
        {"platform.cluster.decoded_per_arrival",
         cluster ? ratio(double(last.source.yielded), inv) : 0.0},
        {"platform.cluster.result_encode_s", cluster ? encode_s : 0.0},
        {"bench.trace_overhead", overhead},
    };
    // Simulated statistics: every name reads 0 unless the layer ran.
    static const char* const kStats[] = {
        "sim.warm_starts", "sim.cold_starts", "sim.dropped", "sim.evictions",
        "sim.eviction_rounds", "platform.server.latency_samples",
        "platform.server.warm_starts", "platform.server.cold_starts",
        "platform.server.dropped", "platform.server.evictions",
        "platform.server.latency_p50_s", "platform.server.latency_p99_s",
        "platform.cluster.warm_starts", "platform.cluster.cold_starts",
        "platform.cluster.retries", "platform.cluster.failovers",
        "platform.cluster.shed_requests", "platform.cluster.failed_requests",
        "platform.cluster.breaker_opens", "platform.cluster.spawn_failures"};
    for (const char* name : kStats) {
        double v = 0.0;
        for (const auto& [k, value] : last.stats) {
            if (k == name)
                v = value;
        }
        m.emplace_back(name, v);
    }
    JsonObject json;
    for (const auto& [k, v] : m)
        json.num(k, v);
    return json.dump();
}

/**
 * Run `fn` in a forked child and return the child's peak RSS in MB,
 * read from its wait4 rusage. A process's own rusage would include the
 * RSS of whatever forked it before exec (e.g. the Python orchestrator).
 * @throws std::runtime_error when the child fails.
 */
template <typename Fn>
double
peakRssOfChild(Fn fn)
{
    std::cout.flush();
    const pid_t pid = fork();
    if (pid < 0)
        throw std::runtime_error("fork failed");
    if (pid == 0) {
        int code = 1;
        try {
            code = fn();
        } catch (const std::exception& e) {
            std::cerr << "perfbench_driver: " << e.what() << "\n";
        }
        std::cout.flush();
        _exit(code);
    }
    int status = 0;
    rusage usage{};
    if (wait4(pid, &status, 0, &usage) != pid)
        throw std::runtime_error("wait4 failed");
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0)
        throw std::runtime_error("measured child failed");
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

int
cmdReplay(const Args& args)
{
    const Workload& w = findWorkload(need(args, "workload"));
    const std::string path = need(args, "ftrace");
    const std::string payload_out = need(args, "payload-out");
    const double seconds = std::stod(need(args, "seconds"));
    const auto spans_path = args.find("spans");
    const bool traced = spans_path != args.end();
    constexpr int kMinReps = 3;

    // Peak RSS of one replay in a process of its own; its payload is
    // the reference every timed replay must reproduce byte for byte.
    const double peak_rss_mb = peakRssOfChild([&] {
        writeFile(payload_out, replayOnce(w, path, false, nullptr, -1).payload);
        return 0;
    });
    const std::string reference = readFile(payload_out);

    // Warm-up: page in the file and the allocator.
    const Replay warm = replayOnce(w, path, false, nullptr, -1);
    bool deterministic = warm.payload == reference;
    std::vector<double> plain_s;
    HostProbe probe;
    std::vector<double> probe_s;
    std::vector<Replay> traced_runs;
    SpanLog spans;
    double decode = 0.0;
    if (traced) {
        std::vector<double> rates;
        for (int i = 0; i < kMinReps; ++i) {
            const int s = spans.begin("replay.decode");
            rates.push_back(decodeRate(path));
            spans.end(s);
        }
        decode = median(rates);
    }
    probe_s.push_back(probe.seconds());
    const double start = nowSeconds();
    while (static_cast<int>(plain_s.size()) < kMinReps ||
           nowSeconds() - start < seconds) {
        const Replay r = replayOnce(w, path, false, nullptr, -1);
        probe_s.push_back(probe.seconds());
        deterministic = deterministic && r.payload == reference &&
            r.resolved == warm.resolved;
        plain_s.push_back(r.replay_s);
        if (traced) {
            // Alternate plain and traced replays so both see the same
            // host speed; their ratio is the tracing overhead.
            const int parent = spans.begin("replay");
            Replay t = replayOnce(w, path, true, &spans, parent);
            spans.end(parent);
            deterministic = deterministic && t.payload == reference;
            t.payload.clear();
            traced_runs.push_back(std::move(t));
        }
    }

    JsonObject json;
    json.num("invocations", static_cast<double>(warm.invocations))
        .num("resolved", static_cast<double>(warm.resolved))
        .num("payload_bytes", static_cast<double>(reference.size()))
        .num("peak_rss_mb", peak_rss_mb)
        .set("deterministic", deterministic ? "true" : "false")
        .set("replay_s", secondsList(plain_s))
        .set("probe_s", secondsList(probe_s));
    if (traced) {
        std::vector<double> traced_s;
        for (const Replay& r : traced_runs)
            traced_s.push_back(r.replay_s);
        json.set("traced_replay_s", secondsList(traced_s))
            .set("layers",
                 layerMetrics(w, traced_runs, decode,
                              ratio(median(traced_s), median(plain_s))));
        spans.writeChromeTrace(spans_path->second, getpid());
    }
    std::cout << json.dump() << std::endl;
    return 0;
}

// --- check ----------------------------------------------------------------

/** Simulator replay of the stream with a pool no working set fills. */
SimResult
noEvictionReplay(const std::string& path)
{
    SimulatorConfig config;
    config.memory_mb = 1e12;
    config.memory_sample_interval_us = 0;
    FtraceSource source(path);
    return simulateSource(source, makePolicy(PolicyKind::GreedyDual), config);
}

std::vector<std::vector<FunctionOutcome>>
perServer(const ClusterResult& r)
{
    std::vector<std::vector<FunctionOutcome>> out;
    for (const PlatformResult& s : r.servers)
        out.push_back(s.per_function);
    return out;
}

std::vector<double>
usedMb(const std::vector<MemorySample>& samples)
{
    std::vector<double> out;
    for (const MemorySample& s : samples)
        out.push_back(s.used_mb);
    return out;
}

CheckResult
skipped(const std::string& name, const std::string& why)
{
    return CheckResult{name, true, "skipped: " + why};
}

/** Server replay with a sampling policy wrapper: its pool samples for
 *  (b), its payload for the identity check. */
std::pair<PolicyCounters, std::string>
sampledServerReplay(const Workload& w, const std::string& path)
{
    PolicyCounters counters;
    FtraceSource source(path);
    Server server(gdPolicy(true, &counters), w.server);
    const PlatformResult r = server.run(source);
    return {counters, encodePlatformCheckpointPayload(w.name, r)};
}

std::vector<CheckResult>
runChecks(const Workload& w, const AzureModelConfig& model,
          const std::string& path, const std::string& payload)
{
    const RawTrace raw = readRawTrace(path);
    const std::vector<std::int64_t> counts = raw.counts();
    std::vector<CheckResult> out;
    std::string key;
    switch (w.layer) {
      case Layer::Sim: {
        SimResult r;
        if (!decodeCheckpointPayload(payload, &key, &r))
            throw std::runtime_error("payload does not decode");
        out.push_back(checkOutcomes(counts, {r.per_function}, 0));
        out.push_back(checkPoolCapacity(usedMb(r.memory_usage), r.memory_mb));
        out.push_back(checkColdBeforeServe({r.per_function}));
        out.push_back(skipped("d.latency_at_least_warm",
                              "the simulator records no latencies"));
        break;
      }
      case Layer::Server: {
        PlatformResult r;
        if (!decodePlatformCheckpointPayload(payload, &key, &r))
            throw std::runtime_error("payload does not decode");
        out.push_back(checkOutcomes(counts, {r.per_function}, 0));
        const auto [counters, sampled_payload] = sampledServerReplay(w, path);
        CheckResult b = checkPoolCapacity({counters.max_pool_used_mb},
                                          counters.pool_capacity_mb);
        if (b.ok && counters.pool_samples == 0)
            b = CheckResult{b.name, false, "no pool samples"};
        out.push_back(b);
        out.push_back(checkSamePayload("b.sampled_replay_identical", payload,
                                       sampled_payload));
        out.push_back(checkColdBeforeServe({r.per_function}));
        const Summary lat = r.latencySummary();
        out.push_back(checkLatency(r.per_function, r.latency_sum_sec,
                                   raw.warm_us, lat.p50, lat.p99));
        break;
      }
      case Layer::Cluster: {
        ClusterResult r;
        if (!decodeClusterCheckpointPayload(payload, &key, &r))
            throw std::runtime_error("payload does not decode");
        out.push_back(checkOutcomes(counts, perServer(r),
                                    r.shed_requests + r.failed_requests));
        out.push_back(skipped("b.pool_within_capacity",
                              "the cluster result carries no pool samples"));
        out.push_back(checkColdBeforeServe(perServer(r)));
        CheckResult d{"d.latency_at_least_warm", true, {}};
        for (const PlatformResult& s : r.servers) {
            const Summary lat = s.latencySummary();
            d = checkLatency(s.per_function, s.latency_sum_sec, raw.warm_us,
                             lat.p50, lat.p99);
            if (!d.ok)
                break;
        }
        out.push_back(d);
        const Replay one = replayOnce(w, path, false, nullptr, -1, 1);
        out.push_back(
            checkSamePayload("f.one_vs_two_shards", one.payload, payload));
        break;
      }
    }
    out.push_back(checkReuse(raw, noEvictionReplay(path)));
    out.push_back(checkGenerated(raw, model));
    return out;
}

std::string
checksJson(const std::vector<CheckResult>& checks, bool* all_ok)
{
    *all_ok = true;
    std::string list = "[";
    for (std::size_t i = 0; i < checks.size(); ++i) {
        const CheckResult& c = checks[i];
        *all_ok = *all_ok && c.ok;
        JsonObject j;
        j.str("name", c.name).set("ok", c.ok ? "true" : "false")
            .str("detail", c.detail);
        list += (i ? ", " : "") + j.dump();
    }
    return list + "]";
}

int
cmdCheck(const Args& args)
{
    const Workload& w = findWorkload(need(args, "workload"));
    const AzureModelConfig model =
        w.modelFor(std::stoull(need(args, "seed")));
    const std::vector<CheckResult> checks =
        runChecks(w, model, need(args, "ftrace"),
                  readFile(need(args, "payload")));
    bool ok = false;
    const std::string list = checksJson(checks, &ok);
    JsonObject json;
    json.set("ok", ok ? "true" : "false").set("checks", list);
    std::cout << json.dump() << std::endl;
    return ok ? 0 : 1;
}

// --- selftest -------------------------------------------------------------

/** Small variant of a workload for the self-test. */
Workload
smallWorkload(const Workload& w)
{
    Workload s = w;
    s.model.num_functions = std::min<std::size_t>(w.model.num_functions, 400);
    return s;
}

struct SelfTest
{
    int failures = 0;

    /** `c` must hold (accept = true) or fail (accept = false). */
    void expect(const CheckResult& c, bool accept, const std::string& what)
    {
        const bool good = c.ok == accept;
        if (!good)
            ++failures;
        std::cout << (good ? "ok    " : "FAIL  ") << c.name << ": "
                  << (accept ? "accepts " : "rejects ") << what;
        if (!c.detail.empty())
            std::cout << " (" << c.detail << ")";
        std::cout << "\n";
    }
};

int
cmdSelftest(const Args& args)
{
    const std::string dir = need(args, "dir");
    SelfTest t;
    for (const Workload& big : allWorkloads()) {
        const Workload w = smallWorkload(big);
        const AzureModelConfig model = w.modelFor(1);
        const std::string path = dir + "/selftest-" + w.name + ".ftrace";
        {
            const auto source = makeAzureSource(model);
            writeFtraceFile(path, *source);
        }
        std::cout << "== " << w.name << "\n";
        const Replay replay = replayOnce(w, path, false, nullptr, -1);
        for (const CheckResult& c : runChecks(w, model, path, replay.payload))
            t.expect(c, true, "the real result");

        const RawTrace raw = readRawTrace(path);
        const std::vector<std::int64_t> counts = raw.counts();
        std::string key;
        if (w.layer == Layer::Sim) {
            SimResult r;
            decodeCheckpointPayload(replay.payload, &key, &r);
            std::size_t f = 0;
            while (r.per_function[f].cold == 0 || r.per_function[f].warm == 0)
                ++f;
            SimResult bad = r;
            ++bad.per_function[f].warm;
            t.expect(checkOutcomes(counts, {bad.per_function}, 0), false,
                     "one extra warm start");
            bad = r;
            bad.memory_usage[bad.memory_usage.size() / 2].used_mb =
                r.memory_mb + 1.0;
            t.expect(checkPoolCapacity(usedMb(bad.memory_usage), r.memory_mb),
                     false, "a sample 1 MB over capacity");
            bad = r;
            bad.per_function[f].warm += bad.per_function[f].cold;
            bad.per_function[f].cold = 0;
            t.expect(checkColdBeforeServe({bad.per_function}), false,
                     "cold starts relabelled warm");
        }
        if (w.layer == Layer::Server) {
            PlatformResult r;
            decodePlatformCheckpointPayload(replay.payload, &key, &r);
            std::size_t f = 0;
            while (r.per_function[f].warm + r.per_function[f].cold == 0)
                ++f;
            PlatformResult bad = r;
            --bad.per_function[f].dropped;
            --bad.per_function[f].cold;
            t.expect(checkOutcomes(counts, {bad.per_function}, 0), false,
                     "one lost invocation");
            t.expect(checkPoolCapacity({r.config.memory_mb + 0.5},
                                             r.config.memory_mb),
                     false, "a sample over capacity");
            bad = r;
            bad.latency_sum_sec[f] = 0.0;
            const Summary lat = r.latencySummary();
            t.expect(checkLatency(bad.per_function, bad.latency_sum_sec,
                                  raw.warm_us, lat.p50, lat.p99),
                     false, "a zero latency sum");
            t.expect(checkLatency(r.per_function, r.latency_sum_sec,
                                  raw.warm_us, lat.p99 + 1.0, lat.p99),
                     false, "p50 above p99");
            bad = r;
            bad.per_function[f].warm += bad.per_function[f].cold;
            bad.per_function[f].cold = 0;
            t.expect(checkColdBeforeServe({bad.per_function}), false,
                     "cold starts relabelled warm");
        }
        if (w.layer == Layer::Cluster) {
            ClusterResult r;
            decodeClusterCheckpointPayload(replay.payload, &key, &r);
            t.expect(checkOutcomes(counts, perServer(r),
                                   r.shed_requests + r.failed_requests + 1),
                     false, "one invocation counted twice");
            ClusterResult bad_result = r;
            PlatformResult& s0 = bad_result.servers[0];
            std::size_t f = 0;
            while (s0.per_function[f].cold == 0)
                ++f;
            s0.per_function[f].warm += s0.per_function[f].cold;
            s0.per_function[f].cold = 0;
            t.expect(checkColdBeforeServe(perServer(bad_result)), false,
                     "cold starts relabelled warm on one server");
            s0.latency_sum_sec[f] = 0.0;
            const Summary lat = s0.latencySummary();
            t.expect(checkLatency(s0.per_function, s0.latency_sum_sec,
                                  raw.warm_us, lat.p50, lat.p99),
                     false, "a zero latency sum on one server");
            std::string bad = replay.payload;
            bad[bad.size() / 2] ^= 1;
            t.expect(checkSamePayload("f.one_vs_two_shards", replay.payload,
                                      bad),
                     false, "one flipped payload bit");
        }
        SimResult reuse = noEvictionReplay(path);
        std::size_t f = 0;
        while (reuse.per_function[f].cold == 0)
            ++f;
        ++reuse.per_function[f].cold;
        t.expect(checkReuse(raw, reuse), false, "one extra cold start");

        RawTrace bad = raw;
        std::swap(bad.arrival_us[bad.arrival_us.size() / 2],
                  bad.arrival_us[bad.arrival_us.size() / 2 + 200]);
        if (bad.arrival_us != raw.arrival_us)
            t.expect(checkGenerated(bad, model), false, "swapped arrivals");
        bad = raw;
        bad.mem_mb[0] = model.mem_max_mb + 1.0;
        t.expect(checkGenerated(bad, model), false,
                 "a size above the clamp");
        bad = raw;
        // Half a period later, the low half holds the peak.
        for (std::int64_t& a : bad.arrival_us)
            a += model.diurnal_period_us / 2;
        t.expect(checkGenerated(bad, model), false,
                 "arrivals shifted by half a period");
        std::filesystem::remove(path);
    }
    std::cout << (t.failures == 0 ? "selftest passed" : "selftest FAILED")
              << "\n";
    return t.failures == 0 ? 0 : 1;
}

/** Run `command` in a forked child; print the child's peak RSS. */
int
runMeasured(int (*command)(const Args&), const Args& args)
{
    JsonObject json;
    json.num("peak_rss_mb", peakRssOfChild([&] { return command(args); }));
    std::cout << json.dump() << std::endl;
    return 0;
}

}  // namespace

int
main(int argc, char** argv)
{
    if (argc < 2) {
        std::cerr << "usage: perfbench_driver setup|replay|check|selftest "
                     "--key value ...\n";
        return 2;
    }
    try {
        const std::string cmd = argv[1];
        const Args args = parseArgs(argc, argv, 2);
        if (cmd == "setup")
            return runMeasured(cmdSetup, args);
        if (cmd == "replay")
            return cmdReplay(args);
        if (cmd == "check")
            return cmdCheck(args);
        if (cmd == "selftest")
            return cmdSelftest(args);
        std::cerr << "unknown command " << cmd << "\n";
        return 2;
    } catch (const std::exception& e) {
        std::cerr << "perfbench_driver: " << e.what() << "\n";
        return 1;
    }
}
