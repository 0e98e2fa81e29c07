#include "checks.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <functional>
#include <iterator>
#include <numbers>
#include <queue>
#include <stdexcept>

namespace perfbench {

using namespace faascache;

namespace {

/** Bounds-checked little-endian reader over a byte buffer. */
class ByteReader
{
  public:
    explicit ByteReader(const std::string& bytes) : bytes_(bytes) {}

    template <typename T>
    T read()
    {
        need(sizeof(T));
        T value;
        std::memcpy(&value, bytes_.data() + pos_, sizeof(T));
        pos_ += sizeof(T);
        return value;
    }

    void skip(std::size_t n)
    {
        need(n);
        pos_ += n;
    }

    std::size_t pos() const { return pos_; }
    void seek(std::size_t pos) { pos_ = pos; }

  private:
    void need(std::size_t n) const
    {
        if (pos_ + n > bytes_.size())
            throw std::runtime_error("raw trace: truncated file");
    }

    const std::string& bytes_;
    std::size_t pos_ = 0;
};

std::string
fmt(const char* format, double a, double b = 0.0, double c = 0.0)
{
    char buf[256];
    std::snprintf(buf, sizeof buf, format, a, b, c);
    return buf;
}

CheckResult
fail(CheckResult r, std::string detail)
{
    r.ok = false;
    r.detail = std::move(detail);
    return r;
}

}  // namespace

std::vector<std::int64_t>
RawTrace::counts() const
{
    std::vector<std::int64_t> out(mem_mb.size(), 0);
    for (const std::uint32_t f : function)
        ++out.at(f);
    return out;
}

RawTrace
readRawTrace(const std::string& path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw std::runtime_error("raw trace: cannot open " + path);
    const std::string bytes((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
    ByteReader r(bytes);
    char magic[4];
    for (char& ch : magic)
        ch = r.read<char>();
    if (std::memcmp(magic, "FTRC", 4) != 0)
        throw std::runtime_error("raw trace: bad magic");
    r.read<std::uint32_t>();  // endianness
    r.read<std::uint32_t>();  // version
    const auto capacity = r.read<std::uint32_t>();
    const auto name_bytes = r.read<std::uint32_t>();
    r.read<std::uint32_t>();  // reserved
    const auto num_functions = r.read<std::uint64_t>();
    const auto num_invocations = r.read<std::uint64_t>();
    const auto num_chunks = r.read<std::uint64_t>();
    const auto table_bytes = r.read<std::uint64_t>();
    r.read<std::uint64_t>();  // header checksum
    r.skip(name_bytes);

    RawTrace t;
    const std::size_t table_end = r.pos() + table_bytes;
    for (std::uint64_t i = 0; i < num_functions; ++i) {
        r.skip(r.read<std::uint32_t>());  // name
        t.mem_mb.push_back(r.read<double>());
        r.read<double>();  // cpu units
        r.read<double>();  // io units
        t.warm_us.push_back(r.read<std::int64_t>());
        t.cold_us.push_back(r.read<std::int64_t>());
    }
    if (r.pos() != table_end)
        throw std::runtime_error("raw trace: function table size mismatch");
    r.read<std::uint64_t>();  // table checksum

    t.arrival_us.reserve(num_invocations);
    t.function.reserve(num_invocations);
    for (std::uint64_t c = 0; c < num_chunks; ++c) {
        const std::size_t chunk = r.pos();
        const auto count = r.read<std::uint32_t>();
        r.read<std::uint32_t>();
        for (std::uint32_t i = 0; i < count; ++i)
            t.arrival_us.push_back(r.read<std::int64_t>());
        r.seek(chunk + 8 + std::size_t{capacity} * 8);
        for (std::uint32_t i = 0; i < count; ++i) {
            const auto f = r.read<std::uint32_t>();
            if (f >= num_functions)
                throw std::runtime_error("raw trace: function id out of range");
            t.function.push_back(f);
        }
        r.seek(chunk + 8 + std::size_t{capacity} * 12 + 8);
    }
    if (t.arrival_us.size() != num_invocations)
        throw std::runtime_error("raw trace: invocation count mismatch");
    return t;
}

CheckResult
checkOutcomes(const std::vector<std::int64_t>& counts,
              const std::vector<std::vector<FunctionOutcome>>& per_server,
              std::int64_t unresolved)
{
    CheckResult r{"a.outcomes_match_counts", true, {}};
    std::vector<std::int64_t> resolved(counts.size(), 0);
    for (const auto& server : per_server) {
        if (server.size() != counts.size())
            return fail(r, "per-function table has " +
                            std::to_string(server.size()) + " entries, file " +
                            std::to_string(counts.size()));
        for (std::size_t f = 0; f < server.size(); ++f)
            resolved[f] += server[f].warm + server[f].cold + server[f].dropped;
    }
    std::int64_t shortfall = 0;
    for (std::size_t f = 0; f < counts.size(); ++f) {
        if (resolved[f] > counts[f] || resolved[f] < 0)
            return fail(r, "function " + std::to_string(f) + " resolved " +
                            std::to_string(resolved[f]) + " of " +
                            std::to_string(counts[f]) + " invocations");
        if (unresolved == 0 && resolved[f] != counts[f])
            return fail(r, "function " + std::to_string(f) + " resolved " +
                            std::to_string(resolved[f]) + " of " +
                            std::to_string(counts[f]) + " invocations");
        shortfall += counts[f] - resolved[f];
    }
    if (shortfall != unresolved)
        return fail(r, "unresolved per function sum to " +
                        std::to_string(shortfall) + ", front end reports " +
                        std::to_string(unresolved));
    return r;
}

CheckResult
checkPoolCapacity(const std::vector<double>& used_mb, double capacity_mb)
{
    CheckResult r{"b.pool_within_capacity", true, {}};
    if (used_mb.empty())
        return fail(r, "no pool samples");
    for (std::size_t i = 0; i < used_mb.size(); ++i) {
        if (used_mb[i] > capacity_mb)
            return fail(r, "sample " + std::to_string(i) +
                            fmt(" uses %.1f MB of %.1f MB", used_mb[i],
                                capacity_mb));
    }
    return r;
}

CheckResult
checkColdBeforeServe(
    const std::vector<std::vector<FunctionOutcome>>& per_server)
{
    CheckResult r{"c.cold_start_before_warm", true, {}};
    for (std::size_t s = 0; s < per_server.size(); ++s) {
        for (std::size_t f = 0; f < per_server[s].size(); ++f) {
            const FunctionOutcome& o = per_server[s][f];
            if (o.warm + o.cold > 0 && o.cold < 1)
                return fail(r, "function " + std::to_string(f) +
                                " served warm on server " + std::to_string(s) +
                                " without a cold start");
        }
    }
    return r;
}

CheckResult
checkLatency(const std::vector<FunctionOutcome>& per_function,
             const std::vector<double>& latency_sum_sec,
             const std::vector<std::int64_t>& warm_us, double p50, double p99)
{
    CheckResult r{"d.latency_at_least_warm", true, {}};
    if (latency_sum_sec.size() != per_function.size() ||
        warm_us.size() != per_function.size())
        return fail(r, "latency table size mismatch");
    for (std::size_t f = 0; f < per_function.size(); ++f) {
        const std::int64_t served = per_function[f].warm + per_function[f].cold;
        if (served == 0)
            continue;
        const double mean = latency_sum_sec[f] / static_cast<double>(served);
        const double warm = static_cast<double>(warm_us[f]) * 1e-6;
        // Relative slack for the rounding of a sum of doubles.
        if (mean < warm * (1.0 - 1e-9))
            return fail(r, "function " + std::to_string(f) +
                            fmt(" mean latency %.9f s below warm time %.9f s",
                                mean, warm));
    }
    if (!(p50 <= p99))
        return fail(r, fmt("p50 %.9f s above p99 %.9f s", p50, p99));
    return r;
}

std::vector<std::int64_t>
reuseColdStarts(const RawTrace& trace)
{
    // Per function: the end times of its containers, earliest on top.
    using EndHeap = std::priority_queue<std::int64_t, std::vector<std::int64_t>,
                                        std::greater<>>;
    std::vector<EndHeap> ends(trace.mem_mb.size());
    std::vector<std::int64_t> cold(trace.mem_mb.size(), 0);
    for (std::size_t i = 0; i < trace.arrival_us.size(); ++i) {
        const std::uint32_t f = trace.function[i];
        const std::int64_t t = trace.arrival_us[i];
        EndHeap& heap = ends[f];
        if (!heap.empty() && heap.top() <= t) {
            heap.pop();
            heap.push(t + trace.warm_us[f]);
        } else {
            heap.push(t + trace.cold_us[f]);
            ++cold[f];
        }
    }
    return cold;
}

CheckResult
checkReuse(const RawTrace& trace, const SimResult& result)
{
    CheckResult r{"e.reuse_replay_cold_starts", true, {}};
    if (result.evictions != 0 || result.dropped != 0)
        return fail(r, "no-eviction replay evicted " +
                        std::to_string(result.evictions) + " and dropped " +
                        std::to_string(result.dropped));
    const std::vector<std::int64_t> expected = reuseColdStarts(trace);
    if (result.per_function.size() != expected.size())
        return fail(r, "per-function table size mismatch");
    for (std::size_t f = 0; f < expected.size(); ++f) {
        if (result.per_function[f].cold != expected[f])
            return fail(r, "function " + std::to_string(f) + ": simulator " +
                            std::to_string(result.per_function[f].cold) +
                            " cold starts, reuse replay " +
                            std::to_string(expected[f]));
    }
    return r;
}

CheckResult
checkSamePayload(const std::string& name, const std::string& a,
                 const std::string& b)
{
    CheckResult r{name, true, {}};
    if (a == b)
        return r;
    std::size_t i = 0;
    while (i < a.size() && i < b.size() && a[i] == b[i])
        ++i;
    return fail(r, "payloads of " + std::to_string(a.size()) + " and " +
                    std::to_string(b.size()) + " bytes differ at byte " +
                    std::to_string(i));
}

namespace {

/** Diurnal minute bucket of an arrival falls in the period's high half
 *  (the middle half, where the raised sinusoid is above its mean). */
bool
inHighHalf(std::int64_t bucket_us, std::int64_t period_us)
{
    const std::int64_t phase = bucket_us % period_us;
    return 4 * phase >= period_us && 4 * phase < 3 * period_us;
}

}  // namespace

double
expectedHighHalfShare(const AzureModelConfig& model, std::int64_t minutes)
{
    const double amplitude = model.diurnal_peak_to_mean - 1.0;
    double high = 0.0;
    double total = 0.0;
    for (std::int64_t m = 0; m < minutes; ++m) {
        const std::int64_t t = m * kMinute;
        const double angle = 2.0 * std::numbers::pi *
            static_cast<double>(t % model.diurnal_period_us) /
            static_cast<double>(model.diurnal_period_us);
        const double rate = std::max(0.0, 1.0 - amplitude * std::cos(angle));
        total += rate;
        if (inHighHalf(t, model.diurnal_period_us))
            high += rate;
    }
    return total > 0.0 ? high / total : 0.0;
}

CheckResult
checkGenerated(const RawTrace& trace, const AzureModelConfig& model)
{
    CheckResult r{"g.generated_stream_shape", true, {}};
    if (trace.arrival_us.empty())
        return fail(r, "empty stream");
    for (std::size_t i = 1; i < trace.arrival_us.size(); ++i) {
        if (trace.arrival_us[i] < trace.arrival_us[i - 1])
            return fail(r, "arrival " + std::to_string(i) + " out of order");
    }
    for (std::size_t f = 0; f < trace.mem_mb.size(); ++f) {
        if (trace.mem_mb[f] < model.mem_min_mb ||
            trace.mem_mb[f] > model.mem_max_mb)
            return fail(r, "function " + std::to_string(f) +
                            fmt(" memory %.1f MB outside [%.1f, %.1f]",
                                trace.mem_mb[f], model.mem_min_mb,
                                model.mem_max_mb));
    }
    if (model.diurnal) {
        std::int64_t high = 0;
        for (const std::int64_t t : trace.arrival_us) {
            if (inHighHalf(t - t % kMinute, model.diurnal_period_us))
                ++high;
        }
        const double share = static_cast<double>(high) /
            static_cast<double>(trace.arrival_us.size());
        const double expected = expectedHighHalfShare(
            model, (model.duration_us + kMinute - 1) / kMinute);
        if (std::abs(share - expected) > kDiurnalShareBand)
            return fail(r, fmt("high-half share %.4f, sinusoid gives %.4f "
                               "(band %.2f)",
                               share, expected, kDiurnalShareBand));
    }
    return r;
}

}  // namespace perfbench
