/**
 * @file
 * Correctness checks of a replay against facts computed apart from it.
 *
 * The references never go through the program's replay path:
 *  - RawTrace parses the compiled `.ftrace` bytes with its own reader
 *    (not FtraceRegion/FtraceCursor) for per-function invocation
 *    counts, the catalog and the arrival column;
 *  - reuseColdStarts() replays container reuse per function from
 *    arrivals, warm times and cold times alone;
 *  - expectedHighHalfShare() integrates the configured diurnal
 *    sinusoid itself.
 *
 * Each check returns a CheckResult; a failed check names what differed.
 */
#ifndef FAASCACHE_PERFBENCH_CHECKS_H_
#define FAASCACHE_PERFBENCH_CHECKS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "sim/sim_result.h"
#include "trace/azure_model.h"

namespace perfbench {

struct CheckResult
{
    std::string name;
    bool ok = true;
    std::string detail;
};

/** A `.ftrace` file read straight from its bytes. */
struct RawTrace
{
    std::vector<double> mem_mb;
    std::vector<std::int64_t> warm_us;
    std::vector<std::int64_t> cold_us;
    std::vector<std::int64_t> arrival_us;
    std::vector<std::uint32_t> function;

    /** Invocations per function id. */
    std::vector<std::int64_t> counts() const;
};

/** @throws std::runtime_error on a malformed file. */
RawTrace readRawTrace(const std::string& path);

/** (a) Per function, resolved outcomes (summed over `per_server`)
 *  never exceed the invocation count, and the shortfall over all
 *  functions equals `unresolved` (requests the front end shed or
 *  failed; 0 for a single simulator or server, which then must match
 *  every function exactly). */
CheckResult checkOutcomes(
    const std::vector<std::int64_t>& counts,
    const std::vector<std::vector<faascache::FunctionOutcome>>& per_server,
    std::int64_t unresolved);

/** (b) Every pool memory sample is within the capacity. */
CheckResult checkPoolCapacity(const std::vector<double>& used_mb,
                              double capacity_mb);

/** (c) Every function served on a server cold-started there. */
CheckResult checkColdBeforeServe(
    const std::vector<std::vector<faascache::FunctionOutcome>>& per_server);

/** (d) Per function, mean latency >= warm time; p50 <= p99. */
CheckResult checkLatency(
    const std::vector<faascache::FunctionOutcome>& per_function,
    const std::vector<double>& latency_sum_sec,
    const std::vector<std::int64_t>& warm_us, double p50, double p99);

/** Per-function cold starts of a replay in which no container is ever
 *  evicted: a container is busy from its start until start + cold time
 *  (cold start) or start + warm time (warm start), and an invocation
 *  arriving at or after a container's end reuses it. */
std::vector<std::int64_t> reuseColdStarts(const RawTrace& trace);

/** (e) A no-eviction simulator replay matches reuseColdStarts(). */
CheckResult checkReuse(const RawTrace& trace,
                       const faascache::SimResult& result);

/** (f) Two payloads are byte-identical. */
CheckResult checkSamePayload(const std::string& name, const std::string& a,
                             const std::string& b);

/** Share of arrivals, by minute bucket, in the high half of the
 *  diurnal period for the configured sinusoid over `minutes`. */
double expectedHighHalfShare(const faascache::AzureModelConfig& model,
                             std::int64_t minutes);

/** Allowed distance of the measured high-half share from expected. */
inline constexpr double kDiurnalShareBand = 0.02;

/** (g) Arrivals sorted, memory within the clamps, diurnal share in
 *  band. */
CheckResult checkGenerated(const RawTrace& trace,
                           const faascache::AzureModelConfig& model);

}  // namespace perfbench

#endif  // FAASCACHE_PERFBENCH_CHECKS_H_
