/**
 * @file
 * Measurement at the program's public layer boundaries, from outside:
 *
 *  - TracedPolicy forwards every KeepAlivePolicy call to the real
 *    policy and aggregates call counts and time (the `core` layer);
 *  - TracedSource forwards every InvocationSource call to the real
 *    cursor and aggregates calls, yields and time (the `trace` layer
 *    during a replay);
 *  - CountingFactory wraps a SourceFactory so every cursor the sharded
 *    cluster opens is a TracedSource;
 *  - SpanLog keeps phase spans in memory and writes them as Chrome
 *    trace-event JSON when the run ends.
 *
 * The wrappers change no decision: they return exactly what the
 * wrapped object returns, so a traced replay's payload is
 * byte-identical to an untraced one (the driver checks this).
 */
#ifndef FAASCACHE_PERFBENCH_LAYERS_H_
#define FAASCACHE_PERFBENCH_LAYERS_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_set>
#include <vector>

#include "core/keepalive_policy.h"
#include "platform/cluster.h"
#include "trace/invocation_source.h"

namespace perfbench {

/** Monotonic seconds. */
inline double
nowSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** CPU seconds of the whole process (all threads). */
double processCpuSeconds();

/** Aggregated KeepAlivePolicy boundary counters. */
struct PolicyCounters
{
    std::int64_t select_victims_calls = 0;
    double select_victims_s = 0.0;
    std::int64_t victims_returned = 0;
    /** Returned victims that were then evicted (not discarded because
     *  the request was dropped). */
    std::int64_t victims_evicted = 0;
    std::int64_t notify_calls = 0;
    double notify_s = 0.0;
    std::int64_t expired_calls = 0;
    double expired_s = 0.0;
    /** Largest pool usage seen at a policy callback, MB (sampled at
     *  expiry/victim calls, where the driver hands over the pool). */
    double max_pool_used_mb = 0.0;
    double pool_capacity_mb = 0.0;
    /** Pool samples taken. */
    std::int64_t pool_samples = 0;
};

/** Forwarding KeepAlivePolicy that times and counts every call. */
class TracedPolicy final : public faascache::KeepAlivePolicy
{
  public:
    TracedPolicy(std::unique_ptr<faascache::KeepAlivePolicy> inner,
                 PolicyCounters* counters)
        : inner_(std::move(inner)), counters_(counters)
    {
    }

    std::string name() const override { return inner_->name(); }
    void reserveFunctions(std::size_t n) override;
    void onInvocationArrival(const faascache::FunctionSpec& function,
                             faascache::TimeUs now) override;
    void onWarmStart(faascache::Container& container,
                     const faascache::FunctionSpec& function,
                     faascache::TimeUs now) override;
    void onColdStart(faascache::Container& container,
                     const faascache::FunctionSpec& function,
                     faascache::TimeUs now) override;
    void onPrewarm(faascache::Container& container,
                   const faascache::FunctionSpec& function,
                   faascache::TimeUs now) override;
    void onEviction(const faascache::Container& container,
                    bool last_of_function, faascache::TimeUs now) override;
    std::vector<faascache::ContainerId> selectVictims(
        faascache::ContainerPool& pool, faascache::MemMb needed_mb,
        faascache::TimeUs now) override;
    std::vector<faascache::ContainerId> expiredContainers(
        const faascache::ContainerPool& pool,
        faascache::TimeUs now) override;
    std::vector<faascache::FunctionId> duePrewarms(
        faascache::TimeUs now) override;

  private:
    void samplePool(const faascache::ContainerPool& pool);

    std::unique_ptr<faascache::KeepAlivePolicy> inner_;
    PolicyCounters* counters_;
    /** Victims of the latest selectVictims call not yet evicted. */
    std::unordered_set<faascache::ContainerId> pending_victims_;
};

/** Aggregated InvocationSource boundary counters. */
struct SourceCounters
{
    std::int64_t calls = 0;
    /** Invocations handed out by next(). */
    std::int64_t yielded = 0;
    double seconds = 0.0;
};

/** Forwarding InvocationSource that times and counts peek/next. */
class TracedSource final : public faascache::InvocationSource
{
  public:
    /** Owns `inner`; counters are private until merged. */
    explicit TracedSource(std::unique_ptr<faascache::InvocationSource> inner)
        : inner_(std::move(inner))
    {
    }

    const std::string& name() const override { return inner_->name(); }
    const std::vector<faascache::FunctionSpec>& functions() const override
    {
        return inner_->functions();
    }
    bool peek(faascache::Invocation& out) override;
    bool next(faascache::Invocation& out) override;
    void reset() override;
    faascache::SourceCountHint countHint() const override
    {
        return inner_->countHint();
    }

    const SourceCounters& counters() const { return counters_; }

  private:
    std::unique_ptr<faascache::InvocationSource> inner_;
    SourceCounters counters_;
};

/**
 * SourceFactory wrapper: every cursor it opens is a TracedSource whose
 * counters are folded into the total when the cursor is destroyed.
 * Thread-safe: the sharded cluster opens cursors from worker threads.
 */
class CountingFactory
{
  public:
    explicit CountingFactory(faascache::SourceFactory inner)
        : inner_(std::move(inner))
    {
    }

    /** The factory to hand to the program. Must not outlive this. */
    faascache::SourceFactory factory();

    std::int64_t cursorsOpened() const;
    SourceCounters total() const;

  private:
    friend class FoldingSource;
    void fold(const SourceCounters& c);

    faascache::SourceFactory inner_;
    mutable std::mutex mu_;
    std::int64_t opened_ = 0;
    SourceCounters total_;
};

/** In-memory phase spans, written out as Chrome trace-event JSON. */
class SpanLog
{
  public:
    /** Open a span; returns its id. */
    int begin(const std::string& name, int parent = -1);
    void end(int id);

    /** Seconds of a closed span. */
    double seconds(int id) const;

    /** Write every span as Chrome trace-event ("X") JSON. Timestamps
     *  are absolute steady-clock microseconds, so span files written by
     *  different processes of one run merge onto one time line. */
    void writeChromeTrace(const std::string& path, int pid) const;

  private:
    struct Span
    {
        std::string name;
        int parent = -1;
        double start = 0.0;
        double end = 0.0;
    };
    std::vector<Span> spans_;
};

}  // namespace perfbench

#endif  // FAASCACHE_PERFBENCH_LAYERS_H_
