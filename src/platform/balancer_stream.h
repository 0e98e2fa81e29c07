/**
 * @file
 * Streaming load-balancer helpers shared by the cluster engines.
 *
 * The balancer's primary assignment is a pure function of the arrival
 * stream: RoundRobin and FunctionHash depend only on (index, function),
 * and Random is a sequential draw stream seeded by the cluster seed.
 * Every consumer that replays the stream in order therefore assigns
 * identical primaries — the invariant both the split replay and the
 * windowed engine (cluster_shard.cc) are built on. This header is
 * internal to src/platform.
 */
#ifndef FAASCACHE_PLATFORM_BALANCER_STREAM_H_
#define FAASCACHE_PLATFORM_BALANCER_STREAM_H_

#include <string>
#include <vector>

#include "platform/cluster.h"
#include "trace/invocation_source.h"
#include "util/rng.h"

namespace faascache {

/**
 * The balancer's primary for each arrival, computed in stream order.
 * RoundRobin and FunctionHash primaries are pure functions of
 * (index, function); Random primaries are sequential RNG draws, so the
 * tracker must see every arrival exactly once, in order. Nothing is
 * recorded: the windowed engine carries a request's primary with its
 * cross-shard messages instead of recalling it.
 */
class PrimaryTracker
{
  public:
    explicit PrimaryTracker(const ClusterConfig& config)
        : config_(&config), rng_(config.seed)
    {
    }

    /** Primary of the next arrival; call once per arrival, in order. */
    std::size_t onArrival(std::size_t index, const Invocation& inv)
    {
        switch (config_->balancing) {
          case LoadBalancing::Random:
            return static_cast<std::size_t>(
                rng_.uniformInt(config_->num_servers));
          case LoadBalancing::RoundRobin:
            return index % config_->num_servers;
          case LoadBalancing::FunctionHash:
            break;
        }
        return static_cast<std::size_t>(
            Rng::hashMix(inv.function ^ config_->seed) %
            config_->num_servers);
    }

  private:
    const ClusterConfig* config_;
    Rng rng_;
};

/**
 * The sub-stream server `server` would receive from the balancer: a
 * filter view over the shared source that consumes one balancer draw
 * per inner invocation (in stream order, so every pass replays the
 * identical draw sequence) and emits only the invocations routed to
 * this server. Function ids pass through untouched; every server keeps
 * the full catalog. Non-owning; reset() rewinds the shared source.
 *
 * The count hint is caller-provided; the split replay passes an
 * inexact estimate (hints are allocation-only by the InvocationSource
 * contract, so results cannot differ).
 */
class BalancerFilterSource final : public InvocationSource
{
  public:
    BalancerFilterSource(InvocationSource& inner,
                         const ClusterConfig& config, std::size_t server,
                         SourceCountHint hint)
        : inner_(&inner), config_(&config), server_(server), hint_(hint),
          name_(inner.name() + "-server" + std::to_string(server)),
          tracker_(config)
    {
    }

    const std::string& name() const override { return name_; }

    const std::vector<FunctionSpec>& functions() const override
    {
        return inner_->functions();
    }

    bool peek(Invocation& out) override
    {
        if (!settle())
            return false;
        out = pending_;
        return true;
    }

    bool next(Invocation& out) override
    {
        if (!settle())
            return false;
        out = pending_;
        has_pending_ = false;
        return true;
    }

    void reset() override
    {
        inner_->reset();
        tracker_ = PrimaryTracker(*config_);
        index_ = 0;
        has_pending_ = false;
    }

    SourceCountHint countHint() const override { return hint_; }

  private:
    /** Consume inner arrivals (and their draws) until one is ours. */
    bool settle()
    {
        while (!has_pending_) {
            Invocation inv;
            if (!inner_->next(inv))
                return false;
            if (tracker_.onArrival(index_++, inv) == server_) {
                pending_ = inv;
                has_pending_ = true;
            }
        }
        return true;
    }

    InvocationSource* inner_;
    const ClusterConfig* config_;
    std::size_t server_;
    SourceCountHint hint_;
    std::string name_;
    PrimaryTracker tracker_;
    std::size_t index_ = 0;
    Invocation pending_;
    bool has_pending_ = false;
};

}  // namespace faascache

#endif  // FAASCACHE_PLATFORM_BALANCER_STREAM_H_
