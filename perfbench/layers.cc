#include "layers.h"

#include <time.h>

#include <algorithm>
#include <cstdio>
#include <stdexcept>

namespace perfbench {

using namespace faascache;

double
processCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
        static_cast<double>(ts.tv_nsec) * 1e-9;
}

namespace {

/** Adds the elapsed time of its scope to `*sink`. */
class ScopeTimer
{
  public:
    explicit ScopeTimer(double* sink) : sink_(sink), start_(nowSeconds()) {}
    ~ScopeTimer() { *sink_ += nowSeconds() - start_; }

  private:
    double* sink_;
    double start_;
};

}  // namespace

// --- TracedPolicy ---------------------------------------------------------

void
TracedPolicy::reserveFunctions(std::size_t n)
{
    inner_->reserveFunctions(n);
}

void
TracedPolicy::onInvocationArrival(const FunctionSpec& function, TimeUs now)
{
    ++counters_->notify_calls;
    ScopeTimer t(&counters_->notify_s);
    inner_->onInvocationArrival(function, now);
}

void
TracedPolicy::onWarmStart(Container& container, const FunctionSpec& function,
                          TimeUs now)
{
    ++counters_->notify_calls;
    ScopeTimer t(&counters_->notify_s);
    inner_->onWarmStart(container, function, now);
}

void
TracedPolicy::onColdStart(Container& container, const FunctionSpec& function,
                          TimeUs now)
{
    ++counters_->notify_calls;
    ScopeTimer t(&counters_->notify_s);
    inner_->onColdStart(container, function, now);
}

void
TracedPolicy::onPrewarm(Container& container, const FunctionSpec& function,
                        TimeUs now)
{
    ++counters_->notify_calls;
    ScopeTimer t(&counters_->notify_s);
    inner_->onPrewarm(container, function, now);
}

void
TracedPolicy::onEviction(const Container& container, bool last_of_function,
                         TimeUs now)
{
    if (pending_victims_.erase(container.id()) > 0)
        ++counters_->victims_evicted;
    ++counters_->notify_calls;
    ScopeTimer t(&counters_->notify_s);
    inner_->onEviction(container, last_of_function, now);
}

void
TracedPolicy::samplePool(const ContainerPool& pool)
{
    counters_->max_pool_used_mb =
        std::max(counters_->max_pool_used_mb, pool.usedMb());
    counters_->pool_capacity_mb = pool.capacityMb();
    ++counters_->pool_samples;
}

std::vector<ContainerId>
TracedPolicy::selectVictims(ContainerPool& pool, MemMb needed_mb, TimeUs now)
{
    samplePool(pool);
    std::vector<ContainerId> victims;
    {
        ScopeTimer t(&counters_->select_victims_s);
        victims = inner_->selectVictims(pool, needed_mb, now);
    }
    ++counters_->select_victims_calls;
    counters_->victims_returned += static_cast<std::int64_t>(victims.size());
    // Victims of an earlier call that were never evicted were discarded
    // with a dropped request.
    pending_victims_.clear();
    pending_victims_.insert(victims.begin(), victims.end());
    return victims;
}

std::vector<ContainerId>
TracedPolicy::expiredContainers(const ContainerPool& pool, TimeUs now)
{
    samplePool(pool);
    ++counters_->expired_calls;
    ScopeTimer t(&counters_->expired_s);
    return inner_->expiredContainers(pool, now);
}

std::vector<FunctionId>
TracedPolicy::duePrewarms(TimeUs now)
{
    ScopeTimer t(&counters_->expired_s);
    return inner_->duePrewarms(now);
}

// --- TracedSource ---------------------------------------------------------

bool
TracedSource::peek(Invocation& out)
{
    const double start = nowSeconds();
    const bool ok = inner_->peek(out);
    counters_.seconds += nowSeconds() - start;
    ++counters_.calls;
    return ok;
}

bool
TracedSource::next(Invocation& out)
{
    const double start = nowSeconds();
    const bool ok = inner_->next(out);
    counters_.seconds += nowSeconds() - start;
    ++counters_.calls;
    if (ok)
        ++counters_.yielded;
    return ok;
}

void
TracedSource::reset()
{
    ScopeTimer t(&counters_.seconds);
    ++counters_.calls;
    inner_->reset();
}

// --- CountingFactory ------------------------------------------------------

/** TracedSource that folds its counters into the factory on close. */
class FoldingSource final : public InvocationSource
{
  public:
    FoldingSource(std::unique_ptr<InvocationSource> inner,
                  CountingFactory* owner)
        : traced_(std::move(inner)), owner_(owner)
    {
    }
    ~FoldingSource() override { owner_->fold(traced_.counters()); }

    const std::string& name() const override { return traced_.name(); }
    const std::vector<FunctionSpec>& functions() const override
    {
        return traced_.functions();
    }
    bool peek(Invocation& out) override { return traced_.peek(out); }
    bool next(Invocation& out) override { return traced_.next(out); }
    void reset() override { traced_.reset(); }
    SourceCountHint countHint() const override
    {
        return traced_.countHint();
    }

  private:
    TracedSource traced_;
    CountingFactory* owner_;
};

SourceFactory
CountingFactory::factory()
{
    return [this]() -> std::unique_ptr<InvocationSource> {
        {
            std::lock_guard<std::mutex> lock(mu_);
            ++opened_;
        }
        return std::make_unique<FoldingSource>(inner_(), this);
    };
}

void
CountingFactory::fold(const SourceCounters& c)
{
    std::lock_guard<std::mutex> lock(mu_);
    total_.calls += c.calls;
    total_.yielded += c.yielded;
    total_.seconds += c.seconds;
}

std::int64_t
CountingFactory::cursorsOpened() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return opened_;
}

SourceCounters
CountingFactory::total() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return total_;
}

// --- SpanLog --------------------------------------------------------------

int
SpanLog::begin(const std::string& name, int parent)
{
    spans_.push_back(Span{name, parent, nowSeconds(), 0.0});
    return static_cast<int>(spans_.size()) - 1;
}

void
SpanLog::end(int id)
{
    spans_.at(static_cast<std::size_t>(id)).end = nowSeconds();
}

double
SpanLog::seconds(int id) const
{
    const Span& s = spans_.at(static_cast<std::size_t>(id));
    return s.end - s.start;
}

void
SpanLog::writeChromeTrace(const std::string& path, int pid) const
{
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        throw std::runtime_error("cannot write span file " + path);
    std::fprintf(f, "{\"traceEvents\": [\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        const std::string parent =
            s.parent < 0 ? "" : spans_[static_cast<std::size_t>(s.parent)].name;
        std::fprintf(f,
                     "  {\"name\": \"%s\", \"ph\": \"X\", \"pid\": %d, "
                     "\"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, "
                     "\"args\": {\"id\": %zu, \"parent\": %d, "
                     "\"parent_name\": \"%s\"}}%s\n",
                     s.name.c_str(), pid, s.start * 1e6,
                     (s.end - s.start) * 1e6, i, s.parent, parent.c_str(),
                     i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(f, "]}\n");
    std::fclose(f);
}

}  // namespace perfbench
