#include "workloads.h"

#include <stdexcept>

namespace perfbench {

using namespace faascache;

namespace {

std::uint64_t
splitmix64(std::uint64_t x)
{
    x += 0x9E3779B97F4A7C15ULL;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
    return x ^ (x >> 31);
}

/** Azure-shaped stream shared by the three workloads: lognormal
 *  inter-arrival times, sizes and run times, diurnal modulation. */
AzureModelConfig
azureShape()
{
    AzureModelConfig m;
    m.diurnal = true;
    m.diurnal_peak_to_mean = 2.0;
    m.diurnal_period_us = 2 * kHour;
    m.duration_us = 4 * kHour;
    return m;
}

Workload
simGdPressure()
{
    Workload w;
    w.name = "sim_gd_pressure";
    w.layer = Layer::Sim;
    w.model = azureShape();
    w.model.num_functions = 12000;
    w.model.iat_median_sec = 2400.0;
    w.model.iat_sigma = 1.2;
    w.model.max_rate_per_sec = 1.0;
    w.model.warm_median_ms = 250.0;
    w.model.warm_sigma = 1.0;
    w.model.name = w.name;
    // A pool far below the working set, so most cold starts evict.
    w.sim.memory_mb = 384 * 1024.0;
    return w;
}

Workload
serverAzure()
{
    Workload w;
    w.name = "server_azure";
    w.layer = Layer::Server;
    w.model = azureShape();
    w.model.num_functions = 6000;
    w.model.iat_median_sec = 120.0;
    w.model.iat_sigma = 1.2;
    w.model.max_rate_per_sec = 1.0;
    w.model.warm_median_ms = 400.0;
    w.model.warm_sigma = 1.0;
    w.model.name = w.name;
    // Ample memory (victim selection is rare), tight cores (requests
    // queue and cold starts hold two CPU slots while initialising).
    w.server.cores = 120;
    w.server.memory_mb = 1536 * 1024.0;
    w.server.cold_start_cpu_slots = 2;
    w.server.queue_capacity = 8192;
    return w;
}

Workload
clusterFaults()
{
    Workload w;
    w.name = "cluster_faults";
    w.layer = Layer::Cluster;
    w.model = azureShape();
    w.model.num_functions = 40000;
    w.model.iat_median_sec = 1800.0;
    w.model.iat_sigma = 1.2;
    w.model.max_rate_per_sec = 0.5;
    w.model.mem_median_mb = 96.0;
    w.model.mem_sigma = 0.7;
    w.model.mem_max_mb = 1024.0;
    w.model.warm_median_ms = 250.0;
    w.model.warm_sigma = 1.0;
    w.model.name = w.name;

    ClusterConfig& c = w.cluster;
    c.seed = 7;
    c.num_servers = 32;
    c.server.cores = 4;
    c.server.memory_mb = 8192;
    c.balancing = LoadBalancing::FunctionHash;
    c.shards = 2;
    c.faults.spawn_failure_prob = 0.02;
    c.faults.spawn_retry_delay_us = 100 * kMillisecond;
    const TimeUs d = w.model.duration_us;
    c.faults.crash_bursts.push_back(
        CrashBurst{d / 4, 30 * kSecond, 3, 2 * kMinute, 11});
    c.faults.crash_bursts.push_back(
        CrashBurst{(d * 5) / 8, 30 * kSecond, 4, 5 * kMinute, 12});
    c.failover.retry_budget.ratio = 0.25;
    c.failover.retry_budget.burst = 32;
    c.failover.breaker.failure_threshold = 16;
    c.failover.breaker.open_duration_us = 10 * kSecond;
    return w;
}

}  // namespace

AzureModelConfig
Workload::modelFor(std::uint64_t bench_seed) const
{
    AzureModelConfig m = model;
    std::uint64_t salt = 0;
    for (const char ch : name)
        salt = salt * 131 + static_cast<unsigned char>(ch);
    m.seed = splitmix64(bench_seed ^ splitmix64(salt));
    return m;
}

const std::vector<Workload>&
allWorkloads()
{
    static const std::vector<Workload> workloads = {
        simGdPressure(), serverAzure(), clusterFaults()};
    return workloads;
}

const Workload&
findWorkload(const std::string& name)
{
    for (const Workload& w : allWorkloads()) {
        if (w.name == name)
            return w;
    }
    throw std::invalid_argument("unknown workload: " + name);
}

}  // namespace perfbench
