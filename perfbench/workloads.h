/**
 * @file
 * The benchmark's workloads: the generator parameters of each input
 * stream and the configuration of the layer that replays it.
 *
 * Every workload is an open-loop trace replay: arrivals come from the
 * generated `.ftrace` stream, never from completions. The benchmark
 * seed only changes the generator seed; sizes and configurations are
 * fixed per workload.
 */
#ifndef FAASCACHE_PERFBENCH_WORKLOADS_H_
#define FAASCACHE_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "platform/cluster.h"
#include "sim/simulator.h"
#include "trace/azure_model.h"

namespace perfbench {

/** Which layer replays the stream. */
enum class Layer
{
    Sim,      ///< faascache::Simulator
    Server,   ///< one faascache::Server::run
    Cluster,  ///< faascache::runCluster(ShardedWorkload)
};

/** One benchmark workload. */
struct Workload
{
    std::string name;
    Layer layer = Layer::Sim;

    /** Generator parameters; `seed` is filled in by modelFor(). */
    faascache::AzureModelConfig model;

    /** Replay configuration of the layer named by `layer`. */
    faascache::SimulatorConfig sim;
    faascache::ServerConfig server;
    faascache::ClusterConfig cluster;

    /** Generator config for one benchmark seed. */
    faascache::AzureModelConfig modelFor(std::uint64_t bench_seed) const;
};

/** All workloads, in the order the README lists them. */
const std::vector<Workload>& allWorkloads();

/** @throws std::invalid_argument for an unknown name. */
const Workload& findWorkload(const std::string& name);

}  // namespace perfbench

#endif  // FAASCACHE_PERFBENCH_WORKLOADS_H_
