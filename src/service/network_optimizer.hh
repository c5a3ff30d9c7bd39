/**
 * @file
 * Network-level batch optimization: optimize every conv2d layer of a
 * whole network in one call, deduplicating repeated shapes and
 * consulting a (optionally persistent) SolutionCache so identical
 * (problem, machine, settings) solves are done exactly once — across
 * layers, across networks, and across process lifetimes.
 *
 * Every unique shape goes through a SolveScheduler, whose misses run
 * the optimizeConv pipeline (its permutation combo x objective x
 * start work items fanned across ThreadPool::parallelForIndexed). All
 * groups are submitted up front and joined in network order, so an
 * N-miss cold network pipelines across the scheduler's concurrency
 * budget (budget 1: one solve at a time at the full pool width) and
 * coalesces with any other request solving the same shape. The
 * per-layer results are deterministic — optimizeConv is bit-identical
 * for any worker width — so the returned plan is byte-identical for
 * any budget, and between a cold and a warm run: a hit replays the
 * stored winning ExecConfig and re-derives the cost breakdown from
 * the (deterministic) analytical model.
 */

#ifndef MOPT_SERVICE_NETWORK_OPTIMIZER_HH
#define MOPT_SERVICE_NETWORK_OPTIMIZER_HH

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "common/deadline.hh"
#include "conv/problem.hh"
#include "frontend/network_def.hh"
#include "machine/machine.hh"
#include "optimizer/mopt_optimizer.hh"
#include "service/solution_cache.hh"
#include "service/solve_scheduler.hh"

namespace mopt {

/** The optimized tiling of one network layer. */
struct LayerPlan
{
    ConvProblem problem;      //!< The layer as given (name retained).
    Candidate best;           //!< Winning config + predicted cost.
    bool cache_hit = false;   //!< Solution came from the cache.
    bool dedup_hit = false;   //!< Repeated shape solved earlier this run.
    double solve_seconds = 0; //!< Search time (0 for hits).
};

/** Aggregate statistics of one NetworkOptimizer::optimize call. */
struct NetworkPlanStats
{
    std::size_t layers = 0;        //!< Input layers.
    std::size_t unique_shapes = 0; //!< Distinct cache keys among them.
    std::size_t cache_hits = 0;    //!< Unique shapes served by the cache.
    std::size_t cache_misses = 0;  //!< Unique shapes actually solved.
    long solver_evals = 0;         //!< Model evaluations across solves.
    double solve_seconds = 0;      //!< Wall time inside optimizeConv.
    double total_seconds = 0;      //!< Wall time of the whole call.

    /** Misses that joined another request's in-flight solve instead
     *  of running one. */
    std::size_t coalesced = 0;

    /** Scheduler-lifetime peak of simultaneous solves (0 before its
     *  first solve). */
    int peak_concurrency = 0;

    /** cache_hits / unique_shapes (1 when there was nothing to do). */
    double hitRate() const;
};

/** Per-layer plans plus the run's statistics. */
struct NetworkPlan
{
    std::vector<LayerPlan> layers;
    NetworkPlanStats stats;

    /** Sum of predicted per-layer times (seconds). */
    double predictedSeconds() const;

    /**
     * Deterministic per-layer plan rendering (one table; no wall-clock
     * times or hit/miss markers), suitable for byte-for-byte comparison
     * between cold- and warm-cache runs.
     */
    std::string str() const;
};

/** The layers of a network that share one canonical CacheKey. */
struct ShapeGroup
{
    CacheKey key;
    std::vector<std::size_t> layers; //!< Network indices, ascending.
};

/**
 * Validate every layer of @p net and group the layers by canonical
 * CacheKey (layer names do not matter), in first-seen order, so
 * solves follow the network order regardless of hash order. Every
 * front end that assembles a NetworkPlan (NetworkOptimizer,
 * ShardRouter) groups through this, so their plans line up layer for
 * layer.
 */
std::vector<ShapeGroup> groupByShape(const std::vector<ConvProblem> &net,
                                     const MachineSpec &m,
                                     const OptimizerOptions &opts);

/**
 * Batch front-end over a SolveScheduler. Holds the machine, the
 * search settings, and the scheduler (with its optional solution
 * cache, shared across calls and, via its journal, across runs).
 * Thread-safe: concurrent optimize() calls only share the
 * SolveScheduler and its SolutionCache, which are themselves
 * thread-safe.
 */
class NetworkOptimizer
{
  public:
    /**
     * @param machine    target machine description
     * @param opts       search settings applied to every layer
     * @param cache      optional solution cache (not owned; may be
     *                   null) for the scheduler this optimizer builds
     *                   when @p scheduler is null; an injected
     *                   scheduler brings its own
     * @param scheduler  optional single-flight solve scheduler (not
     *                   owned), shared with other front ends so their
     *                   duplicate requests coalesce. It must be built
     *                   from the same machine and settings (checked).
     *                   When null, the optimizer owns a budget-1
     *                   scheduler over (@p machine, @p opts, @p cache):
     *                   one solve at a time at the full pool width.
     */
    NetworkOptimizer(const MachineSpec &machine,
                     const OptimizerOptions &opts,
                     SolutionCache *cache = nullptr,
                     SolveScheduler *scheduler = nullptr);

    /**
     * Optimize every layer of @p net (in order, repeats allowed),
     * giving up at @p dl: when the deadline expires with solves still
     * outstanding, throws DeadlineExceeded. The abandoned flights keep
     * running on the scheduler and land in the cache, so a retry of
     * the same network converges instead of starting over.
     */
    NetworkPlan optimize(const std::vector<ConvProblem> &net,
                         Deadline dl = Deadline::never()) const;

    /** Optimize a frontend NetworkDef (any model the IR can express —
     *  registered builders, parsed .cfg files, inline RPC payloads) at
     *  its batch size. */
    NetworkPlan optimize(const NetworkDef &net,
                         Deadline dl = Deadline::never()) const;

    const MachineSpec &machine() const { return machine_; }
    const OptimizerOptions &options() const { return opts_; }

  private:
    MachineSpec machine_;
    OptimizerOptions opts_;
    std::unique_ptr<SolveScheduler> owned_scheduler_; //!< When none given.
    SolveScheduler *scheduler_;
};

} // namespace mopt

#endif // MOPT_SERVICE_NETWORK_OPTIMIZER_HH
