/**
 * @file
 * Shared pieces of the perfbench harness: run options, the metric map
 * the result line is built from, the failure ledger behind the
 * correctness gate, and the interface every workload implements.
 *
 * A workload owns its inputs (all drawn from the run's seed), sets
 * itself up (possibly several times, so set-up cost has a median),
 * runs a timed loop against libmopt's public functions, checks every
 * output outside the timed regions, and — in a traced run — replays
 * its layers' public calls under spans to produce per-layer metrics.
 */
#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "machine/machine.hh"
#include "optimizer/mopt_optimizer.hh"
#include "rpc/server.hh"
#include "trace.hh"

namespace perfbench {

/** Command-line options of one benchmark run. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    /** Set-ups per run (0 = the workload's own default). */
    int setup_reps = 0;
    /** Directory for traces, results and temporary journals. */
    std::string out_dir = ".bench_build/perfbench-out";
    /** The inline .cfg fixture sent by serve_mixed. */
    std::string fixture = "perfbench/fixtures/mini.cfg";
};

/** One named metric value with its unit. */
struct Metric
{
    double value = 0;
    std::string unit;
};
using Metrics = std::map<std::string, Metric>;

/**
 * Counts operations attempted and failed (errors, refusals and wrong
 * answers alike). Thread-safe; keeps the first few failure messages
 * so a failing run says why.
 */
class Ledger
{
  public:
    void attempt(std::int64_t n = 1) { attempted_ += n; }
    void fail(const std::string &why);
    /** Check @p ok; record @p why as a failure when it is false. */
    bool expect(bool ok, const std::string &why)
    {
        if (!ok)
            fail(why);
        return ok;
    }
    std::int64_t attempted() const { return attempted_.load(); }
    std::int64_t failed() const { return failed_.load(); }
    std::vector<std::string> messages() const;

  private:
    std::atomic<std::int64_t> attempted_{0};
    std::atomic<std::int64_t> failed_{0};
    mutable std::mutex mu_;
    std::vector<std::string> messages_;
};

/** State every workload shares. */
struct Context
{
    Options opt;
    mopt::MachineSpec machine;   //!< The CLI's default target ("i7").
    mopt::OptimizerOptions opts; //!< Shipped defaults.
    int nproc = 1;
    Ledger ledger;
};

/** What one timed loop measured. */
struct LoopResult
{
    double main_ms = 0;   //!< Median of the headline operation.
    double unit_ms = 0;   //!< Median of the workload's unit request.
    double ops_per_s = 0; //!< Requests completed per timed second.
    std::vector<std::string> report; //!< Human-readable lines.
};

/** The interface of a workload; see the file comment. */
class Workload
{
  public:
    virtual ~Workload() = default;
    /** Set-ups per run when --setup-reps is not given. */
    virtual int defaultSetupReps() const { return 3; }
    /** One complete set-up, replacing any earlier one; returns the
     *  seconds that count as set-up time. */
    virtual double setup() = 0;
    /** Timed loop of @p seconds; spans go to @p tr when non-null. */
    virtual LoopResult run(double seconds, Tracer *tr) = 0;
    /** Correctness checks that must follow a run (not timed). */
    virtual void check() {}
    /** Replay this workload's layer calls under spans. */
    virtual void probe(Tracer &tr, Metrics &out) = 0;
    bool isSetUp() const { return set_up_; }

  protected:
    bool set_up_ = false;
};

/**
 * An in-process moptd with the shipped ServerOptions on an ephemeral
 * loopback port: started on construction, serving on its own thread,
 * stopped and joined on destruction.
 */
class LocalServer
{
  public:
    LocalServer(const Context &ctx, mopt::SolutionCache *cache);
    ~LocalServer();
    LocalServer(const LocalServer &) = delete;
    LocalServer &operator=(const LocalServer &) = delete;

    mopt::RpcEndpoint endpoint() const;
    mopt::Server &server() { return server_; }

  private:
    mopt::Server server_;
    std::thread thread_;
};

/** A request for @p op carrying the context's CacheKey fingerprints. */
mopt::RpcRequest makeRequest(const Context &ctx, mopt::RpcOp op);

std::unique_ptr<Workload> makeExecResnet18(Context &ctx);
std::unique_ptr<Workload> makePlanCold(Context &ctx);
std::unique_ptr<Workload> makeServeMixed(Context &ctx);

/** Names of the workloads, in BENCHMARK.json order. */
const std::vector<std::string> &workloadNames();
std::unique_ptr<Workload> makeWorkload(const std::string &name,
                                       Context &ctx);

/** Linear-interpolated quantile (q in [0,1]) of a non-empty sample. */
double quantile(std::vector<double> xs, double q);
inline double median(std::vector<double> xs)
{
    return quantile(std::move(xs), 0.5);
}

/** Host and build fingerprint as one JSON object. */
std::string fingerprintJson();

/** printf into a std::string. */
std::string fmt(const char *f, ...) __attribute__((format(printf, 1, 2)));

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
