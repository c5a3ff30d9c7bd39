/**
 * @file
 * Workload plan_cold: each pass starts a fresh in-process server with
 * an empty cache, and three connections send `solve_network` for
 * resnet18, vgg16 and yolov3 at once (about 36 unique shapes). The
 * seed draws each pass's send order and which network runs at batch
 * 2 (the others at 1), balanced over groups of three passes (see
 * draw()). A run ends with a whole group, so it may outlast --seconds
 * by up to two passes. The optimizer, solver, model and solve
 * scheduler do nearly all the work; the executor does none.
 *
 * Checks (never timed): every response is ok; plan text is
 * byte-identical for a (network, batch) seen in an earlier pass; the
 * server ran exactly one solve per unique cache key; and the model
 * evaluations a batch reports repeat exactly for a batch-size draw
 * seen before (in the traced run they must also equal the sum over
 * in-process optimizeConv calls on the same shapes).
 */
#include <algorithm>
#include <array>
#include <map>
#include <set>

#include "bench.hh"
#include "common/rng.hh"
#include "common/timer.hh"
#include "frontend/registry.hh"
#include "rpc/client.hh"
#include "service/cache_key.hh"

namespace perfbench {

namespace {

using namespace mopt;

constexpr int kNets = 3;

/** One pass's seeded inputs. */
struct Draw
{
    std::vector<int> order{0, 1, 2};
    std::array<std::int64_t, kNets> batch{1, 1, 1};
};

/** What one pass returned. */
struct Pass
{
    double batch_s = 0;
    std::array<double, kNets> net_s{};
    std::array<RpcResponse, kNets> resp;
    SolveSchedulerStats sched;
    long evals = 0;
};

class PlanCold : public Workload
{
  public:
    explicit PlanCold(Context &ctx) : ctx_(ctx)
    {
        for (const char *n : {"resnet18", "vgg16", "yolov3"})
            nets_.push_back(networkDefByName(n));
    }

    /** Server start and connection set-up are cheap, so take the
     *  median of many. */
    int defaultSetupReps() const override { return 31; }

    double
    setup() override
    {
        Timer t;
        SolutionCache cache;
        LocalServer srv(ctx_, &cache);
        connect(srv);
        const double s = t.seconds();
        set_up_ = true;
        return s;
    }

    LoopResult
    run(double seconds, Tracer *tr) override
    {
        if (!warmed_) {
            // The first cold batch of a process runs slower (first-touch
            // allocations); pay it once, checked but not timed.
            const Draw d = draw(ctx_.opt.seed, 0);
            verify(d, pass(d, nullptr));
            warmed_ = true;
        }
        std::vector<double> batch_ms, net_ms;
        double busy_s = 0;
        int peak = 0;
        Timer wall;
        std::string passes;
        do {
            const Draw d = draw(ctx_.opt.seed, passes_++);
            const Pass p = pass(d, tr);
            batch_ms.push_back(p.batch_s * 1e3);
            passes += fmt(" %.0f", p.batch_s * 1e3);
            // A network's round trip depends on its queue position, so
            // the per-pass mean over the three is the stable sample.
            net_ms.push_back((p.net_s[0] + p.net_s[1] + p.net_s[2]) / kNets *
                             1e3);
            busy_s += p.batch_s;
            peak = std::max(peak, p.sched.peak_concurrency);
            verify(d, p);
        } while (wall.seconds() < seconds || passes_ % 3 != 0);

        LoopResult r;
        r.main_ms = median(batch_ms);
        r.unit_ms = median(net_ms);
        r.ops_per_s = static_cast<double>(kNets * net_ms.size()) / busy_s;
        r.report.push_back(fmt(
            "plan_cold: %zu passes, three-network batch p50 %.1f ms, "
            "cold solve_network mean round trip p50 %.1f ms, scheduler "
            "peak %d",
            batch_ms.size(), r.main_ms, r.unit_ms, peak));
        r.report.push_back("plan_cold: batch ms by pass:" + passes);
        return r;
    }

    void
    probe(Tracer &tr, Metrics &out) override
    {
        // The first pass's inputs of this seed, solved one shape at a
        // time at full width, then as one concurrent cold batch.
        const Draw d = draw(ctx_.opt.seed, 0);
        std::vector<ConvProblem> shapes;
        std::set<std::uint64_t> seen;
        for (int i = 0; i < kNets; ++i) {
            NetworkDef def = nets_[static_cast<std::size_t>(i)];
            def.batch = d.batch[static_cast<std::size_t>(i)];
            for (const ConvProblem &p : def.lower()) {
                const CacheKey k = CacheKey::make(p, ctx_.machine, ctx_.opts);
                if (seen.insert(k.hash()).second)
                    shapes.push_back(k.problem);
            }
        }
        long evals = 0;
        const std::uint64_t req = tr.newRequest();
        for (std::size_t j = 0; j < shapes.size(); ++j) {
            Span s(&tr, "optimizer.optimize_conv", req, 0,
                   static_cast<std::int64_t>(j));
            evals += optimizeConv(shapes[j], ctx_.machine, ctx_.opts)
                         .solver_evals;
        }
        double solve_s = 0;
        for (double x : tr.durations("optimizer.optimize_conv"))
            solve_s += x;

        const Pass p = pass(d, &tr);
        verify(d, p);
        ctx_.ledger.attempt();
        ctx_.ledger.expect(p.evals == evals,
                           fmt("plan_cold: server batch reported %ld "
                               "evals, in-process solves %ld",
                               p.evals, evals));
        out["optimizer.solve_s"] = {solve_s, "s"};
        out["optimizer.evals"] = {static_cast<double>(evals), "count"};
        out["optimizer.ns_per_eval"] = {solve_s * 1e9 / evals, "ns"};
        out["scheduler.solves"] = {static_cast<double>(p.sched.solves),
                                   "count"};
        out["scheduler.coalesced"] = {
            static_cast<double>(p.sched.coalesced), "count"};
        out["scheduler.peak_concurrency"] = {
            static_cast<double>(p.sched.peak_concurrency), "count"};
        out["scheduler.speedup"] = {solve_s / p.batch_s, "ratio"};
    }

  private:
    /**
     * The inputs of pass @p i of a run: a seeded, balanced draw. Passes
     * come in groups of three whose send orders are the rotations of
     * one order, so across a group each network is sent first,
     * second and third once; the two rotation classes alternate. In
     * every pass one network runs at batch 2, each network once per
     * group; the seed shuffles both within a group. Every group thus
     * does the same work, and no batch mix splits a run's passes into
     * two equal clusters that its median would fall between.
     */
    static Draw
    draw(std::uint64_t seed, std::size_t i)
    {
        const std::size_t group = i / 3;
        Rng rng(seed * 1000003 + group);
        const bool odd = group % 2 == 1;
        std::vector<std::size_t> slots{0, 1, 2};
        std::vector<int> twos{0, 1, 2};
        rng.shuffle(slots);
        rng.shuffle(twos);
        const std::size_t r = slots[i % 3];
        Draw d;
        for (std::size_t k = 0; k < kNets; ++k) {
            const std::size_t pos = odd ? (kNets - k + r) % kNets
                                        : (k + r) % kNets;
            d.order[k] = static_cast<int>(pos);
        }
        for (int n = 0; n < kNets; ++n)
            d.batch[static_cast<std::size_t>(n)] =
                n == twos[i % 3] ? 2 : 1;
        return d;
    }

    /** Connect three clients (a ping each), so no pass times a TCP
     *  handshake. */
    std::vector<Client>
    connect(LocalServer &srv)
    {
        std::vector<Client> clients;
        for (int i = 0; i < kNets; ++i) {
            clients.emplace_back(srv.endpoint());
            RpcResponse resp;
            std::string err;
            const bool ok = clients.back().call(
                makeRequest(ctx_, RpcOp::Ping), resp, &err);
            if (!ok || !resp.ok)
                throw std::runtime_error("plan_cold: ping failed: " + err);
        }
        return clients;
    }

    /** One cold pass on a fresh server. Requests are sent in the
     *  drawn order, each from its own connection thread. */
    Pass
    pass(const Draw &d, Tracer *tr)
    {
        SolutionCache cache;
        LocalServer srv(ctx_, &cache);
        std::vector<Client> clients = connect(srv);
        Pass p;
        std::array<bool, kNets> ok{};
        std::array<std::string, kNets> err;
        std::atomic<int> turn{-1};
        const std::uint64_t req = tr ? tr->newRequest() : 0;
        Timer t0;
        {
            Span batch(tr, "plan.batch", req);
            std::vector<std::thread> threads;
            for (int k = 0; k < kNets; ++k) {
                const int i = d.order[static_cast<std::size_t>(k)];
                threads.emplace_back([&, i, k] {
                    const auto ui = static_cast<std::size_t>(i);
                    RpcRequest r = makeRequest(ctx_, RpcOp::SolveNetwork);
                    r.net = nets_[ui].name;
                    r.batch = d.batch[ui];
                    while (turn.load() != k)
                        std::this_thread::yield();
                    Span s(tr, "rpc.solve_network", req, batch.id(), i);
                    Timer rt;
                    ok[ui] = clients[ui].startCall(r, &err[ui]);
                    turn.store(k + 1);
                    if (ok[ui])
                        ok[ui] = clients[ui].waitResponse(p.resp[ui],
                                                          &err[ui]) ==
                                 Client::CallWait::Ready;
                    p.net_s[ui] = rt.seconds();
                });
            }
            t0.reset();
            turn.store(0);
            for (std::thread &th : threads)
                th.join();
            p.batch_s = t0.seconds();
        }
        p.sched = srv.server().schedulerStats();
        for (int i = 0; i < kNets; ++i) {
            const auto ui = static_cast<std::size_t>(i);
            ctx_.ledger.attempt();
            if (!ctx_.ledger.expect(ok[ui] && p.resp[ui].ok,
                                    "plan_cold: " + nets_[ui].name + ": " +
                                        err[ui] + p.resp[ui].error))
                continue;
            p.evals += p.resp[ui].solver_evals;
        }
        return p;
    }

    void
    verify(const Draw &d, const Pass &p)
    {
        std::set<std::uint64_t> keys;
        for (int i = 0; i < kNets; ++i) {
            const auto ui = static_cast<std::size_t>(i);
            NetworkDef def = nets_[ui];
            def.batch = d.batch[ui];
            for (const ConvProblem &prob : def.lower())
                keys.insert(
                    CacheKey::make(prob, ctx_.machine, ctx_.opts).hash());
            const auto id = std::make_pair(i, d.batch[ui]);
            auto [it, fresh] = plans_.emplace(id, p.resp[ui].plan_text);
            if (!fresh)
                ctx_.ledger.expect(it->second == p.resp[ui].plan_text,
                                   "plan_cold: " + def.name +
                                       " plan text changed between passes");
        }
        ctx_.ledger.expect(
            p.sched.solves == static_cast<std::int64_t>(keys.size()),
            fmt("plan_cold: %lld solves for %zu unique shapes",
                static_cast<long long>(p.sched.solves), keys.size()));
        auto [it, fresh] = evals_.emplace(d.batch, p.evals);
        if (!fresh)
            ctx_.ledger.expect(it->second == p.evals,
                               "plan_cold: model evaluations changed "
                               "between passes");
    }

    Context &ctx_;
    std::size_t passes_ = 0;
    bool warmed_ = false;
    std::vector<NetworkDef> nets_;
    std::map<std::pair<int, std::int64_t>, std::string> plans_;
    std::map<std::array<std::int64_t, kNets>, long> evals_;
};

} // namespace

std::unique_ptr<Workload>
makePlanCold(Context &ctx)
{
    return std::make_unique<PlanCold>(ctx);
}

} // namespace perfbench
