/**
 * @file
 * Workload serve_mixed: one in-process server whose cache is journaled
 * to a temporary directory. Set-up pre-warms it over RPC with the 32
 * Table-1 operators, resnet18, vgg16, yolov3 and an inline .cfg
 * fixture. Then a closed loop over nproc connections (each with its
 * own generator thread; callers block on a plan, as compilers do)
 * sends a seeded mix:
 *
 *  - about 95% `solve` hits, drawn Zipf-like from the warm keys;
 *  - about 5% warm `solve_network`, naming a registered network or
 *    carrying the fixture inline;
 *  - a fixed number of `solve` misses (0.8 per timed second) on novel
 *    seeded shapes, due at evenly spaced times. Each solves, inserts
 *    and appends to the journal while the reads go on.
 *
 * Checks (never timed): every hit returns the set-up solution for its
 * key; every network answer is byte-identical to the set-up plan
 * text; a miss reports cache=miss, and asking again then hits with the
 * same solution.
 */
#include <cmath>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <unistd.h>

#include "bench.hh"
#include "common/rng.hh"
#include "common/timer.hh"
#include "conv/workloads.hh"
#include "frontend/cfg_parser.hh"
#include "frontend/registry.hh"
#include "model/multi_level.hh"
#include "rpc/client.hh"
#include "service/cache_key.hh"
#include "service/network_optimizer.hh"

namespace perfbench {

namespace {

using namespace mopt;

namespace fs = std::filesystem;

/** Share of requests that are warm solve_network calls. */
constexpr double kNetShare = 0.05;
/** Misses per timed second. */
constexpr double kMissesPerSecond = 0.8;

struct WarmKey
{
    CacheKey key;
    CachedSolution sol;
};

/** One kind of warm network request and its set-up answer. */
struct NetKind
{
    std::string label;
    RpcRequest req;
    std::string plan;
};

/** Per-connection latency samples. */
struct Samples
{
    std::vector<double> hit_us, miss_ms;
    std::vector<std::vector<double>> net_ms; //!< By NetKind.
    std::vector<std::int64_t> per_second;    //!< Completions by second.
    std::int64_t done = 0;
};

class ServeMixed : public Workload
{
  public:
    explicit ServeMixed(Context &ctx)
        : ctx_(ctx), miss_rng_(ctx.opt.seed ^ 0x6d697373ull)
    {
    }

    ~ServeMixed() override { teardown(); }

    double
    setup() override
    {
        teardown();
        dir_ = fs::path(ctx_.opt.out_dir) /
               fmt("serve-%d-%d", static_cast<int>(getpid()), setups_++);
        fs::create_directories(dir_);
        std::ifstream f(ctx_.opt.fixture);
        if (!f)
            throw std::runtime_error("serve_mixed: cannot read fixture " +
                                     ctx_.opt.fixture);
        std::ostringstream text;
        text << f.rdbuf();
        fixture_text_ = text.str();

        Timer t;
        SolutionCacheOptions co;
        co.journal_path = (dir_ / "journal.jsonl").string();
        cache_ = std::make_unique<SolutionCache>(co);
        srv_ = std::make_unique<LocalServer>(ctx_, cache_.get());
        Client c(srv_->endpoint());
        warm_.clear();
        nets_.clear();
        for (const ConvProblem &p : allWorkloads()) {
            RpcRequest req = makeRequest(ctx_, RpcOp::Solve);
            req.problem = p;
            const RpcResponse resp = call(c, req, "pre-warm " + p.name);
            addWarm(resp.solve.key, resp.solve.sol);
        }
        for (const std::string &n : registeredNetworkNames()) {
            RpcRequest req = makeRequest(ctx_, RpcOp::SolveNetwork);
            req.net = n;
            nets_.push_back({n, req, ""});
        }
        RpcRequest ir = makeRequest(ctx_, RpcOp::SolveNetwork);
        ir.ir = parseCfgText(fixture_text_, ctx_.opt.fixture);
        ir.has_ir = true;
        nets_.push_back({"inline:" + ir.ir.name, ir, ""});
        for (NetKind &nk : nets_) {
            const RpcResponse resp = call(c, nk.req, "pre-warm " + nk.label);
            nk.plan = resp.plan_text;
            for (const RpcSolveResult &l : resp.layers)
                addWarm(l.key, l.sol);
        }
        const double s = t.seconds();

        // Zipf(1) weights over a seeded ranking of the warm keys.
        Rng rng(ctx_.opt.seed);
        std::vector<std::size_t> rank(warm_.size());
        for (std::size_t i = 0; i < rank.size(); ++i)
            rank[i] = i;
        rng.shuffle(rank);
        zipf_.assign(warm_.size(), 0);
        zipf_cdf_.clear();
        double total = 0;
        for (std::size_t r = 0; r < rank.size(); ++r) {
            total += 1.0 / static_cast<double>(r + 1);
            zipf_cdf_.push_back(total);
            zipf_[r] = rank[r];
        }
        for (double &x : zipf_cdf_)
            x /= total;
        set_up_ = true;
        return s;
    }

    LoopResult
    run(double seconds, Tracer *tr) override
    {
        const int misses = std::max(
            1, static_cast<int>(std::lround(kMissesPerSecond * seconds)));
        std::vector<ConvProblem> novel;
        for (int i = 0; i < misses; ++i)
            novel.push_back(novelShape());
        const std::int64_t hits0 = cache_->stats().hits;
        const std::int64_t miss0 = cache_->stats().misses;

        std::vector<Samples> samples(static_cast<std::size_t>(ctx_.nproc));
        for (Samples &sm : samples)
            sm.net_ms.resize(nets_.size());
        std::atomic<int> ready{0}, next_miss{0};
        std::atomic<bool> go{false};
        std::vector<std::thread> threads;
        Timer start;
        const std::uint64_t run_id = runs_++;
        for (int t = 0; t < ctx_.nproc; ++t) {
            threads.emplace_back([&, t] {
                Samples &out = samples[static_cast<std::size_t>(t)];
                Rng rng(ctx_.opt.seed * 7919 + run_id * 131 +
                        static_cast<std::uint64_t>(t));
                Client c(srv_->endpoint());
                RpcResponse pong;
                c.call(makeRequest(ctx_, RpcOp::Ping), pong);
                ++ready;
                while (!go.load())
                    std::this_thread::yield();
                while (start.seconds() < seconds) {
                    int m = next_miss.load();
                    if (m < misses &&
                        start.seconds() >= (m + 0.5) * seconds / misses &&
                        next_miss.compare_exchange_strong(m, m + 1)) {
                        doMiss(c, novel[static_cast<std::size_t>(m)], tr,
                               out);
                    } else if (rng.uniform01() < kNetShare) {
                        doNet(c, rng.index(nets_.size()), tr, out);
                    } else {
                        doHit(c, drawZipf(rng), tr, out);
                    }
                    ++out.done;
                    const auto sec = static_cast<std::size_t>(start.seconds());
                    if (out.per_second.size() <= sec)
                        out.per_second.resize(sec + 1);
                    ++out.per_second[sec];
                }
            });
        }
        while (ready.load() < ctx_.nproc)
            std::this_thread::yield();
        start.reset();
        go.store(true);
        for (std::thread &th : threads)
            th.join();
        const double elapsed = start.seconds();

        const auto append = [](std::vector<double> &to,
                               const std::vector<double> &from) {
            to.insert(to.end(), from.begin(), from.end());
        };
        Samples all;
        all.net_ms.resize(nets_.size());
        std::vector<double> net_ms;
        for (const Samples &s : samples) {
            for (std::size_t k = 0; k < nets_.size(); ++k) {
                append(all.net_ms[k], s.net_ms[k]);
                append(net_ms, s.net_ms[k]);
            }
            append(all.hit_us, s.hit_us);
            append(all.miss_ms, s.miss_ms);
            all.done += s.done;
            if (all.per_second.size() < s.per_second.size())
                all.per_second.resize(s.per_second.size());
            for (std::size_t i = 0; i < s.per_second.size(); ++i)
                all.per_second[i] += s.per_second[i];
        }
        const SolutionCacheStats cs = cache_->stats();
        hit_ratio_ = static_cast<double>(cs.hits - hits0) /
                     static_cast<double>(cs.hits - hits0 + cs.misses - miss0);
        LoopResult r;
        r.main_ms = median(all.hit_us) * 1e-3;
        r.unit_ms = median(net_ms);
        r.ops_per_s = static_cast<double>(all.done) / elapsed;
        r.report.push_back(fmt(
            "serve_mixed: %lld requests in %.2f s over %d connections: "
            "%.0f req/s",
            static_cast<long long>(all.done), elapsed, ctx_.nproc,
            r.ops_per_s));
        r.report.push_back(fmt(
            "serve_mixed: solve hit p50 %.1f us p99 %.1f us (%zu); "
            "solve_network hit p50 %.3f ms (%zu); miss p50 %.1f ms (%zu)",
            quantile(all.hit_us, 0.5), quantile(all.hit_us, 0.99),
            all.hit_us.size(), r.unit_ms, net_ms.size(),
            median(all.miss_ms), all.miss_ms.size()));
        std::string kinds;
        for (std::size_t k = 0; k < nets_.size(); ++k)
            kinds += fmt(" %s %.3f ms (%zu)", nets_[k].label.c_str(),
                         median(all.net_ms[k]), all.net_ms[k].size());
        r.report.push_back("serve_mixed: solve_network hit p50 by network:" +
                           kinds);
        std::string secs;
        for (std::int64_t n : all.per_second)
            secs += fmt(" %lld", static_cast<long long>(n));
        r.report.push_back("serve_mixed: completions by second:" + secs);
        r.report.push_back(fmt("serve_mixed: cache hit ratio %.5f over "
                               "the run, %zu warm keys",
                               hit_ratio_, warm_.size()));
        return r;
    }

    void
    probe(Tracer &tr, Metrics &out) override
    {
        // A short replay of the mix yields the cache's hit ratio.
        run(0.5, &tr);
        out["cache.hit_ratio"] = {hit_ratio_, "ratio"};

        Rng rng(ctx_.opt.seed);
        constexpr int kBatch = 2000;
        for (int b = 0; b < 20; ++b) {
            std::vector<const CacheKey *> keys;
            for (int i = 0; i < kBatch; ++i)
                keys.push_back(&warm_[drawZipf(rng)].key);
            CachedSolution sol;
            int found = 0;
            {
                Span s(&tr, "cache.lookup", tr.newRequest(), 0, kBatch);
                for (const CacheKey *k : keys)
                    found += cache_->lookup(*k, &sol) ? 1 : 0;
            }
            ctx_.ledger.attempt();
            ctx_.ledger.expect(found == kBatch, "cache: warm key missing");
        }
        out["cache.lookup_us"] = {perCallUs(tr, "cache.lookup", kBatch),
                                  "us"};

        for (int b = 0; b < 10; ++b) {
            SolutionCacheOptions co;
            co.journal_path = (dir_ / fmt("insert-%d.jsonl", b)).string();
            SolutionCache fresh(co);
            Span s(&tr, "cache.insert", tr.newRequest(), 0,
                   static_cast<std::int64_t>(warm_.size()));
            for (const WarmKey &w : warm_)
                fresh.insert(w.key, w.sol);
        }
        out["cache.insert_us"] = {
            perCallUs(tr, "cache.insert", static_cast<double>(warm_.size())),
            "us"};

        double sink = 0;
        for (int b = 0; b < 20; ++b) {
            Span s(&tr, "model.eval", tr.newRequest(), 0,
                   static_cast<std::int64_t>(warm_.size()));
            for (const WarmKey &w : warm_)
                sink += evalMultiLevel(w.sol.config, w.key.problem,
                                       ctx_.machine, ctx_.opts.parallel)
                            .total_seconds;
        }
        out["model.eval_us"] = {
            perCallUs(tr, "model.eval", static_cast<double>(warm_.size())),
            "us"};
        ctx_.ledger.expect(sink > 0, "model: zero predicted time");

        const NetworkOptimizer netopt(ctx_.machine, ctx_.opts, cache_.get());
        const NetworkDef resnet = resnet18Def();
        for (int i = 0; i < 30; ++i) {
            NetworkPlan plan;
            {
                Span s(&tr, "netopt.optimize", tr.newRequest());
                plan = netopt.optimize(resnet);
            }
            ctx_.ledger.attempt();
            ctx_.ledger.expect(plan.str() == netPlan("resnet18") &&
                                   plan.stats.cache_misses == 0,
                               "netopt: warm resnet18 plan differs");
        }
        out["netopt.warm_ms"] = {
            median(tr.durations("netopt.optimize")) * 1e3, "ms"};

        probeProtocol(tr, out);

        Client c(srv_->endpoint());
        for (int i = 0; i < 2000; ++i) {
            RpcResponse resp;
            bool ok = false;
            {
                Span s(&tr, "rpc.ping", tr.newRequest());
                ok = c.call(makeRequest(ctx_, RpcOp::Ping), resp);
            }
            ctx_.ledger.attempt();
            ctx_.ledger.expect(ok && resp.ok, "rpc: ping failed");
        }
        out["rpc.ping_p50_us"] = {median(tr.durations("rpc.ping")) * 1e6,
                                  "us"};

        constexpr int kParses = 50;
        std::size_t layers = 0;
        for (int b = 0; b < 20; ++b) {
            Span s(&tr, "frontend.parse_cfg", tr.newRequest(), 0, kParses);
            for (int i = 0; i < kParses; ++i)
                layers += parseCfgText(fixture_text_, ctx_.opt.fixture)
                              .layers.size();
        }
        ctx_.ledger.expect(layers > 0, "frontend: fixture has no layers");
        out["frontend.cfg_parse_us"] = {
            perCallUs(tr, "frontend.parse_cfg", kParses), "us"};
    }

  private:
    void
    teardown()
    {
        srv_.reset();
        cache_.reset();
        if (!dir_.empty()) {
            std::error_code ec;
            fs::remove_all(dir_, ec);
            dir_.clear();
        }
    }

    RpcResponse
    call(Client &c, const RpcRequest &req, const std::string &what)
    {
        RpcResponse resp;
        std::string err;
        if (!c.call(req, resp, &err) || !resp.ok)
            throw std::runtime_error("serve_mixed: " + what + " failed: " +
                                     err + resp.error);
        return resp;
    }

    void
    addWarm(const CacheKey &key, const CachedSolution &sol)
    {
        for (const WarmKey &w : warm_)
            if (w.key == key)
                return;
        warm_.push_back({key, sol});
    }

    std::size_t
    drawZipf(Rng &rng) const
    {
        const auto it = std::lower_bound(zipf_cdf_.begin(), zipf_cdf_.end(),
                                         rng.uniform01());
        const auto r = static_cast<std::size_t>(it - zipf_cdf_.begin());
        return zipf_[std::min(r, zipf_.size() - 1)];
    }

    /** A seeded shape that no warm key and no earlier miss has. */
    ConvProblem
    novelShape()
    {
        static const std::vector<std::int64_t> ch = {24, 40, 48, 56, 72,
                                                     80, 88, 96, 104, 112};
        static const std::vector<std::int64_t> img = {12, 20, 24, 28};
        for (;;) {
            const ConvProblem p = ConvProblem::fromImage(
                "novel", miss_rng_.choice(ch), miss_rng_.choice(ch),
                miss_rng_.choice(img), miss_rng_.uniformInt(0, 1) * 2 + 1);
            const CacheKey k = CacheKey::make(p, ctx_.machine, ctx_.opts);
            bool known = cache_->contains(k);
            for (const CacheKey &u : novel_)
                known = known || u == k;
            if (!known) {
                novel_.push_back(k);
                return p;
            }
        }
    }

    const std::string &
    netPlan(const std::string &label) const
    {
        for (const NetKind &nk : nets_)
            if (nk.label == label)
                return nk.plan;
        throw std::runtime_error("serve_mixed: no network " + label);
    }

    void
    doHit(Client &c, std::size_t i, Tracer *tr, Samples &out)
    {
        const WarmKey &w = warm_[i];
        RpcRequest req = makeRequest(ctx_, RpcOp::Solve);
        req.problem = w.key.problem;
        RpcResponse resp;
        std::string err;
        bool ok = false;
        Timer t;
        {
            Span s(tr, "rpc.solve_hit", tr ? tr->newRequest() : 0, 0,
                   static_cast<std::int64_t>(i));
            ok = c.call(req, resp, &err);
        }
        out.hit_us.push_back(t.seconds() * 1e6);
        ctx_.ledger.attempt();
        ctx_.ledger.expect(ok && resp.ok && resp.solve.cache_hit &&
                               resp.solve.key == w.key &&
                               resp.solve.sol == w.sol,
                           "serve: hit " + w.key.str() + " wrong: " + err +
                               resp.error);
    }

    void
    doNet(Client &c, std::size_t i, Tracer *tr, Samples &out)
    {
        const NetKind &nk = nets_[i];
        RpcResponse resp;
        std::string err;
        bool ok = false;
        Timer t;
        {
            Span s(tr, "rpc.solve_network", tr ? tr->newRequest() : 0, 0,
                   static_cast<std::int64_t>(i));
            ok = c.call(nk.req, resp, &err);
        }
        out.net_ms[i].push_back(t.milliseconds());
        ctx_.ledger.attempt();
        ctx_.ledger.expect(ok && resp.ok && resp.plan_text == nk.plan &&
                               resp.cache_misses == 0,
                           "serve: network " + nk.label + " wrong: " + err +
                               resp.error);
    }

    void
    doMiss(Client &c, const ConvProblem &p, Tracer *tr, Samples &out)
    {
        RpcRequest req = makeRequest(ctx_, RpcOp::Solve);
        req.problem = p;
        RpcResponse resp;
        std::string err;
        bool ok = false;
        Timer t;
        {
            Span s(tr, "rpc.solve_miss", tr ? tr->newRequest() : 0);
            ok = c.call(req, resp, &err);
        }
        out.miss_ms.push_back(t.milliseconds());
        ctx_.ledger.attempt();
        if (!ctx_.ledger.expect(ok && resp.ok && !resp.solve.cache_hit,
                                "serve: miss " + p.summary() +
                                    " not solved cold: " + err + resp.error))
            return;
        // Not timed: the solved shape must now be a hit.
        RpcResponse again;
        ctx_.ledger.attempt();
        ctx_.ledger.expect(c.call(req, again, &err) && again.ok &&
                               again.solve.cache_hit &&
                               again.solve.sol == resp.solve.sol,
                           "serve: miss " + p.summary() +
                               " did not hit afterwards");
    }

    /** Encode + decode of the workload's own messages. */
    void
    probeProtocol(Tracer &tr, Metrics &out)
    {
        RpcRequest solve = makeRequest(ctx_, RpcOp::Solve);
        solve.problem = warm_[zipf_[0]].key.problem;
        const RpcResponse solve_resp = srv_->server().handle(solve);
        const RpcResponse net_resp =
            srv_->server().handle(nets_.front().req);
        ctx_.ledger.attempt();
        ctx_.ledger.expect(solve_resp.ok && net_resp.ok,
                           "protocol: in-process handle() failed");
        constexpr int kReps = 200;
        for (int b = 0; b < 20; ++b) {
            RpcRequest rq;
            RpcResponse rs;
            std::size_t bytes = 0;
            {
                Span s(&tr, "protocol.solve_req", tr.newRequest(), 0, kReps);
                for (int i = 0; i < kReps; ++i) {
                    const std::string line = requestToJsonLine(solve);
                    bytes += line.size();
                    requestFromJsonLine(line, rq, nullptr);
                }
            }
            {
                Span s(&tr, "protocol.solve_resp", tr.newRequest(), 0,
                       kReps);
                for (int i = 0; i < kReps; ++i)
                    responseFromJsonLine(responseToJsonLine(solve_resp), rs,
                                         nullptr);
            }
            ctx_.ledger.expect(rs.solve.sol == solve_resp.solve.sol &&
                                   rq.problem == solve.problem && bytes > 0,
                               "protocol: solve round trip differs");
            {
                Span s(&tr, "protocol.net_resp", tr.newRequest(), 0, kReps);
                for (int i = 0; i < kReps; ++i)
                    responseFromJsonLine(responseToJsonLine(net_resp), rs,
                                         nullptr);
            }
            ctx_.ledger.expect(rs.plan_text == net_resp.plan_text,
                               "protocol: network round trip differs");
        }
        out["protocol.solve_req_us"] = {
            perCallUs(tr, "protocol.solve_req", kReps), "us"};
        out["protocol.solve_resp_us"] = {
            perCallUs(tr, "protocol.solve_resp", kReps), "us"};
        out["protocol.net_resp_us"] = {
            perCallUs(tr, "protocol.net_resp", kReps), "us"};
    }

    /** Median span duration of @p name divided by the calls it held. */
    static double
    perCallUs(const Tracer &tr, const char *name, double calls)
    {
        return median(tr.durations(name)) * 1e6 / calls;
    }

    Context &ctx_;
    Rng miss_rng_;
    int setups_ = 0;
    std::uint64_t runs_ = 0;
    fs::path dir_;
    std::string fixture_text_;
    std::unique_ptr<SolutionCache> cache_;
    std::unique_ptr<LocalServer> srv_; //!< Destroyed before cache_.
    std::vector<WarmKey> warm_;
    std::vector<std::size_t> zipf_;  //!< Rank -> warm_ index.
    std::vector<double> zipf_cdf_;   //!< Cumulative Zipf weight by rank.
    std::vector<NetKind> nets_;
    std::vector<CacheKey> novel_;
    double hit_ratio_ = 0;
};

} // namespace

std::unique_ptr<Workload>
makeServeMixed(Context &ctx)
{
    return std::make_unique<ServeMixed>(ctx);
}

} // namespace perfbench
