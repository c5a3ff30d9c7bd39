/**
 * @file
 * Workload exec_resnet18: run the 20 convs of ResNet-18 (batch 1,
 * 224x224) for repeated whole-network passes, each layer under its
 * top-1 plan from NetworkOptimizer, on nproc executor threads. Plans
 * are solved and tensors filled from the seed during set-up, so the
 * timed loop is pure execution: microkernel, tile walkers, the
 * per-call thread pool and kernel packing.
 *
 * Checks (never timed): every pass reproduces the first pass's output
 * bit for bit, and each layer's output matches conv/reference within
 * |out - ref| <= 1e-4 * sqrt(C/groups * R * S) (inputs are uniform in
 * [-1, 1), so that is a few hundred fp32 ulps of the typical sum).
 */
#include <cmath>
#include <limits>

#include "baselines/heuristic_lib.hh"
#include "bench.hh"
#include "common/rng.hh"
#include "common/stats.hh"
#include "common/timer.hh"
#include "conv/reference.hh"
#include "exec/conv_exec.hh"
#include "frontend/registry.hh"
#include "service/cache_key.hh"
#include "service/network_optimizer.hh"

namespace perfbench {

namespace {

using namespace mopt;

struct Layer
{
    ConvProblem p;
    ExecConfig cfg;
    double predicted_s = 0;
    Tensor4 in, ker, out;
    double checksum = std::numeric_limits<double>::quiet_NaN();
    std::size_t shape = 0; //!< Index into ExecResnet18::shapes_.
};

/** Computed (not measured) minimum traffic: input + kernel + output. */
double
minBytes(const ConvProblem &p)
{
    return 4.0 * static_cast<double>(p.inSize() + p.kerSize() +
                                     p.outSize());
}

double
checksum(const Tensor4 &t)
{
    double s = 0;
    const float *d = t.data();
    for (std::int64_t i = 0; i < t.size(); ++i)
        s += d[i];
    return s;
}

double
tolerance(const ConvProblem &p)
{
    return 1e-4 * std::sqrt(static_cast<double>(p.cPerGroup() * p.r * p.s));
}

class ExecResnet18 : public Workload
{
  public:
    explicit ExecResnet18(Context &ctx) : ctx_(ctx) {}

    double
    setup() override
    {
        Timer t;
        SolutionCache cache;
        NetworkOptimizer netopt(ctx_.machine, ctx_.opts, &cache);
        const NetworkPlan plan = netopt.optimize(resnet18Def());
        Rng rng(ctx_.opt.seed);
        layers_.clear();
        shapes_.clear();
        for (const LayerPlan &lp : plan.layers) {
            Layer l;
            l.p = lp.problem;
            l.cfg = lp.best.config;
            l.predicted_s = lp.best.predicted.total_seconds;
            l.in = makeInput(l.p);
            l.ker = makeKernel(l.p);
            l.out = makeOutput(l.p);
            l.in.fillRandom(rng);
            l.ker.fillRandom(rng);
            const ConvProblem canon = CacheKey::canonicalProblem(l.p);
            l.shape = shapes_.size();
            for (std::size_t s = 0; s < shapes_.size(); ++s)
                if (CacheKey::canonicalProblem(
                        layers_[shapes_[s]].p) == canon)
                    l.shape = s;
            if (l.shape == shapes_.size())
                shapes_.push_back(layers_.size());
            layers_.push_back(std::move(l));
        }
        set_up_ = true;
        checked_ = false;
        return t.seconds();
    }

    LoopResult
    run(double seconds, Tracer *tr) override
    {
        std::vector<double> pass_ms;
        std::vector<std::vector<double>> call_ms(layers_.size());
        double busy_s = 0;
        std::string passes;
        Timer wall;
        do {
            const std::uint64_t req = tr ? tr->newRequest() : 0;
            Timer pass;
            {
                Span ps(tr, "exec.pass", req);
                for (std::size_t i = 0; i < layers_.size(); ++i) {
                    Timer call;
                    runLayer(i, tr, req, ps.id(), nullptr);
                    call_ms[i].push_back(call.milliseconds());
                }
            }
            pass_ms.push_back(pass.milliseconds());
            passes += fmt(" %.0f", pass_ms.back());
            busy_s += pass.seconds();
            ctx_.ledger.attempt(static_cast<std::int64_t>(layers_.size()));
            verifyPass();
        } while (wall.seconds() < seconds);

        // The unit is one layer call: the median over layers of each
        // layer's median call time (pooling all calls would mix 4 ms
        // and 60 ms layers into one bimodal sample).
        std::vector<double> layer_ms;
        for (const std::vector<double> &c : call_ms)
            layer_ms.push_back(median(c));
        LoopResult r;
        r.main_ms = median(pass_ms);
        r.unit_ms = median(layer_ms);
        r.ops_per_s =
            static_cast<double>(pass_ms.size() * layers_.size()) / busy_s;
        double flops = 0;
        for (const Layer &l : layers_)
            flops += l.p.flops();
        r.report.push_back(fmt(
            "exec_resnet18: %zu passes, pass p50 %.3f ms (%.3f GFLOP/s), "
            "layer call p50 %.3f ms, %d executor threads",
            pass_ms.size(), r.main_ms, flops / (r.main_ms * 1e-3) / 1e9,
            r.unit_ms, ctx_.nproc));
        r.report.push_back("exec_resnet18: pass ms by pass:" + passes);
        return r;
    }

    void
    check() override
    {
        for (Layer &l : layers_) {
            Tensor4 ref = makeOutput(l.p);
            referenceConv(l.p, l.in, l.ker, ref);
            const double err = Tensor4::maxAbsDiff(l.out, ref);
            ctx_.ledger.attempt();
            ctx_.ledger.expect(
                err <= tolerance(l.p),
                fmt("exec: %s differs from conv/reference by %g (tol %g)",
                    l.p.name.c_str(), err, tolerance(l.p)));
        }
        checked_ = true;
    }

    void
    probe(Tracer &tr, Metrics &out) override
    {
        // Interleave heuristic and MOpt passes so drift hits both
        // alike; the heuristic writes its own outputs, checked against
        // the MOpt ones below.
        std::vector<ExecConfig> heur;
        std::vector<Tensor4> heur_out;
        for (const Layer &l : layers_) {
            heur.push_back(heuristicConfig(l.p, ctx_.machine));
            heur_out.push_back(makeOutput(l.p));
        }
        std::vector<double> mopt_ms, heur_ms, pack_ms;
        for (int rep = 0; rep < 3; ++rep) {
            const std::uint64_t hreq = tr.newRequest();
            Timer ht;
            {
                Span ps(&tr, "baselines.pass", hreq);
                for (std::size_t i = 0; i < layers_.size(); ++i) {
                    const Layer &l = layers_[i];
                    Span s(&tr, "baselines.run_conv", hreq, ps.id(),
                           static_cast<std::int64_t>(i));
                    runConv(l.p, l.in, l.ker, heur_out[i], heur[i],
                            ctx_.nproc);
                }
            }
            heur_ms.push_back(ht.milliseconds());

            const std::uint64_t req = tr.newRequest();
            double pack_s = 0;
            Timer mt;
            {
                Span ps(&tr, "exec.pass", req);
                for (std::size_t i = 0; i < layers_.size(); ++i)
                    runLayer(i, &tr, req, ps.id(), &pack_s);
            }
            mopt_ms.push_back(mt.milliseconds());
            pack_ms.push_back(pack_s * 1e3);
            verifyPass();
        }
        if (!checked_)
            check();
        for (std::size_t i = 0; i < layers_.size(); ++i) {
            const Layer &l = layers_[i];
            const double err = Tensor4::maxAbsDiff(heur_out[i], l.out);
            ctx_.ledger.attempt();
            ctx_.ledger.expect(err <= 2 * tolerance(l.p),
                               fmt("baselines: %s heuristic output off "
                                   "by %g",
                                   l.p.name.c_str(), err));
        }

        // Per unique shape: measured time from the run_conv spans of
        // every layer with that shape, plus computed counts.
        std::vector<double> shape_s(shapes_.size()), shape_pred(
                                                         shapes_.size());
        for (std::size_t s = 0; s < shapes_.size(); ++s) {
            std::vector<double> d;
            for (std::size_t i = 0; i < layers_.size(); ++i)
                if (layers_[i].shape == s)
                    for (double x : tr.durations(
                             "exec.run_conv", static_cast<std::int64_t>(i)))
                        d.push_back(x);
            const Layer &first = layers_[shapes_[s]];
            shape_s[s] = median(d);
            shape_pred[s] = first.predicted_s;
            const std::string base = "exec." + first.p.name;
            out[base + ".ms"] = {shape_s[s] * 1e3, "ms"};
            out[base + ".gflops"] = {first.p.flops() / shape_s[s] / 1e9,
                                     "GFLOP/s"};
            out[base + ".gflop"] = {first.p.flops() / 1e9, "GFLOP"};
            out[base + ".min_mb"] = {minBytes(first.p) / 1e6, "MB"};
        }
        double meas = 0, pred = 0, gflop = 0, mb = 0;
        for (const Layer &l : layers_) {
            meas += shape_s[l.shape];
            pred += l.predicted_s;
            gflop += l.p.flops() / 1e9;
            mb += minBytes(l.p) / 1e6;
        }
        out["exec.gflop"] = {gflop, "GFLOP"};
        out["exec.min_mb"] = {mb, "MB"};
        out["exec.pack_ms"] = {median(pack_ms), "ms"};
        out["exec.call_overhead_us"] = {callOverheadUs(tr), "us"};
        out["model.meas_over_pred"] = {meas / pred, "ratio"};
        out["model.rank_corr"] = {spearman(shape_s, shape_pred), "rho"};
        out["baselines.heuristic_ms"] = {median(heur_ms), "ms"};
        out["baselines.mopt_over_heuristic"] = {
            median(mopt_ms) / median(heur_ms), "ratio"};
    }

  private:
    void
    runLayer(std::size_t i, Tracer *tr, std::uint64_t req,
             std::uint64_t parent, double *pack_s)
    {
        Layer &l = layers_[i];
        Span s(tr, "exec.run_conv", req, parent,
               static_cast<std::int64_t>(i));
        const ExecStats st = runConv(l.p, l.in, l.ker, l.out, l.cfg,
                                     ctx_.nproc);
        if (pack_s)
            *pack_s += st.pack_seconds;
    }

    /** Every pass must reproduce the first pass bit for bit. */
    void
    verifyPass()
    {
        for (Layer &l : layers_) {
            const double c = checksum(l.out);
            if (std::isnan(l.checksum))
                l.checksum = c;
            else
                ctx_.ledger.expect(c == l.checksum,
                                   "exec: " + l.p.name +
                                       " output changed between passes");
        }
    }

    /** runConv on a 1x1x1 problem at nproc threads: the fixed cost of
     *  one executor call (thread pool, packing, dispatch). */
    double
    callOverheadUs(Tracer &tr)
    {
        ConvProblem p;
        p.name = "overhead";
        const ExecConfig cfg = defaultConfig(p);
        Tensor4 in = makeInput(p), ker = makeKernel(p), o = makeOutput(p);
        in.fill(1.0f);
        ker.fill(2.0f);
        constexpr int kCalls = 25;
        for (int b = 0; b < 20; ++b) {
            Span s(&tr, "exec.call_overhead", tr.newRequest(), 0, kCalls);
            for (int i = 0; i < kCalls; ++i)
                runConv(p, in, ker, o, cfg, ctx_.nproc);
        }
        ctx_.ledger.attempt();
        ctx_.ledger.expect(o.at(0, 0, 0, 0) == 2.0f,
                           "exec: 1x1x1 conv gave the wrong answer");
        return median(tr.durations("exec.call_overhead")) * 1e6 / kCalls;
    }

    Context &ctx_;
    std::vector<Layer> layers_;
    std::vector<std::size_t> shapes_; //!< First layer of each shape.
    bool checked_ = false;
};

} // namespace

std::unique_ptr<Workload>
makeExecResnet18(Context &ctx)
{
    return std::make_unique<ExecResnet18>(ctx);
}

} // namespace perfbench
