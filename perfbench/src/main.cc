/**
 * @file
 * perfbench: the repository's end-to-end benchmark harness.
 *
 *   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *             [--setup-reps <n>] [--out-dir <dir>] [--fixture <cfg>]
 *
 * Untraced (--trace 0): sets the workload up --setup-reps times (the
 * median is setup_s), runs its timed loop for --seconds, checks every
 * output, and prints the end-to-end metrics. Traced (--trace 1): runs
 * the loop half untraced and half traced (their ratio is
 * trace.overhead), then replays every layer's public calls under spans
 * and prints the per-layer metrics. The last stdout line is one JSON
 * object {"correct","attempted","failed","metrics"}; the exit code is
 * non-zero when any check failed. perfbench/run.py builds and runs it.
 */
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>

#include "bench.hh"
#include "common/logging.hh"

namespace perfbench {

void
Ledger::fail(const std::string &why)
{
    ++failed_;
    std::lock_guard<std::mutex> lk(mu_);
    if (messages_.size() < 10)
        messages_.push_back(why);
}

std::vector<std::string>
Ledger::messages() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return messages_;
}

double
quantile(std::vector<double> xs, double q)
{
    if (xs.empty())
        return 0;
    std::sort(xs.begin(), xs.end());
    const double pos = q * static_cast<double>(xs.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, xs.size() - 1);
    return xs[lo] + (pos - static_cast<double>(lo)) * (xs[hi] - xs[lo]);
}

std::string
fmt(const char *f, ...)
{
    char buf[512];
    va_list ap;
    va_start(ap, f);
    std::vsnprintf(buf, sizeof buf, f, ap);
    va_end(ap);
    return buf;
}

LocalServer::LocalServer(const Context &ctx, mopt::SolutionCache *cache)
    : server_(ctx.machine, ctx.opts, cache, mopt::ServerOptions{})
{
    std::string err;
    if (!server_.start(&err))
        throw std::runtime_error("server start failed: " + err);
    thread_ = std::thread([this] { server_.serve(); });
}

LocalServer::~LocalServer()
{
    server_.stop();
    thread_.join();
}

mopt::RpcEndpoint
LocalServer::endpoint() const
{
    return mopt::RpcEndpoint{"127.0.0.1", server_.port()};
}

mopt::RpcRequest
makeRequest(const Context &ctx, mopt::RpcOp op)
{
    mopt::RpcRequest req;
    req.op = op;
    req.machine_fp = mopt::CacheKey::machineFingerprint(ctx.machine);
    req.settings_fp = mopt::CacheKey::settingsFingerprint(ctx.opts);
    return req;
}

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "exec_resnet18", "plan_cold", "serve_mixed"};
    return names;
}

std::unique_ptr<Workload>
makeWorkload(const std::string &name, Context &ctx)
{
    if (name == "exec_resnet18")
        return makeExecResnet18(ctx);
    if (name == "plan_cold")
        return makePlanCold(ctx);
    if (name == "serve_mixed")
        return makeServeMixed(ctx);
    return nullptr;
}

namespace {

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            out += c;
    }
    return out;
}

std::string
readFirstLine(const std::string &path)
{
    std::ifstream f(path);
    std::string line;
    std::getline(f, line);
    return line;
}

/** Cache sizes of cpu0 from sysfs ("unknown" when unreadable). */
std::string
cacheSize(int level, const char *type)
{
    for (int i = 0; i < 16; ++i) {
        const std::string dir =
            fmt("/sys/devices/system/cpu/cpu0/cache/index%d/", i);
        if (readFirstLine(dir + "level") == std::to_string(level) &&
            readFirstLine(dir + "type") == type)
            return readFirstLine(dir + "size");
    }
    return "unknown";
}

std::string
cpuModel()
{
    std::ifstream f("/proc/cpuinfo");
    std::string line;
    while (std::getline(f, line))
        if (line.rfind("model name", 0) == 0) {
            const auto colon = line.find(':');
            return colon == std::string::npos ? line
                                              : line.substr(colon + 2);
        }
    return "unknown";
}

} // namespace

std::string
fingerprintJson()
{
    __builtin_cpu_init();
#if defined(__AVX2__)
    const bool avx2_build = true;
#else
    const bool avx2_build = false;
#endif
    std::ostringstream o;
    o << "{\"cpu\":\"" << jsonEscape(cpuModel()) << "\""
      << ",\"nproc\":" << std::thread::hardware_concurrency()
      << ",\"l1d\":\"" << cacheSize(1, "Data") << "\""
      << ",\"l2\":\"" << cacheSize(2, "Unified") << "\""
      << ",\"l3\":\"" << cacheSize(3, "Unified") << "\""
      << ",\"cpu_avx2\":" << (__builtin_cpu_supports("avx2") ? 1 : 0)
      << ",\"cpu_fma\":" << (__builtin_cpu_supports("fma") ? 1 : 0)
      << ",\"cpu_avx512f\":"
      << (__builtin_cpu_supports("avx512f") ? 1 : 0)
      << ",\"compiler\":\"" << jsonEscape(__VERSION__) << "\""
      << ",\"build_type\":\"" << PERFBENCH_BUILD_TYPE << "\""
      << ",\"cxx_flags\":\"" << jsonEscape(PERFBENCH_CXX_FLAGS) << "\""
      << ",\"avx2_build\":" << (avx2_build ? 1 : 0) << "}";
    return o.str();
}

namespace {

[[noreturn]] void
usage(const std::string &msg)
{
    std::cerr << "perfbench: " << msg << "\n"
              << "usage: perfbench --workload <exec_resnet18|plan_cold|"
                 "serve_mixed> --seed <n> --seconds <s> --trace <0|1> "
                 "[--setup-reps <n>] [--out-dir <dir>] [--fixture <cfg>]\n";
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + a);
        const std::string v = argv[++i];
        try {
            if (a == "--workload")
                o.workload = v;
            else if (a == "--seed")
                o.seed = std::stoull(v);
            else if (a == "--seconds")
                o.seconds = std::stod(v);
            else if (a == "--trace")
                o.trace = std::stoi(v) != 0;
            else if (a == "--setup-reps")
                o.setup_reps = std::stoi(v);
            else if (a == "--out-dir")
                o.out_dir = v;
            else if (a == "--fixture")
                o.fixture = v;
            else
                usage("unknown flag " + a);
        } catch (const std::exception &) {
            usage("bad value for " + a + ": " + v);
        }
    }
    if (o.seconds <= 0)
        usage("--seconds must be positive");
    return o;
}

std::string
metricsJson(const Metrics &m)
{
    std::ostringstream o;
    o << "{";
    bool first = true;
    for (const auto &[name, met] : m) {
        o << (first ? "" : ", ") << "\"" << name << "\": {\"value\": "
          << fmt("%.12g", met.value) << ", \"unit\": \"" << met.unit
          << "\"}";
        first = false;
    }
    o << "}";
    return o.str();
}

int
runBench(const Options &opt)
{
    Context ctx;
    ctx.opt = opt;
    ctx.machine = mopt::machineByName("i7");
    ctx.nproc = static_cast<int>(
        std::max(1u, std::thread::hardware_concurrency()));
    std::filesystem::create_directories(opt.out_dir);

    std::unique_ptr<Workload> w = makeWorkload(opt.workload, ctx);
    if (!w)
        usage("unknown workload \"" + opt.workload + "\"");
    const std::string fp = fingerprintJson();
    std::cout << "fingerprint: " << fp << "\n";
    std::cout << fmt("workload: %s seed %llu seconds %g trace %d\n",
                     opt.workload.c_str(),
                     static_cast<unsigned long long>(opt.seed),
                     opt.seconds, opt.trace ? 1 : 0)
              << std::flush;

    Metrics m;
    LoopResult r;
    if (!opt.trace) {
        const int reps =
            opt.setup_reps > 0 ? opt.setup_reps : w->defaultSetupReps();
        std::vector<double> setups;
        for (int i = 0; i < reps; ++i)
            setups.push_back(w->setup());
        r = w->run(opt.seconds, nullptr);
        w->check();
        m["setup_s"] = {median(setups), "s"};
        m["main_p50_ms"] = {r.main_ms, "ms"};
        m["unit_p50_ms"] = {r.unit_ms, "ms"};
        m["ops_per_s"] = {r.ops_per_s, "1/s"};
        std::cout << fmt("setup: median %.4f s over %d set-ups\n",
                         median(setups), reps);
    } else {
        Tracer tr;
        w->setup();
        const LoopResult plain = w->run(opt.seconds / 2, nullptr);
        r = w->run(opt.seconds / 2, &tr);
        w->check();
        m["trace.overhead"] = {r.main_ms / plain.main_ms, "ratio"};
        std::cout << fmt("trace.overhead: traced main %.4f ms / untraced "
                         "%.4f ms\n",
                         r.main_ms, plain.main_ms);
        for (const std::string &name : workloadNames()) {
            std::unique_ptr<Workload> other;
            Workload *target = w.get();
            if (name != opt.workload) {
                other = makeWorkload(name, ctx);
                target = other.get();
            }
            if (!target->isSetUp())
                target->setup();
            target->probe(tr, m);
        }
        const std::string path =
            opt.out_dir + fmt("/trace-%s-seed%llu.jsonl",
                              opt.workload.c_str(),
                              static_cast<unsigned long long>(opt.seed));
        if (!tr.write(path, "{\"fingerprint\":" + fp + "}"))
            ctx.ledger.fail("could not write " + path);
        std::cout << "trace: " << tr.spans().size() << " spans -> "
                  << path << "\nself time by span:\n";
        for (const auto &[name, s] : tr.selfSeconds())
            std::cout << fmt("  %-32s %10.3f ms\n", name.c_str(), s * 1e3);
    }
    for (const std::string &line : r.report)
        std::cout << line << "\n";

    const std::int64_t attempted = std::max<std::int64_t>(
        1, ctx.ledger.attempted());
    const std::int64_t failed = ctx.ledger.failed();
    for (const std::string &msg : ctx.ledger.messages())
        std::cerr << "perfbench: check failed: " << msg << "\n";
    std::cout << fmt("fail_ratio: %.6g (%lld failed of %lld attempted)\n",
                     static_cast<double>(failed) / attempted,
                     static_cast<long long>(failed),
                     static_cast<long long>(attempted));

    const bool correct = failed == 0;
    const std::string result =
        fmt("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, ",
            correct ? "true" : "false", static_cast<long long>(attempted),
            static_cast<long long>(failed)) +
        "\"metrics\": " + metricsJson(m) + "}";
    std::ofstream(opt.out_dir + "/results.jsonl", std::ios::app)
        << "{\"workload\":\"" << opt.workload << "\",\"seed\":" << opt.seed
        << ",\"trace\":" << (opt.trace ? 1 : 0) << ",\"fingerprint\":" << fp
        << ",\"result\":" << result << "}\n";
    std::cout << result << std::endl;
    return correct ? 0 : 1;
}

} // namespace

} // namespace perfbench

int
main(int argc, char **argv)
{
    const perfbench::Options opt = perfbench::parseArgs(argc, argv);
    mopt::setLogLevel(mopt::LogLevel::Error);
    try {
        return perfbench::runBench(opt);
    } catch (const std::exception &e) {
        std::cerr << "perfbench: " << e.what() << "\n";
        return 1;
    }
}
