#include "trace.hh"

#include <algorithm>
#include <fstream>
#include <map>
#include <unordered_map>

namespace perfbench {

void
Tracer::close(const SpanRecord &rec)
{
    std::lock_guard<std::mutex> lk(mu_);
    spans_.push_back(rec);
}

std::vector<SpanRecord>
Tracer::spans() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return spans_;
}

std::vector<double>
Tracer::durations(const std::string &name, std::int64_t arg) const
{
    std::vector<double> out;
    std::lock_guard<std::mutex> lk(mu_);
    for (const SpanRecord &s : spans_)
        if (name == s.name && (arg == kAnyArg || arg == s.arg))
            out.push_back(s.seconds());
    return out;
}

std::vector<std::pair<std::string, double>>
Tracer::selfSeconds() const
{
    const std::vector<SpanRecord> all = spans();
    std::unordered_map<std::uint64_t, std::vector<const SpanRecord *>>
        children;
    for (const SpanRecord &s : all)
        if (s.parent != 0)
            children[s.parent].push_back(&s);

    std::map<std::string, double> self;
    for (const SpanRecord &s : all) {
        // Union of the children's intervals, clipped to the parent.
        std::vector<std::pair<std::int64_t, std::int64_t>> iv;
        auto it = children.find(s.id);
        if (it != children.end())
            for (const SpanRecord *c : it->second)
                iv.emplace_back(std::max(c->start_ns, s.start_ns),
                                std::min(c->end_ns, s.end_ns));
        std::sort(iv.begin(), iv.end());
        std::int64_t covered = 0;
        std::int64_t reach = s.start_ns;
        for (const auto &[b, e] : iv) {
            const std::int64_t from = std::max(b, reach);
            if (e > from) {
                covered += e - from;
                reach = e;
            }
        }
        self[s.name] += (s.end_ns - s.start_ns - covered) * 1e-9;
    }
    return {self.begin(), self.end()};
}

bool
Tracer::write(const std::string &path, const std::string &header) const
{
    std::ofstream f(path);
    if (!f)
        return false;
    f << header << "\n";
    for (const SpanRecord &s : spans())
        f << "{\"name\":\"" << s.name << "\",\"id\":" << s.id
          << ",\"parent\":" << s.parent << ",\"request\":" << s.request
          << ",\"arg\":" << s.arg << ",\"start_ns\":" << s.start_ns
          << ",\"end_ns\":" << s.end_ns << "}\n";
    return static_cast<bool>(f);
}

} // namespace perfbench
