#include "common.h"

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <thread>

namespace perfbench {

int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    double pos = q * static_cast<double>(v.size() - 1);
    auto lo = static_cast<size_t>(std::floor(pos));
    size_t hi = std::min(lo + 1, v.size() - 1);
    double frac = pos - static_cast<double>(lo);
    return v[lo] + (v[hi] - v[lo]) * frac;
}

double
mean(const std::vector<double> &v)
{
    if (v.empty())
        return 0;
    double s = 0;
    for (double x : v)
        s += x;
    return s / static_cast<double>(v.size());
}

double
chunkedQuantile(const std::vector<double> &ms, double q)
{
    const auto perChunk =
        static_cast<size_t>(std::ceil(10.0 / std::max(1e-9, 1.0 - q)));
    size_t chunks = std::min<size_t>(9, ms.size() / perChunk);
    if (chunks < 2)
        return quantile(ms, q);
    std::vector<double> per;
    for (size_t c = 0; c < chunks; ++c) {
        size_t a = ms.size() * c / chunks;
        size_t b = ms.size() * (c + 1) / chunks;
        per.push_back(quantile(
            std::vector<double>(ms.begin() + static_cast<long>(a),
                                ms.begin() + static_cast<long>(b)),
            q));
    }
    return quantile(per, 0.5);
}

std::vector<double>
inCompletionOrder(std::vector<std::pair<int64_t, double>> samples)
{
    std::sort(samples.begin(), samples.end());
    std::vector<double> ms;
    ms.reserve(samples.size());
    for (const auto &s : samples)
        ms.push_back(s.second);
    return ms;
}

double
peakRssMb()
{
    // VmHWM, not getrusage: ru_maxrss survives exec, so it would report
    // the launching process's peak when that one was larger.
    std::ifstream f("/proc/self/status");
    std::string line;
    while (std::getline(f, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0; // kB
    throw std::runtime_error("no VmHWM in /proc/self/status");
}

int64_t
argmax(const float *p, int64_t n)
{
    return std::max_element(p, p + n) - p;
}

// ---- Report ------------------------------------------------------------

void
Report::metric(const std::string &name, double value,
               const std::string &unit)
{
    for (Metric &m : metrics_) {
        if (m.name == name) {
            m.value = value;
            m.unit = unit;
            return;
        }
    }
    metrics_.push_back({name, value, unit});
}

void
Report::check(bool ok, const std::string &what)
{
    note("check %-4s %s", ok ? "ok" : "FAIL", what.c_str());
    correct_ = correct_ && ok;
}

void
Report::note(const char *fmt, ...)
{
    char buf[1024];
    va_list ap;
    va_start(ap, fmt);
    std::vsnprintf(buf, sizeof(buf), fmt, ap);
    va_end(ap);
    notes_.emplace_back(buf);
}

double
Report::timing(const std::string &label, const std::vector<double> &ms,
               double q)
{
    double v = chunkedQuantile(ms, q);
    note("%-26s %10.4f ms  (p%g, n=%zu)", label.c_str(), v, q * 100,
         ms.size());
    return v;
}

// ---- SpanLog -----------------------------------------------------------

SpanLog::SpanLog(bool enabled, int lanes)
    : enabled_(enabled), lanes_(static_cast<size_t>(lanes))
{
    if (enabled_)
        for (auto &l : lanes_)
            l.reserve(1 << 14);
}

int32_t
SpanLog::begin(int lane, const char *name, int32_t parent, int64_t id)
{
    if (!enabled_)
        return -1;
    auto &l = lanes_[static_cast<size_t>(lane)];
    l.push_back(Span{name, nowNs(), 0, parent, id});
    return static_cast<int32_t>(l.size() - 1);
}

void
SpanLog::end(int lane, int32_t span)
{
    if (!enabled_ || span < 0)
        return;
    lanes_[static_cast<size_t>(lane)][static_cast<size_t>(span)].endNs =
        nowNs();
}

bool
SpanLog::write(const std::string &path) const
{
    std::ofstream f(path);
    if (!f)
        return false;
    for (size_t l = 0; l < lanes_.size(); ++l) {
        for (size_t i = 0; i < lanes_[l].size(); ++i) {
            const Span &s = lanes_[l][i];
            f << "{\"lane\":" << l << ",\"index\":" << i
              << ",\"name\":\"" << s.name
              << "\",\"start_ns\":" << s.startNs
              << ",\"end_ns\":" << s.endNs << ",\"parent\":" << s.parent
              << ",\"id\":" << s.id << "}\n";
        }
    }
    return static_cast<bool>(f);
}

// ---- host facts --------------------------------------------------------

std::string
hostFacts(const Args &a, const std::string &simdTier)
{
    char buf[512];
    std::snprintf(buf, sizeof(buf),
                  "{\"workload\":\"%s\",\"seed\":%llu,\"seconds\":%g,"
                  "\"trace\":%d,\"nproc\":%u,\"simd_tier\":\"%s\","
                  "\"build_type\":\"%s\",\"compiler\":\"%s\"}",
                  a.workload.c_str(),
                  static_cast<unsigned long long>(a.seed), a.seconds,
                  a.trace ? 1 : 0, std::thread::hardware_concurrency(),
                  simdTier.c_str(), PERFBENCH_BUILD_TYPE, __VERSION__);
    return buf;
}

void
makeDirs(const std::string &dir)
{
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec)
        throw std::runtime_error("cannot create " + dir + ": " +
                                 ec.message());
}

} // namespace perfbench
