/**
 * @file
 * Shared pieces of the benchmark program: run arguments, the result
 * report (metrics + correctness + failure counts), latency summaries,
 * and the benchmark's own span log.
 */

#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Absolute steady-clock nanoseconds (the library's trace timebase). */
int64_t nowNs();

inline double
msBetween(int64_t startNs, int64_t endNs)
{
    return static_cast<double>(endNs - startNs) / 1e6;
}

/** Command-line arguments. */
struct Args {
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string outDir = "perfbench-out"; ///< plans, traces, spans
};

/** Setups per run: setup_s is their median, so one slow set-up (a
 *  cold page cache, a neighbour's burst) does not move it. */
constexpr int kSetupReps = 9;

/** Linear-interpolated quantile of @p v (q in [0, 1]); 0 if empty. */
double quantile(std::vector<double> v, double q);
double mean(const std::vector<double> &v);

/**
 * The q-quantile of latencies @p ms (in completion order), made robust
 * to one stall: the samples are cut into consecutive chunks holding at
 * least 10 samples beyond the quantile each (at most 9 chunks), and the
 * median of the per-chunk quantiles is returned. With too few samples
 * for two chunks it is the plain quantile.
 */
double chunkedQuantile(const std::vector<double> &ms, double q);

/** The latencies of (completion ns, latency ms) samples, in completion
 *  order. */
std::vector<double>
inCompletionOrder(std::vector<std::pair<int64_t, double>> samples);

/** Process peak resident set (VmHWM) in MiB. */
double peakRssMb();

/** Argmax over @p n floats. */
int64_t argmax(const float *p, int64_t n);

/**
 * Everything one run reports. Workloads fill it; main() prints the
 * human-readable block and the final JSON line.
 */
class Report
{
  public:
    void metric(const std::string &name, double value,
                const std::string &unit);
    /** Record a correctness check; a failed one marks the run wrong. */
    void check(bool ok, const std::string &what);
    /** A human-readable line printed before the JSON result. */
    void note(const char *fmt, ...) __attribute__((format(printf, 2, 3)));
    /** chunkedQuantile(@p ms, @p q), printed with its sample count
     *  under @p label (the name the workload's doc uses). */
    double timing(const std::string &label, const std::vector<double> &ms,
                  double q);

    void attempt(int64_t n = 1) { attempted_ += n; }
    void fail(int64_t n = 1) { failed_ += n; }

    /** SIMD tier the workload's programs bound (CompileReport). */
    std::string simdTier = "scalar";

    bool correct() const { return correct_; }
    int64_t attempted() const { return attempted_; }
    int64_t failed() const { return failed_; }

    struct Metric {
        std::string name;
        double value = 0;
        std::string unit;
    };
    const std::vector<Metric> &metrics() const { return metrics_; }
    const std::vector<std::string> &notes() const { return notes_; }

  private:
    bool correct_ = true;
    int64_t attempted_ = 0;
    int64_t failed_ = 0;
    std::vector<Metric> metrics_;
    std::vector<std::string> notes_;
};

/**
 * The benchmark's own spans around every public call it makes
 * (compile, plan save/load, trainStep, prefill, decode, run). Each
 * thread records into its own lane, so recording takes no lock; a
 * span's parent is an index into the same lane, and spans of one
 * request or conversation share an id. Disabled (every call a no-op)
 * outside the traced run. Written out once, at exit.
 */
class SpanLog
{
  public:
    struct Span {
        const char *name = "";
        int64_t startNs = 0;
        int64_t endNs = 0;
        int32_t parent = -1; ///< index in the same lane; -1 = root
        int64_t id = 0;      ///< request / conversation / step id
    };

    SpanLog(bool enabled, int lanes);

    bool enabled() const { return enabled_; }

    /** Open a span on @p lane; returns its index (-1 when disabled). */
    int32_t begin(int lane, const char *name, int32_t parent = -1,
                  int64_t id = 0);
    void end(int lane, int32_t span);

    /** One JSON object per line: lane, index, name, start, end,
     *  parent, id. Returns false on I/O failure. */
    bool write(const std::string &path) const;

  private:
    bool enabled_;
    std::vector<std::vector<Span>> lanes_;
};

/** RAII span: begin at construction, end at destruction. */
class Scoped
{
  public:
    Scoped(SpanLog &log, int lane, const char *name, int32_t parent = -1,
           int64_t id = 0)
        : log_(log), lane_(lane),
          index_(log.begin(lane, name, parent, id))
    {
    }
    ~Scoped() { log_.end(lane_, index_); }
    Scoped(const Scoped &) = delete;
    Scoped &operator=(const Scoped &) = delete;
    int32_t index() const { return index_; }

  private:
    SpanLog &log_;
    int lane_;
    int32_t index_;
};

/** Host and build facts printed with every result. */
std::string hostFacts(const Args &a, const std::string &simdTier);

/** Make @p dir (and parents); throws on failure. */
void makeDirs(const std::string &dir);

} // namespace perfbench
