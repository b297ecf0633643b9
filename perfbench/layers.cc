#include "layers.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "engine/engine.h"
#include "kernels/kernel.h"
#include "obs/profile.h"
#include "plan/plan.h"
#include "serve/serving.h"

namespace perfbench {

namespace {

/**
 * The ops whose share is reported: together they cover >= 95% of
 * kernel time on their workload (conv forward/backward on
 * finetune_mcunet; MatMul, attention, layout and cache ops on
 * chat_decode; the quantized ops on serve_int8_vision). gflops is
 * reported where the op has an analytical FLOP count.
 */
struct OpMetric {
    const char *op;
    bool gflops;
};
constexpr OpMetric kOps[] = {
    {"ConvBiasAct", true},     {"Conv2dBwdWeight", true},
    {"Conv2dBwdInput", true},  {"DwConvBiasAct", true},
    {"DwConv2dBwdInput", true}, {"DwConv2dBwdWeight", true},
    {"ReluGrad", false},       {"ReduceSum", false},
    {"MatMul", true},          {"FusedAttention", true},
    {"Permute", false},        {"Silu", false},
    {"RMSNorm", false},        {"CacheWrite", false},
    {"QuantDwConv2d", true},   {"QuantConv2d", true},
    {"QuantMatMul", true},     {"QuantAdd", false},
    {"Quantize", false},
};

const char *const kServeMetrics[][2] = {
    {"serve.queue_wait_us.p50", "us"}, {"serve.queue_wait_us.p99", "us"},
    {"serve.bind_us", "us"},           {"serve.run_us.mean", "us"},
    {"serve.busy_share", "share"},     {"serve.requests_per_run", "req/run"},
    {"serve.decode_share", "req/run"}, {"serve.pad_row_share", "share"},
    {"serve.max_queue_depth", "count"}, {"serve.rejected", "count"},
    {"serve.failed", "count"},
};

const char *const kOtherMetrics[][2] = {
    {"engine.compile_ms", "ms"},       {"engine.kernel_steps", "count"},
    {"engine.pruned_nodes", "count"},  {"engine.flops_per_step", "flop"},
    {"runtime.arena_bytes", "B"},      {"runtime.peak_live_bytes", "B"},
    {"runtime.overhead_share", "share"}, {"kernels.other.share", "share"},
    {"kernels.scalar_share", "share"}, {"kernels.span_coverage", "share"},
    {"hw.sharded_steps", "count"},     {"hw.shard_imbalance", "ratio"},
    {"quant.fallbacks", "count"},      {"quant.int8_share", "share"},
    {"quant.regrouped_share", "share"},
    {"plan.save_ms", "ms"},            {"plan.load_ms", "ms"},
    {"plan.bytes", "B"},               {"obs.trace_overhead", "share"},
    {"obs.dropped_spans", "count"},    {"load.late_ms_max", "ms"},
    {"load.failed_share", "share"},
};

/** True when @p op has a SIMD-tier kernel registered on this host, so a
 *  scalar variant of it is time a tier could have saved. */
bool
hasTierFor(const std::string &op)
{
    pe::SimdTier host = pe::hostSimdTier();
    if (host == pe::SimdTier::Scalar)
        return false;
    pe::OpKind kind;
    try {
        kind = pe::opFromName(op);
    } catch (const std::exception &) {
        return false;
    }
    const std::string t = pe::simdTierName(host);
    for (const char *base : {"", "blocked@", "im2col@", "int8@"})
        if (pe::hasKernelVariant(kind, base + t))
            return true;
    return false;
}

/** Minimal reader for the flat event objects the Chrome exporter
 *  writes: string/number members plus one "args" object of strings. */
class EventReader
{
  public:
    struct Event {
        std::string name, ph;
        double pid = 0, ts = 0, dur = 0;
        std::map<std::string, std::string> args;
    };

    explicit EventReader(const std::string &s) : s_(s)
    {
        size_t at = s_.find("\"traceEvents\"");
        i_ = at == std::string::npos ? s_.size() : s_.find('[', at);
        if (i_ == std::string::npos)
            i_ = s_.size();
        else
            ++i_;
    }

    /** Next event; false at the end of the array or on bad input. */
    bool
    next(Event &e)
    {
        ws();
        if (i_ < s_.size() && s_[i_] == ',')
            ++i_;
        ws();
        if (i_ >= s_.size() || s_[i_] != '{')
            return false;
        e = Event{};
        return object([&](const std::string &key) {
            if (key == "args")
                return object([&](const std::string &k) {
                    std::string v;
                    if (!value(&v, nullptr))
                        return false;
                    e.args[k] = v;
                    return true;
                });
            std::string sv;
            double nv = 0;
            if (!value(&sv, &nv))
                return false;
            if (key == "name")
                e.name = sv;
            else if (key == "ph")
                e.ph = sv;
            else if (key == "pid")
                e.pid = nv;
            else if (key == "ts")
                e.ts = nv;
            else if (key == "dur")
                e.dur = nv;
            return true;
        });
    }

  private:
    void
    ws()
    {
        while (i_ < s_.size() && std::isspace(static_cast<unsigned char>(
                                     s_[i_])))
            ++i_;
    }

    bool
    str(std::string &out)
    {
        if (i_ >= s_.size() || s_[i_] != '"')
            return false;
        for (++i_; i_ < s_.size(); ++i_) {
            char c = s_[i_];
            if (c == '"') {
                ++i_;
                return true;
            }
            if (c == '\\' && i_ + 1 < s_.size())
                c = s_[++i_];
            out += c;
        }
        return false;
    }

    /** A string (into @p sv) or a number (into @p nv). */
    bool
    value(std::string *sv, double *nv)
    {
        ws();
        if (i_ < s_.size() && s_[i_] == '"')
            return str(*sv);
        if (!nv)
            return false;
        const char *begin = s_.c_str() + i_;
        char *end = nullptr;
        *nv = std::strtod(begin, &end);
        if (end == begin)
            return false;
        i_ += static_cast<size_t>(end - begin);
        return true;
    }

    template <typename F>
    bool
    object(F member)
    {
        ws();
        if (i_ >= s_.size() || s_[i_] != '{')
            return false;
        ++i_;
        for (;;) {
            ws();
            if (i_ < s_.size() && s_[i_] == '}') {
                ++i_;
                return true;
            }
            std::string key;
            if (!str(key))
                return false;
            ws();
            if (i_ >= s_.size() || s_[i_] != ':')
                return false;
            ++i_;
            if (!member(key))
                return false;
            ws();
            if (i_ < s_.size() && s_[i_] == ',')
                ++i_;
        }
    }

    const std::string &s_;
    size_t i_ = 0;
};

} // namespace

void
zeroLayerMetrics(Report &r)
{
    for (const auto &m : kOtherMetrics)
        r.metric(m[0], 0, m[1]);
    for (const auto &m : kServeMetrics)
        r.metric(m[0], 0, m[1]);
    for (const OpMetric &o : kOps) {
        r.metric(std::string("kernels.") + o.op + ".share", 0, "share");
        if (o.gflops)
            r.metric(std::string("kernels.") + o.op + ".gflops", 0,
                     "GFLOP/s");
    }
}

void
emitProgramLayers(Report &r,
                  const std::vector<const pe::CompileReport *> &reps)
{
    double steps = 0, pruned = 0, flops = 0, arena = 0, live = 0,
           sharded = 0, fallbacks = 0;
    for (const pe::CompileReport *c : reps) {
        steps += c->kernelSteps;
        pruned += c->prunedNodes;
        flops += c->flopsPerStep;
        arena += static_cast<double>(c->arenaBytes);
        live += static_cast<double>(c->peakLiveBytes);
        sharded += c->shardedSteps;
        fallbacks += c->kernelFallbacks;
    }
    r.metric("engine.kernel_steps", steps, "count");
    r.metric("engine.pruned_nodes", pruned, "count");
    r.metric("engine.flops_per_step", flops, "flop");
    r.metric("runtime.arena_bytes", arena, "B");
    r.metric("runtime.peak_live_bytes", live, "B");
    r.metric("hw.sharded_steps", sharded, "count");
    r.metric("quant.fallbacks", fallbacks, "count");
}

// ---- KernelFold ----------------------------------------------------------

void
KernelFold::add(const std::string &op, const std::string &variant,
                int64_t totalNs, double flops)
{
    Row &row = ops_[op];
    row.ns += totalNs;
    row.flops += flops;
    totalNs_ += totalNs;
    if (pe::variantTier(variant) == pe::SimdTier::Scalar && hasTierFor(op))
        scalarNs_ += totalNs;
    if (pe::scalarVariantOf(variant) == "int8")
        int8Ns_ += totalNs;
}

int64_t
KernelFold::addTrace(const pe::Executor &ex, const pe::TraceBuffer &tb)
{
    pe::ProfileReport rep = pe::profileTrace(ex, tb);
    for (const pe::ProfileStepRow &s : rep.steps)
        add(s.op, s.variant, s.totalNs,
            s.flops * static_cast<double>(s.calls));
    return rep.droppedSpans;
}

void
KernelFold::emit(Report &r, int64_t wallNs) const
{
    auto share = [&](int64_t ns) {
        return totalNs_ > 0 ? static_cast<double>(ns) /
                                  static_cast<double>(totalNs_)
                            : 0.0;
    };
    int64_t listed = 0;
    for (const OpMetric &o : kOps) {
        auto it = ops_.find(o.op);
        if (it == ops_.end())
            continue;
        listed += it->second.ns;
        r.metric(std::string("kernels.") + o.op + ".share",
                 share(it->second.ns), "share");
        if (o.gflops && it->second.ns > 0)
            r.metric(std::string("kernels.") + o.op + ".gflops",
                     it->second.flops /
                         static_cast<double>(it->second.ns),
                     "GFLOP/s");
    }
    r.metric("kernels.other.share", share(totalNs_ - listed), "share");
    r.metric("kernels.scalar_share", share(scalarNs_), "share");
    r.metric("quant.int8_share", share(int8Ns_), "share");
    double coverage = wallNs > 0 ? static_cast<double>(totalNs_) /
                                       static_cast<double>(wallNs)
                                 : 0.0;
    r.metric("kernels.span_coverage", coverage, "share");
    r.metric("runtime.overhead_share", std::max(0.0, 1.0 - coverage),
             "share");
}

std::string
KernelFold::top(int n) const
{
    std::vector<std::pair<int64_t, std::string>> rows;
    for (const auto &[op, row] : ops_)
        rows.emplace_back(row.ns, op);
    std::sort(rows.rbegin(), rows.rend());
    std::ostringstream out;
    for (int i = 0; i < n && i < static_cast<int>(rows.size()); ++i) {
        char buf[96];
        std::snprintf(buf, sizeof(buf), "%s%s %.1f%%", i ? ", " : "",
                      rows[static_cast<size_t>(i)].second.c_str(),
                      100.0 * static_cast<double>(
                                  rows[static_cast<size_t>(i)].first) /
                          static_cast<double>(std::max<int64_t>(
                              1, totalNs_)));
        out << buf;
    }
    return out.str();
}

double
shardImbalance(const pe::TraceBuffer &tb)
{
    // Shard spans of one step call share (runId, stepIndex).
    std::map<std::pair<int64_t, int32_t>, std::vector<int64_t>> calls;
    for (const pe::TraceSpan &s : tb.snapshot())
        if (s.kind == pe::SpanKind::Shard)
            calls[{s.runId, s.stepIndex}].push_back(s.durNs);
    double sum = 0;
    int64_t n = 0;
    for (const auto &[key, durs] : calls) {
        if (durs.size() < 2)
            continue;
        double total = 0, mx = 0;
        for (int64_t d : durs) {
            total += static_cast<double>(d);
            mx = std::max(mx, static_cast<double>(d));
        }
        double avg = total / static_cast<double>(durs.size());
        if (avg > 0) {
            sum += mx / avg;
            ++n;
        }
    }
    return n > 0 ? sum / static_cast<double>(n) : 0.0;
}

// ---- serving -------------------------------------------------------------

void
countPhase(Report &r, int64_t attempted, int64_t thrown,
           const pe::ServeStats &before, const pe::ServeStats &after)
{
    r.attempt(attempted);
    r.fail(std::max(thrown, after.failed - before.failed) + after.rejected -
           before.rejected);
}

FlopsOf
planFlops(const pe::ServingEngine &eng, const std::string &planDir,
          bool int8)
{
    auto byBucket =
        std::make_shared<std::map<int64_t, std::vector<double>>>();
    pe::Precision prec = int8 ? pe::Precision::Int8 : pe::Precision::F32;
    for (const pe::BucketStats &b : eng.stats().buckets) {
        auto prog = pe::loadPlan(
            planDir + "/" +
            pe::ServingEngine::planFileName(prec, b.batch, b.decode));
        const pe::Graph &g = prog->graph();
        std::vector<double> &flops = (*byBucket)[b.batch];
        flops.resize(static_cast<size_t>(g.numNodes()));
        for (int id = 0; id < g.numNodes(); ++id) {
            // An int8 op performs its fp32 counterpart's operations.
            pe::Node n = g.node(id);
            if (n.op == pe::OpKind::QuantConv2d)
                n.op = pe::OpKind::Conv2d;
            else if (n.op == pe::OpKind::QuantDwConv2d)
                n.op = pe::OpKind::DwConv2d;
            else if (n.op == pe::OpKind::QuantMatMul)
                n.op = pe::OpKind::MatMul;
            flops[static_cast<size_t>(id)] = pe::nodeFlops(g, n);
        }
    }
    return [byBucket](int64_t bucket, int node) {
        auto it = byBucket->find(bucket);
        if (it == byBucket->end() || node < 0 ||
            node >= static_cast<int>(it->second.size()))
            return 0.0;
        return it->second[static_cast<size_t>(node)];
    };
}

bool
foldServeTrace(const std::string &path, const FlopsOf &flopsOf,
               ServeTraceFold &fold, KernelFold &kernels)
{
    std::ifstream f(path, std::ios::binary);
    if (!f)
        return false;
    std::stringstream ss;
    ss << f.rdbuf();
    const std::string text = ss.str();
    EventReader reader(text);
    EventReader::Event e;
    bool any = false;
    while (reader.next(e)) {
        any = true;
        if (e.ph != "X")
            continue;
        auto durNs = static_cast<int64_t>(std::llround(e.dur * 1e3));
        if (e.pid == 2) {
            if (e.name == "queued") {
                fold.queueWaitUs.push_back(e.dur);
                ++fold.lifecycleRecords;
            }
            continue;
        }
        auto node = e.args.find("node");
        if (node != e.args.end()) {
            // Kernel step: "Op" or "Op/variant", bucket "b<batch>".
            size_t slash = e.name.find('/');
            std::string op = e.name.substr(0, slash);
            std::string variant =
                slash == std::string::npos ? "" : e.name.substr(slash + 1);
            const std::string &b = e.args["bucket"]; // "b<batch>"
            int64_t bucket = b.size() > 1 ? std::atoll(b.c_str() + 1) : 0;
            kernels.add(op, variant, durNs,
                        flopsOf(bucket, std::atoi(node->second.c_str())));
            ++fold.stepSpans[bucket];
        } else if (e.name.rfind("bind ", 0) == 0) {
            fold.bindUs.push_back(e.dur);
        } else if (e.name.rfind("run#", 0) == 0) {
            fold.runSpanNs += durNs;
        }
    }
    return any;
}

int64_t
emitServeLayers(Report &r, const pe::ServingEngine &eng,
                const ServeTraceFold &fold, const KernelFold &kernels,
                double tracedWallS)
{
    pe::ServeStats st = eng.stats();
    std::vector<const pe::CompileReport *> reps;
    double runs = 0, runNs = 0, hits = 0, decHits = 0, decRuns = 0,
           pad = 0, rowsRun = 0;
    int64_t dropped = 0;
    for (const pe::BucketStats &b : st.buckets) {
        const pe::CompileReport &rep = eng.bucketReport(b.batch);
        reps.push_back(&rep);
        runs += static_cast<double>(b.runs);
        runNs += static_cast<double>(b.runNs);
        hits += static_cast<double>(b.hits);
        pad += static_cast<double>(b.paddedRows);
        rowsRun += static_cast<double>(b.runs * b.batch);
        if (b.decode) {
            decHits += static_cast<double>(b.hits);
            decRuns += static_cast<double>(b.runs);
        }
        auto it = fold.stepSpans.find(b.batch);
        int64_t got = it == fold.stepSpans.end() ? 0 : it->second;
        dropped += std::max<int64_t>(0, b.runs * rep.kernelSteps - got);
    }
    dropped += std::max<int64_t>(0, st.completed - fold.lifecycleRecords);

    emitProgramLayers(r, reps);
    kernels.emit(r, fold.runSpanNs);
    r.metric("serve.queue_wait_us.p50", quantile(fold.queueWaitUs, 0.5),
             "us");
    r.metric("serve.queue_wait_us.p99", quantile(fold.queueWaitUs, 0.99),
             "us");
    r.metric("serve.bind_us", mean(fold.bindUs), "us");
    r.metric("serve.run_us.mean", runs > 0 ? runNs / runs / 1e3 : 0, "us");
    r.metric("serve.busy_share",
             tracedWallS > 0
                 ? runNs / 1e9 / (eng.workers() * tracedWallS)
                 : 0,
             "share");
    r.metric("serve.requests_per_run", runs > 0 ? hits / runs : 0,
             "req/run");
    r.metric("serve.decode_share", decRuns > 0 ? decHits / decRuns : 0,
             "req/run");
    r.metric("serve.pad_row_share", rowsRun > 0 ? pad / rowsRun : 0,
             "share");
    r.metric("serve.max_queue_depth",
             static_cast<double>(st.maxQueueDepth), "count");
    r.metric("serve.rejected", static_cast<double>(st.rejected), "count");
    r.metric("serve.failed", static_cast<double>(st.failed), "count");
    return dropped;
}

} // namespace perfbench
