/**
 * @file
 * finetune_mcunet: the paper's headline workload. A full-BP and a
 * sparse-BP compiled training program over the MCUNet proxy each run a
 * closed loop of trainStep on seeded SyntheticVision batches,
 * alternating step by step so both see the same host conditions.
 */

#include <algorithm>
#include <cmath>
#include <memory>
#include <unordered_map>

#include "baseline/eager.h"
#include "data/synthetic.h"
#include "engine/engine.h"
#include "frontend/models.h"
#include "layers.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr int64_t kBatch = 8;
constexpr int64_t kRes = 32;
constexpr uint64_t kWeightSeed = 9; ///< the model; inputs come from --seed
constexpr int kPool = 16;           ///< distinct batches cycled
constexpr int kWarm = 1;            ///< warm-up steps per program
/** Leading losses compared against EagerEngine (warm-up steps, then
 *  the first timed ones: the data order is the same). */
constexpr int kEagerSteps = 3;
/**
 * The gated step time is the 10th percentile of a program's steps, not
 * the median or the mean. On the shared 4-vCPU host the benchmark was
 * sized on, neighbours slow the step (36 -> 60-75 ms sparse) for
 * stretches of seconds to minutes; which share of a run they cover
 * moved the median by 0.2-0.5 of itself from run to run, while the
 * fastest tenth of the steps stays near the program's own cost.
 * Interference only ever adds time, so a slower program still moves
 * this quantile; the median, p90 and mean are printed beside it.
 */
constexpr double kStepQuantile = 0.1;
/**
 * Intra-op threads: 1. At 2 threads, the sparse-BP step on the 4-vCPU
 * VM the benchmark was sized on took anywhere from 18 to 36 ms within
 * one run (the second shard helps only while the host leaves a second
 * core free), and the per-run p50 flipped between ~21 and ~35 ms from
 * run to run; at 1 thread, p10..p80 stay within 35..39 ms.
 */
constexpr int kThreads = 1;
/** Compiled vs eager loss: |a - b| <= tol * max(1, |b|), the tolerance
 *  tests/test_engine.cc holds the two engines to. The gap is rounding
 *  (different summation orders) amplified by each SGD step: ~1e-7 on
 *  most seeds, 1.2e-4 by the third full-BP step on seed 608. */
constexpr double kEagerTol = 2e-3;

using Feeds = std::unordered_map<std::string, pe::Tensor>;

pe::VisionConfig
visionConfig()
{
    pe::VisionConfig cfg;
    cfg.batch = kBatch;
    cfg.resolution = kRes;
    cfg.width = 1.0;
    cfg.blocks = 7;
    return cfg;
}

pe::ModelSpec
buildModel(pe::ParamStore *store)
{
    pe::Rng rng(kWeightSeed);
    return pe::buildMcuNet(visionConfig(), rng, store);
}

pe::SparseUpdateScheme
schemeFor(bool sparse, const pe::ModelSpec &m)
{
    return sparse ? pe::cnnSparseScheme(m, 3, 2)
                  : pe::SparseUpdateScheme::full();
}

/** Adds the wall time of its lifetime to *ms. */
class Stopwatch
{
  public:
    explicit Stopwatch(double *ms) : ms_(ms), t0_(nowNs()) {}
    ~Stopwatch() { *ms_ += msBetween(t0_, nowNs()); }
    Stopwatch(const Stopwatch &) = delete;
    Stopwatch &operator=(const Stopwatch &) = delete;

  private:
    double *ms_;
    int64_t t0_;
};

pe::TrainingProgram
timedCompile(const pe::ModelSpec &m, bool sparse,
             std::shared_ptr<pe::ParamStore> store, double *ms)
{
    pe::CompileOptions opt;
    opt.numThreads = kThreads;
    opt.optim = pe::OptimConfig::sgd(0.01);
    Stopwatch sw(ms);
    return pe::compileTraining(m.graph, m.loss, schemeFor(sparse, m), opt,
                               std::move(store));
}

/** One compiled program with its own parameters. */
struct Trainer {
    bool sparse;
    std::shared_ptr<pe::ParamStore> store =
        std::make_shared<pe::ParamStore>();
    pe::ModelSpec spec = buildModel(store.get());
    pe::TrainingProgram prog;
    std::vector<float> losses;
    std::vector<double> stepMs; ///< timed steps only

    Trainer(bool sp, double *compileMs)
        : sparse(sp), prog(timedCompile(spec, sp, store, compileMs))
    {
    }
};

/** A pair of programs (full, sparse), warmed on the first batches. */
struct Pair {
    std::unique_ptr<Trainer> full, sparse;
    double compileMs = 0;
    double setupS = 0;
    double warmS = 0; ///< of which the warm-up steps
};

Pair
setUp(const std::vector<Feeds> &feeds, SpanLog &spans, int32_t parent)
{
    Pair p;
    int64_t t0 = nowNs();
    {
        Scoped s(spans, 0, "compile.full", parent);
        p.full = std::make_unique<Trainer>(false, &p.compileMs);
    }
    {
        Scoped s(spans, 0, "compile.sparse", parent);
        p.sparse = std::make_unique<Trainer>(true, &p.compileMs);
    }
    const int64_t warm0 = nowNs();
    for (int i = 0; i < kWarm; ++i) {
        for (Trainer *t : {p.full.get(), p.sparse.get()}) {
            Scoped s(spans, 0, "trainStep.warm", parent, i);
            t->losses.push_back(
                t->prog.trainStep(feeds[static_cast<size_t>(i)]));
        }
    }
    p.setupS = static_cast<double>(nowNs() - t0) / 1e9;
    p.warmS = static_cast<double>(nowNs() - warm0) / 1e9;
    return p;
}

/** One timed step; false when it failed (exception or bad loss). */
bool
step(Trainer &t, const Feeds &f, Report &r, SpanLog &spans, int64_t id)
{
    r.attempt();
    try {
        Scoped s(spans, 0, t.sparse ? "trainStep.sparse" : "trainStep.full",
                 -1, id);
        int64_t t0 = nowNs();
        float loss = t.prog.trainStep(f);
        t.stepMs.push_back(msBetween(t0, nowNs()));
        t.losses.push_back(loss);
        if (std::isfinite(loss))
            return true;
    } catch (const std::exception &e) {
        r.note("trainStep failed: %s", e.what());
    }
    r.fail();
    return false;
}

/** The eager baseline's first kEagerSteps losses on the same init and data
 *  (sparse: gradients masked to the scheme's trainable set). */
std::vector<float>
eagerLosses(bool sparse, const std::vector<Feeds> &feeds)
{
    auto store = std::make_shared<pe::ParamStore>();
    pe::ModelSpec m = buildModel(store.get());
    pe::SparseUpdateScheme scheme = schemeFor(sparse, m);
    std::unordered_map<std::string, bool> mask;
    for (const pe::Node &n : m.graph.nodes())
        if (n.op == pe::OpKind::Param)
            mask[n.name] = scheme.ruleFor(n.name).update;
    pe::EagerEngine eager(m.graph, m.loss, store, pe::OptimConfig::sgd(0.01),
                          sparse ? &mask : nullptr);
    std::vector<float> out;
    for (int i = 0; i < kEagerSteps; ++i)
        out.push_back(eager.trainStep(feeds[static_cast<size_t>(i)]));
    return out;
}

void
checkAgainstEager(const Trainer &t, const std::vector<Feeds> &feeds,
                  Report &r)
{
    std::vector<float> ref = eagerLosses(t.sparse, feeds);
    double worst = 0;
    for (int i = 0; i < kEagerSteps; ++i) {
        double a = t.losses[static_cast<size_t>(i)];
        double b = ref[static_cast<size_t>(i)];
        worst = std::max(worst,
                         std::abs(a - b) / std::max(1.0, std::abs(b)));
    }
    char what[160];
    std::snprintf(what, sizeof(what),
                  "%s-BP: first %d compiled losses match EagerEngine "
                  "(worst rel diff %.2e, tol %.0e)",
                  t.sparse ? "sparse" : "full", kEagerSteps, worst,
                  kEagerTol);
    r.check(worst <= kEagerTol, what);

    // Training works: the last ten losses average below the first ten.
    size_t n = t.losses.size();
    bool ok = n >= 20;
    double first = 0, last = 0;
    if (ok) {
        for (size_t i = 0; i < 10; ++i) {
            first += t.losses[i] / 10.0;
            last += t.losses[n - 10 + i] / 10.0;
        }
        ok = last < first;
    }
    std::snprintf(what, sizeof(what),
                  "%s-BP: loss decreases (mean of first 10 %.4f, last 10 "
                  "%.4f, %zu steps)",
                  t.sparse ? "sparse" : "full", first, last, n);
    r.check(ok, what);
}

} // namespace

void
runFinetune(const Args &a, Report &r, SpanLog &spans)
{
    pe::SyntheticVision task = pe::SyntheticVision::pretrain(3, kRes);
    pe::Rng rng(a.seed);
    std::vector<Feeds> feeds;
    for (int i = 0; i < kPool; ++i) {
        pe::Batch b = task.sample(kBatch, rng);
        feeds.push_back({{"x", b.x}, {"y", b.y}});
    }

    // Set-up: build + compile both programs and warm them. Repeated;
    // the last pair is the one timed.
    std::vector<double> setupS, compileMs;
    Pair p;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        p = Pair{}; // release the previous pair first
        Scoped s(spans, 0, "setup", -1, rep);
        p = setUp(feeds, spans, s.index());
        setupS.push_back(p.setupS);
        compileMs.push_back(p.compileMs);
    }
    r.simdTier = p.sparse->prog.report().simdTier;
    const pe::CompileReport &fr = p.full->prog.report();
    const pe::CompileReport &sr = p.sparse->prog.report();
    r.note("programs: full %d kernel steps %.3g flop/step, sparse %d steps "
           "%.3g flop/step (%d pruned); tiers %s",
           fr.kernelSteps, fr.flopsPerStep, sr.kernelSteps,
           sr.flopsPerStep, sr.prunedNodes, sr.tierBreakdown().c_str());

    if (!a.trace) {
        int64_t deadline =
            nowNs() + static_cast<int64_t>(a.seconds * 1e9);
        bool ok = true;
        for (int64_t i = kWarm; ok && nowNs() < deadline; ++i) {
            const Feeds &f = feeds[static_cast<size_t>(i % kPool)];
            ok = step(*p.full, f, r, spans, i) &&
                 step(*p.sparse, f, r, spans, i);
        }
        double rss = peakRssMb();

        r.metric("setup_s", quantile(setupS, 0.5), "s");
        r.note("%-26s %10.4f s   (median of %d set-ups)", "setup_s",
               quantile(setupS, 0.5), kSetupReps);
        r.metric("peak_rss_mb", rss, "MB");
        double sparseMs = quantile(p.sparse->stepMs, kStepQuantile);
        double fullMs = quantile(p.full->stepMs, kStepQuantile);
        r.metric("primary_ms", sparseMs, "ms");
        r.metric("secondary_ms", fullMs, "ms");
        r.note("%-26s %10.4f ms  (n=%zu) -> primary_ms",
               "train_sparse_step_ms_p10", sparseMs,
               p.sparse->stepMs.size());
        r.note("%-26s %10.4f ms  (n=%zu) -> secondary_ms",
               "train_full_step_ms_p10", fullMs, p.full->stepMs.size());
        r.note("%-26s %10.4f ms  (n=%zu)", "train_sparse_step_ms_mean",
               mean(p.sparse->stepMs), p.sparse->stepMs.size());
        r.note("%-26s %10.4f ms  (n=%zu)", "train_full_step_ms_mean",
               mean(p.full->stepMs), p.full->stepMs.size());
        r.timing("train_sparse_step_ms_p50", p.sparse->stepMs, 0.5);
        r.timing("train_sparse_step_ms_p90", p.sparse->stepMs, 0.9);
        r.timing("train_full_step_ms_p50", p.full->stepMs, 0.5);
        r.timing("train_full_step_ms_p90", p.full->stepMs, 0.9);
        double rate = static_cast<double>(kBatch) * 1e3 / sparseMs;
        r.metric("throughput_per_s", rate, "1/s");
        r.note("%-26s %10.2f 1/s (sparse-BP samples/s) -> "
               "throughput_per_s",
               "train_sparse_samples_per_s", rate);
        r.note("sparse/full step p50: %.3f",
               quantile(p.sparse->stepMs, 0.5) /
                   std::max(1e-9, quantile(p.full->stepMs, 0.5)));
    } else {
        // Traced run: a second, identical pair is armed; untraced (U)
        // and traced (T) steps alternate over the same batches, so the
        // difference between the two is the cost of observing.
        Pair t;
        {
            Scoped s(spans, 0, "setup.traced");
            t = setUp(feeds, spans, s.index());
        }
        double perIter = 0;
        for (const Pair *q : {&p, &t})
            perIter += q->warmS / kWarm;
        int64_t iters = std::clamp<int64_t>(
            static_cast<int64_t>(a.seconds / std::max(1e-3, perIter)), 10,
            4000);
        for (Trainer *tr : {t.full.get(), t.sparse.get()}) {
            const pe::CompileReport &rep = tr->prog.report();
            tr->prog.executor().armTrace(static_cast<size_t>(
                iters * rep.kernelSteps *
                    (1 + tr->prog.executor().numThreads()) +
                1024));
        }
        bool ok = true;
        for (int64_t i = kWarm; ok && i < kWarm + iters; ++i) {
            const Feeds &f = feeds[static_cast<size_t>(i % kPool)];
            ok = step(*p.full, f, r, spans, i) &&
                 step(*t.full, f, r, spans, i) &&
                 step(*p.sparse, f, r, spans, i) &&
                 step(*t.sparse, f, r, spans, i);
        }

        KernelFold kernels;
        int64_t dropped = 0;
        double imbalance = 0;
        double tracedNs = 0, untracedNs = 0;
        for (Trainer *tr : {t.full.get(), t.sparse.get()}) {
            const pe::TraceBuffer &tb = *tr->prog.executor().trace();
            dropped += kernels.addTrace(tr->prog.executor(), tb);
            imbalance += shardImbalance(tb) / 2;
            for (double ms : tr->stepMs)
                tracedNs += ms * 1e6;
        }
        for (Trainer *tr : {p.full.get(), p.sparse.get()})
            for (double ms : tr->stepMs)
                untracedNs += ms * 1e6;

        zeroLayerMetrics(r);
        r.metric("engine.compile_ms", quantile(compileMs, 0.5), "ms");
        emitProgramLayers(r, {&t.full->prog.report(),
                              &t.sparse->prog.report()});
        kernels.emit(r, static_cast<int64_t>(tracedNs));
        r.metric("hw.shard_imbalance", imbalance, "ratio");
        r.metric("obs.trace_overhead",
                 untracedNs > 0 ? tracedNs / untracedNs - 1 : 0, "share");
        r.metric("obs.dropped_spans", static_cast<double>(dropped), "count");
        r.note("traced %lld iterations; top kernels: %s",
               static_cast<long long>(iters), kernels.top(6).c_str());
        r.check(dropped == 0, "traced run dropped no spans");
    }
    checkAgainstEager(*p.full, feeds, r);
    checkAgainstEager(*p.sparse, feeds, r);
}

} // namespace perfbench
