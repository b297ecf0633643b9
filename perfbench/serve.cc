/**
 * @file
 * serve_int8_vision: independent users sending one-shot requests. The
 * int8 MCUNet proxy is compiled and saved as plan files once; the
 * engine under test is built from the plan directory. An open loop of
 * Poisson arrivals at fixed rates is sent over kClients connections
 * (Session::run); each request is timed from when it was due, so a
 * stall also charges the requests queued behind it.
 */

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <iterator>
#include <limits>
#include <memory>
#include <thread>

#include "data/synthetic.h"
#include "engine/engine.h"
#include "frontend/models.h"
#include "layers.h"
#include "serve/serving.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr uint64_t kWeightSeed = 11; ///< the model; inputs come from --seed
constexpr int64_t kRes = 16;
constexpr int64_t kBuckets[] = {1, 2, 4, 8};
constexpr int kMaxRows = 4;      ///< requests carry 1..kMaxRows rows
constexpr int kInputsPerRows = 32; ///< distinct inputs per row count
constexpr int64_t kWindowUs = 200;
/** Offered rates of the sweep (requests/s), and the latency limit a
 *  rung's tail must meet for the engine to sustain it. */
constexpr double kRates[] = {1000, 2000, 3000};
constexpr double kLimitMs = 5.0;
/** Shares of --seconds spent on each rung; the rest measures capacity
 *  in a closed loop. */
constexpr double kRungShare[] = {0.3, 0.3, 0.2};
constexpr double kCapacityShare = 0.2;
/**
 * Each rung and the capacity phase run in kRounds segments, one per
 * round, the rounds following each other across the run: the host's
 * neighbours slow everything by 15-30% for stretches of seconds to
 * minutes, and interleaving lands such a stretch on every rung alike
 * instead of on whichever ran then.
 */
constexpr int kRounds = 6;
constexpr int kWarmRequests = 48; ///< per client, at each set-up
constexpr double kPreRollS = 1.0;
/**
 * The percentile a rung's latency limit applies to: p90, not p99. On
 * the 4-core host this benchmark
 * was sized on, a bare loop of 1 ms sleeps wakes >= 9 ms late on 0.1%
 * of wake-ups (host scheduling stalls of 10-15 ms, about one a
 * second); in an open loop each stall delays every request due during
 * it, ~1% of requests, so p99 measures the host's stalls, not the
 * engine. p99 is still printed.
 */
constexpr double kTail = 0.9;
/** Rung whose latency is primary_ms_*, and the light-load rung whose
 *  latency is secondary_ms_*. */
constexpr int kPrimaryRung = 1, kSecondaryRung = 0;
/** Requests per rung segment replayed by the correctness check. */
constexpr int kReplayedPerRung = 24;
/** Requests the traced engine may serve: bounds its span rings. */
constexpr int64_t kTracedRequestCap = 4000;

pe::ServedModel
model(int64_t batch, pe::ParamStore *store)
{
    pe::VisionConfig cfg;
    cfg.batch = batch;
    cfg.resolution = kRes;
    cfg.width = 0.5;
    cfg.blocks = 4;
    pe::Rng rng(kWeightSeed);
    pe::ModelSpec m = pe::buildMcuNet(cfg, rng, store);
    return pe::ServedModel{std::move(m.graph), {m.logits}};
}

pe::ServeOptions
serveOptions(int64_t windowUs, int workers)
{
    pe::ServeOptions so = pe::ServeOptions{}
                              .withBuckets(std::vector<int64_t>(
                                  std::begin(kBuckets), std::end(kBuckets)))
                              .withWorkers(workers)
                              .withCoalesceWindow(windowUs)
                              .withQueueCapacity(64);
    so.compile.precision = pe::Precision::Int8;
    return so;
}

std::unique_ptr<pe::ServingEngine>
loadEngine(const std::string &planDir, int64_t windowUs, int workers,
           size_t traceCapacity = 0)
{
    pe::ServeOptions so = serveOptions(windowUs, workers);
    so.planDir = planDir;
    if (traceCapacity > 0) {
        so.trace = true;
        so.traceCapacity = traceCapacity;
    }
    return std::make_unique<pe::ServingEngine>(
        [](int64_t) -> pe::ServedModel {
            throw std::logic_error("plan directory engines never compile");
        },
        nullptr, so);
}

struct Request {
    int64_t dueNs = 0; ///< offset from the rung's start
    int rows = 1;
    int input = 0;
    bool keep = false; ///< replayed by the correctness check
};

/** Poisson arrivals at @p rate for @p seconds (or @p maxRequests). */
std::vector<Request>
schedule(uint64_t seed, double rate, double seconds, int64_t maxRequests)
{
    pe::Rng rng(seed);
    std::vector<Request> out;
    double t = 0;
    for (;;) {
        t += -std::log(1.0 - static_cast<double>(rng.uniform())) / rate;
        if (t >= seconds || static_cast<int64_t>(out.size()) >= maxRequests)
            break;
        Request q;
        q.dueNs = static_cast<int64_t>(t * 1e9);
        q.rows = 1 + static_cast<int>(rng.randint(kMaxRows));
        q.input = static_cast<int>(rng.randint(kInputsPerRows));
        out.push_back(q);
    }
    for (int k = 0; k < kReplayedPerRung && !out.empty(); ++k)
        out[static_cast<size_t>(rng.randint(static_cast<int64_t>(
                out.size())))]
            .keep = true;
    return out;
}

/** One rung's outcome, per request in schedule order. */
struct RungResult {
    std::vector<double> latMs;  ///< done - due; +inf when failed
    std::vector<double> lateMs; ///< sent - due (generator lateness)
    std::vector<int64_t> doneNs;
    std::vector<std::pair<Request, pe::Tensor>> kept;
    int64_t attempted = 0, failed = 0;
    double wallS = 0;

    /** Add a later segment of the same rung. */
    void
    append(RungResult &&seg)
    {
        latMs.insert(latMs.end(), seg.latMs.begin(), seg.latMs.end());
        lateMs.insert(lateMs.end(), seg.lateMs.begin(), seg.lateMs.end());
        doneNs.insert(doneNs.end(), seg.doneNs.begin(), seg.doneNs.end());
        for (auto &k : seg.kept)
            kept.push_back(std::move(k));
        attempted += seg.attempted;
        failed += seg.failed;
        wallS += seg.wallS;
    }
};

/** Inputs: kInputsPerRows seeded batches for each row count. */
using InputPool = std::vector<std::vector<pe::Tensor>>;

RungResult
runRung(pe::ServingEngine &eng, const std::vector<Request> &reqs,
        const InputPool &inputs, SpanLog &spans, int64_t idBase)
{
    RungResult res;
    const size_t n = reqs.size();
    res.latMs.assign(n, 0);
    res.lateMs.assign(n, 0);
    res.doneNs.assign(n, 0);
    std::atomic<size_t> next{0};
    std::atomic<int64_t> failed{0};
    std::mutex keptMu;
    const int64_t base = nowNs() + 2'000'000;
    std::vector<std::thread> threads;
    for (int c = 0; c < kClients; ++c) {
        threads.emplace_back([&, c] {
            pe::Session s = eng.session();
            for (;;) {
                size_t i = next.fetch_add(1);
                if (i >= n)
                    break;
                const Request &q = reqs[i];
                const int64_t due = base + q.dueNs;
                int64_t now = nowNs();
                if (now < due)
                    std::this_thread::sleep_for(
                        std::chrono::nanoseconds(due - now));
                int64_t sent = nowNs();
                std::vector<pe::Tensor> out;
                try {
                    Scoped rs(spans, 1 + c, "run", -1,
                              idBase + static_cast<int64_t>(i));
                    out = s.run({{"x", inputs[static_cast<size_t>(q.rows)]
                                             [static_cast<size_t>(q.input)]}});
                } catch (const std::exception &) {
                    failed.fetch_add(1);
                }
                int64_t done = nowNs();
                res.doneNs[i] = done;
                res.lateMs[i] = msBetween(due, sent);
                res.latMs[i] = out.empty()
                                   ? std::numeric_limits<double>::infinity()
                                   : msBetween(due, done);
                if (q.keep && !out.empty()) {
                    std::lock_guard<std::mutex> lock(keptMu);
                    res.kept.emplace_back(q, out[0]);
                }
            }
        });
    }
    for (std::thread &t : threads)
        t.join();
    res.attempted = static_cast<int64_t>(n);
    res.failed = failed.load();
    int64_t last = base;
    for (int64_t d : res.doneNs)
        last = std::max(last, d);
    res.wallS = static_cast<double>(last - base) / 1e9;
    return res;
}

/** Completed requests per second with kClients connections each
 *  sending its next seeded request as soon as the last one returns: the
 *  engine's capacity on this traffic mix. */
double
measureCapacity(pe::ServingEngine &eng, const InputPool &inputs,
                uint64_t seed, double seconds, Report &r, SpanLog &spans)
{
    pe::ServeStats before = eng.stats();
    std::atomic<int64_t> done{0}, failed{0};
    const int64_t t0 = nowNs();
    const int64_t stop = t0 + static_cast<int64_t>(seconds * 1e9);
    std::vector<std::thread> threads;
    for (int c = 0; c < kClients; ++c) {
        threads.emplace_back([&, c] {
            pe::Rng rng(seed + static_cast<uint64_t>(c));
            pe::Session s = eng.session();
            for (int64_t i = 0; nowNs() < stop; ++i) {
                const auto rows = static_cast<size_t>(1 + rng.randint(kMaxRows));
                const auto in = static_cast<size_t>(rng.randint(kInputsPerRows));
                try {
                    Scoped rs(spans, 1 + c, "run", -1, i);
                    s.run({{"x", inputs[rows][in]}});
                    done.fetch_add(1);
                } catch (const std::exception &) {
                    failed.fetch_add(1);
                }
            }
        });
    }
    for (std::thread &t : threads)
        t.join();
    countPhase(r, done.load() + failed.load(), failed.load(), before,
               eng.stats());
    return static_cast<double>(done.load()) /
           (static_cast<double>(nowNs() - t0) / 1e9);
}

/** Latencies in completion order (for chunkedQuantile). */
std::vector<double>
byCompletion(const RungResult &res)
{
    std::vector<std::pair<int64_t, double>> v;
    for (size_t i = 0; i < res.latMs.size(); ++i)
        v.emplace_back(res.doneNs[i], res.latMs[i]);
    return inCompletionOrder(std::move(v));
}

/** Warm every bucket on every worker: bursts of mixed-row requests. */
void
warmUp(pe::ServingEngine &eng, const InputPool &inputs)
{
    std::vector<std::string> errors(kClients);
    std::vector<std::thread> threads;
    for (int c = 0; c < kClients; ++c) {
        threads.emplace_back([&, c] {
            try {
                pe::Session s = eng.session();
                for (int i = 0; i < kWarmRequests; ++i)
                    s.run({{"x", inputs[static_cast<size_t>(
                                     1 + (i + c) % kMaxRows)]
                                       [static_cast<size_t>(
                                           i % kInputsPerRows)]}});
            } catch (const std::exception &e) {
                errors[static_cast<size_t>(c)] = e.what();
            }
        });
    }
    for (std::thread &t : threads)
        t.join();
    for (const std::string &e : errors)
        if (!e.empty())
            throw std::runtime_error("warm-up: " + e);
}

/** What the replay of the kept requests found. */
struct ReplayCount {
    int64_t replayed = 0;
    int64_t mismatches = 0; ///< matched no bucket's serial run
    int64_t regrouped = 0;  ///< matched a larger bucket, not their own
};

/**
 * Each kept output must be byte-equal to a serial run of the request
 * alone through the same plan files (1 worker, coalescing off),
 * zero-padded into the bucket its coalesced group ran in — the
 * row-independence the coalescing contract rests on. Which bucket that
 * was is not visible per request, so every bucket that fits the request
 * is a candidate, from its own (solo) bucket up.
 *
 * The int8 plans are calibrated per bucket, so a request grouped into
 * a larger bucket does not reproduce its own solo run byte for byte
 * (a known defect of src/serve, against the cross-bucket wording in
 * serving.h); those are counted as regrouped, not as wrong.
 */
void
checkReplay(const std::string &planDir, const RungResult &res,
            const InputPool &inputs, ReplayCount &count)
{
    auto ref = loadEngine(planDir, 0, 1);
    pe::Session s = ref->session();
    for (const auto &[q, got] : res.kept) {
        const pe::Tensor &x = inputs[static_cast<size_t>(q.rows)]
                                    [static_cast<size_t>(q.input)];
        const auto n = static_cast<size_t>(got.size());
        bool own = true, matched = false;
        for (int64_t b : kBuckets) {
            if (b < q.rows)
                continue;
            pe::Tensor feed = x;
            if (!own) {
                pe::Shape shape = x.shape();
                shape[0] = b;
                feed = pe::Tensor::zeros(shape);
                std::memcpy(feed.data(), x.data(),
                            sizeof(float) * static_cast<size_t>(x.size()));
            }
            pe::Tensor want = s.run({{"x", feed}})[0];
            // The group's output must come back sliced to the request's
            // own rows, and those rows must equal the padded run's.
            matched = got.shape()[0] == q.rows &&
                      std::memcmp(want.data(), got.data(),
                                  sizeof(float) * n) == 0;
            if (matched)
                break;
            own = false;
        }
        ++count.replayed;
        count.mismatches += !matched;
        count.regrouped += matched && !own;
    }
}

int64_t
dirBytes(const std::string &dir)
{
    int64_t bytes = 0;
    for (const auto &e : std::filesystem::directory_iterator(dir))
        bytes += static_cast<int64_t>(e.file_size());
    return bytes;
}

} // namespace

void
runServe(const Args &a, Report &r, SpanLog &spans)
{
    pe::SyntheticVision task = pe::SyntheticVision::pretrain(3, kRes);
    pe::Rng rng(a.seed);
    InputPool inputs(kMaxRows + 1);
    for (int rows = 1; rows <= kMaxRows; ++rows)
        for (int i = 0; i < kInputsPerRows; ++i)
            inputs[static_cast<size_t>(rows)].push_back(
                task.sample(rows, rng).x);

    // Compile once (calibrated from seeded batches) and save the plans:
    // the deployment artefact. Not part of setup_s, which is what a
    // serving process pays at start: plan load plus warm-up.
    const std::string planDir =
        a.outDir + "/serve_int8_vision-" + std::to_string(a.seed) + "-plans";
    std::filesystem::remove_all(planDir);
    makeDirs(planDir);
    double compileMs = 0, saveMs = 0;
    {
        Scoped s(spans, 0, "compile");
        auto store = std::make_shared<pe::ParamStore>();
        pe::ServeOptions so = serveOptions(kWindowUs, kWorkers);
        for (int i = 0; i < 4; ++i)
            so.calibration.push_back({{"x", task.sample(8, rng).x}});
        int64_t t0 = nowNs();
        pe::ServingEngine compiled(
            [store](int64_t b) { return model(b, store.get()); }, store, so);
        int64_t t1 = nowNs();
        {
            Scoped ss(spans, 0, "savePlans", s.index());
            compiled.savePlans(planDir);
        }
        compileMs = msBetween(t0, t1);
        saveMs = msBetween(t1, nowNs());
    }

    std::vector<double> setupS, loadMs;
    std::unique_ptr<pe::ServingEngine> eng;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        eng.reset();
        Scoped s(spans, 0, "setup", -1, rep);
        int64_t t0 = nowNs();
        {
            Scoped ls(spans, 0, "loadPlans", s.index());
            eng = loadEngine(planDir, kWindowUs, kWorkers);
        }
        loadMs.push_back(msBetween(t0, nowNs()));
        warmUp(*eng, inputs);
        setupS.push_back(static_cast<double>(nowNs() - t0) / 1e9);
    }
    r.simdTier = eng->bucketReport(1).simdTier;

    ReplayCount replay;
    auto timedRung = [&](pe::ServingEngine &e,
                         const std::vector<Request> &reqs, int64_t idBase) {
        pe::ServeStats before = e.stats();
        RungResult res = runRung(e, reqs, inputs, spans, idBase);
        countPhase(r, res.attempted, res.failed, before, e.stats());
        return res;
    };

    if (!a.trace) {
        // Untimed pre-roll at the primary rate, then the rungs and the
        // capacity phase in kRounds interleaved rounds, so a slow
        // stretch of the host lands on every one of them rather than
        // on whichever ran then.
        timedRung(*eng,
                  schedule(a.seed * 31 + 97, kRates[kPrimaryRung], kPreRollS,
                           INT64_MAX),
                  -1);
        std::vector<RungResult> rungs(std::size(kRates));
        std::vector<double> segCapacity;
        for (int round = 0; round < kRounds; ++round) {
            for (size_t k = 0; k < std::size(kRates); ++k) {
                RungResult seg = timedRung(
                    *eng,
                    schedule(a.seed * 31 + k * kRounds + round, kRates[k],
                             kRungShare[k] * a.seconds / kRounds, INT64_MAX),
                    static_cast<int64_t>(k * kRounds + round) << 32);
                rungs[k].append(std::move(seg));
            }
            segCapacity.push_back(measureCapacity(
                *eng, inputs, a.seed * 31 + 99 + round,
                kCapacityShare * a.seconds / kRounds, r, spans));
        }
        double capacity = mean(segCapacity); // equal-length segments
        double rss = peakRssMb();

        // serve_max_rps: the highest rung whose tail meets the limit
        // and whose backlog does not grow, reported as the completion
        // rate measured there. When the next rung misses, the rate is
        // interpolated toward it by where the limit falls between the
        // two tails, so the figure moves smoothly as the knee shifts
        // instead of jumping by a whole rung.
        std::vector<double> tail(rungs.size()), rate(rungs.size());
        std::vector<bool> meets(rungs.size());
        double lateMax = 0;
        for (size_t k = 0; k < rungs.size(); ++k) {
            const RungResult &res = rungs[k];
            std::vector<double> lat = byCompletion(res);
            tail[k] = chunkedQuantile(lat, kTail);
            // A growing backlog shows as lateness that keeps rising:
            // the median over the rung's last quarter leaves the limit
            // behind, where a transient stall does not move it.
            double lastLate = quantile(
                std::vector<double>(res.lateMs.begin() +
                                        static_cast<long>(
                                            res.lateMs.size() * 3 / 4),
                                    res.lateMs.end()),
                0.5);
            rate[k] = static_cast<double>(res.attempted - res.failed) /
                      std::max(1e-9, res.wallS);
            meets[k] = tail[k] <= kLimitMs && lastLate <= kLimitMs;
            for (double l : res.lateMs)
                lateMax = std::max(lateMax, l);
            r.note("rung %5.0f rps: %6zu requests, p50 %.4f p90 %.4f p99 "
                   "%.4f ms, last-quarter lateness p50 %.3f ms, %.1f rps "
                   "measured -> %s",
                   kRates[k], res.latMs.size(), quantile(lat, 0.5),
                   tail[k], quantile(lat, 0.99), lastLate, rate[k],
                   meets[k] ? "meets" : "misses");
        }
        double maxRps = 0;
        for (size_t k = 0; k < rungs.size(); ++k) {
            if (!meets[k])
                continue;
            maxRps = rate[k];
            if (k + 1 < rungs.size() && !meets[k + 1] &&
                tail[k + 1] > tail[k]) {
                double f = std::clamp((kLimitMs - tail[k]) /
                                          (tail[k + 1] - tail[k]),
                                      0.0, 1.0);
                maxRps = rate[k] + f * (rate[k + 1] - rate[k]);
            }
        }

        r.metric("setup_s", quantile(setupS, 0.5), "s");
        r.note("%-26s %10.4f s   (median of %d set-ups)", "setup_s",
               quantile(setupS, 0.5), kSetupReps);
        r.metric("peak_rss_mb", rss, "MB");
        std::vector<double> prim = byCompletion(rungs[kPrimaryRung]);
        std::vector<double> sec = byCompletion(rungs[kSecondaryRung]);
        r.metric("primary_ms", r.timing("serve_ms_p50 @2000rps", prim, 0.5),
                 "ms");
        r.timing("serve_ms_p90 @2000rps", prim, kTail);
        r.timing("serve_ms_p99 @2000rps", prim, 0.99);
        r.metric("secondary_ms",
                 r.timing("serve_ms_p50 @1000rps", sec, 0.5), "ms");
        r.timing("serve_ms_p90 @1000rps", sec, kTail);
        r.timing("serve_ms_p99 @1000rps", sec, 0.99);
        r.metric("throughput_per_s", capacity, "1/s");
        r.note("%-26s %10.2f 1/s (highest rung with p90 <= %.0f ms)",
               "serve_max_rps", maxRps, kLimitMs);
        r.note("%-26s %10.2f 1/s (closed loop, %d connections) -> "
               "throughput_per_s",
               "serve_capacity_rps", capacity, kClients);
        r.note("generator lateness max %.3f ms", lateMax);
        for (const RungResult &res : rungs)
            checkReplay(planDir, res, inputs, replay);
    } else {
        // Fixed work at the primary rate on an untraced (U) and a
        // traced (T) engine in U T U T order, the same schedule for both
        // halves of a pair: the difference in median latency is the cost
        // of observing (medians, so a host stall in one phase does not
        // read as tracing cost).
        const int64_t perPhase = std::min<int64_t>(
            kTracedRequestCap / 2,
            static_cast<int64_t>(kRates[kPrimaryRung] * a.seconds / 4));
        int64_t maxSteps = 0;
        for (const pe::BucketStats &b : eng->stats().buckets)
            maxSteps = std::max<int64_t>(
                maxSteps, eng->bucketReport(b.batch).kernelSteps);
        // Every traced request (plus warm-up) could land on one
        // session's ring; size for that so none is dropped.
        const auto cap = static_cast<size_t>(
            (2 * perPhase + kClients * kWarmRequests + 64) * maxSteps);
        int64_t t0 = nowNs();
        std::unique_ptr<pe::ServingEngine> traced;
        {
            Scoped ls(spans, 0, "loadPlans.traced");
            traced = loadEngine(planDir, kWindowUs, kWorkers, cap);
        }
        warmUp(*traced, inputs);
        double tracedWall = static_cast<double>(nowNs() - t0) / 1e9;
        RungResult untracedRes, tracedRes;
        double lateMax = 0;
        for (int pair = 0; pair < 2; ++pair) {
            std::vector<Request> reqs =
                schedule(a.seed * 31 + 7 + static_cast<uint64_t>(pair),
                         kRates[kPrimaryRung], 1e9, perPhase);
            for (pe::ServingEngine *e : {eng.get(), traced.get()}) {
                RungResult res =
                    timedRung(*e, reqs, static_cast<int64_t>(pair) << 32);
                for (double l : res.lateMs)
                    lateMax = std::max(lateMax, l);
                if (e == traced.get())
                    tracedWall += res.wallS;
                if (pair == 0 && e == eng.get())
                    checkReplay(planDir, res, inputs, replay);
                (e == eng.get() ? untracedRes : tracedRes)
                    .append(std::move(res));
            }
        }

        std::string chrome = a.outDir + "/serve_int8_vision-" +
                             std::to_string(a.seed) + "-chrome.json";
        if (!traced->exportChromeTrace(chrome))
            throw std::runtime_error("cannot write " + chrome);
        ServeTraceFold fold;
        KernelFold kernels;
        if (!foldServeTrace(chrome, planFlops(*traced, planDir, true), fold,
                            kernels))
            throw std::runtime_error("cannot parse " + chrome);

        zeroLayerMetrics(r);
        r.metric("engine.compile_ms", compileMs, "ms");
        int64_t dropped =
            emitServeLayers(r, *traced, fold, kernels, tracedWall);
        r.metric("plan.save_ms", saveMs, "ms");
        r.metric("plan.load_ms", quantile(loadMs, 0.5), "ms");
        r.metric("plan.bytes", static_cast<double>(dirBytes(planDir)), "B");
        r.metric("obs.trace_overhead",
                 quantile(tracedRes.latMs, 0.5) /
                         quantile(untracedRes.latMs, 0.5) -
                     1,
                 "share");
        r.metric("obs.dropped_spans", static_cast<double>(dropped),
                 "count");
        r.metric("load.late_ms_max", lateMax, "ms");
        r.note("traced %lld requests per phase; top kernels: %s",
               static_cast<long long>(perPhase), kernels.top(6).c_str());
        r.check(dropped == 0, "traced run dropped no spans");
    }

    char what[240];
    std::snprintf(what, sizeof(what),
                  "serve: %lld sampled requests replayed through the plan "
                  "files (1 worker, coalescing off, padded into a bucket "
                  "that fits): %lld not byte-equal",
                  static_cast<long long>(replay.replayed),
                  static_cast<long long>(replay.mismatches));
    r.check(replay.replayed > 0 && replay.mismatches == 0, what);
    r.note("serve: %lld of %lld replayed requests matched only a larger "
           "bucket than their own: coalescing changed their int8 output "
           "(buckets are calibrated separately)",
           static_cast<long long>(replay.regrouped),
           static_cast<long long>(replay.replayed));
    if (a.trace)
        r.metric("quant.regrouped_share",
                 static_cast<double>(replay.regrouped) /
                     static_cast<double>(std::max<int64_t>(1, replay.replayed)),
                 "share");
}

} // namespace perfbench
