/**
 * @file
 * chat_decode: chat users arrive staggered and each waits for the
 * reply. A closed loop of kClients clients runs conversations back to
 * back through Session handles on a generative ServingEngine serving
 * the LLaMA-proxy decoder: a seeded prompt, then greedy decode steps
 * (the argmax of the last logits is fed back), then close.
 */

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <thread>

#include "engine/engine.h"
#include "frontend/models.h"
#include "layers.h"
#include "serve/serving.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr uint64_t kWeightSeed = 7; ///< the model; inputs come from --seed
constexpr int64_t kPromptMin = 4, kPromptMax = 32;
constexpr int64_t kDecodeMin = 16, kDecodeMax = 64;
constexpr int64_t kWindowUs = 200;
/** Conversations per client replayed by the correctness check. */
constexpr int kReplayedPerClient = 2;
/** The fp32 tier contract: |a - b| <= tol * max(1, |b|). */
constexpr double kLogitTol = 1e-5;
/** Requests the traced engine may serve: bounds its span rings. */
constexpr int64_t kTracedRequestCap = 2400;
/** Decode steps one client can complete per second, with margin
 *  (~1000/s measured); sizes the sample buffers. */
constexpr double kMaxTokensPerClientS = 3000;

pe::DecoderConfig
decoderConfig()
{
    return pe::DecoderConfig{}
        .withDim(128)
        .withHeads(4)
        .withFfDim(256)
        .withLayers(2)
        .withMaxSeq(128);
}

std::unique_ptr<pe::ServingEngine>
makeEngine(int64_t windowUs, int workers, size_t traceCapacity = 0)
{
    auto store = std::make_shared<pe::ParamStore>();
    const pe::DecoderConfig cfg = decoderConfig();
    pe::ServeOptions so = pe::ServeOptions{}
                              .withBuckets({8, 16, 32})
                              .withDecodeBuckets({1, 2, 4})
                              .withWorkers(workers)
                              .withCoalesceWindow(windowUs)
                              .withQueueCapacity(64);
    if (traceCapacity > 0) {
        so.trace = true;
        so.traceCapacity = traceCapacity;
    }
    so.decodeFactory = [store, cfg](int64_t streams) {
        pe::Rng r(kWeightSeed);
        pe::ModelSpec m = pe::buildDecoderDecode(cfg, streams, r, store.get());
        return pe::ServedModel{std::move(m.graph), {m.logits}};
    };
    return std::make_unique<pe::ServingEngine>(
        [store, cfg](int64_t prompt) {
            pe::Rng r(kWeightSeed);
            pe::ModelSpec m =
                pe::buildDecoderPrefill(cfg, prompt, r, store.get());
            return pe::ServedModel{std::move(m.graph), {m.logits}};
        },
        store, so);
}

/** One seeded conversation. */
struct Conversation {
    std::vector<float> prompt;
    int64_t decodeSteps = 0;
};

Conversation
makeConversation(pe::Rng &rng, int64_t vocab)
{
    Conversation c;
    int64_t len = kPromptMin + rng.randint(kPromptMax - kPromptMin + 1);
    for (int64_t i = 0; i < len; ++i)
        c.prompt.push_back(static_cast<float>(rng.randint(vocab)));
    c.decodeSteps = kDecodeMin + rng.randint(kDecodeMax - kDecodeMin + 1);
    return c;
}

/** What a replayed conversation must reproduce. */
struct Transcript {
    std::vector<float> prompt;
    std::vector<float> fed;                 ///< token fed to decode step k
    std::vector<std::vector<float>> logits; ///< prefill last row, then
                                            ///< one row per decode step
};

/** One client's samples: (completion ns, latency ms). */
struct ClientLog {
    std::vector<std::pair<int64_t, double>> ttft, itl;
    int64_t attempted = 0, failed = 0, tokens = 0;
    std::vector<Transcript> transcripts;
    std::string error;
};

pe::Tensor
tokens(const std::vector<float> &t)
{
    pe::Tensor x({static_cast<int64_t>(t.size()), 1});
    std::memcpy(x.data(), t.data(), sizeof(float) * t.size());
    return x;
}

/**
 * Run @p conv on @p eng through one Session until done or @p deadline.
 * Greedy: each step feeds the argmax of the previous logits.
 */
void
converse(pe::ServingEngine &eng, const Conversation &conv, int64_t deadline,
         ClientLog &log, Transcript *keep, SpanLog &spans, int lane,
         int64_t id)
{
    const int64_t vocab = decoderConfig().vocab;
    Scoped cs(spans, lane, "conversation", -1, id);
    try {
        pe::Session s = eng.session();
        ++log.attempted;
        int64_t t0 = nowNs();
        std::vector<pe::Tensor> out;
        {
            Scoped ps(spans, lane, "prefill", cs.index(), id);
            out = s.prefill({{"x", tokens(conv.prompt)}});
        }
        int64_t t1 = nowNs();
        log.ttft.emplace_back(t1, msBetween(t0, t1));
        const float *row =
            out[0].data() +
            (static_cast<int64_t>(conv.prompt.size()) - 1) * vocab;
        if (keep) {
            keep->prompt = conv.prompt;
            keep->logits.emplace_back(row, row + vocab);
        }
        float next = static_cast<float>(argmax(row, vocab));
        pe::Tensor x({1, 1});
        for (int64_t k = 0; k < conv.decodeSteps && nowNs() < deadline;
             ++k) {
            x[0] = next;
            ++log.attempted;
            t0 = nowNs();
            {
                Scoped ds(spans, lane, "decode", cs.index(), id);
                out = s.decode({{"x", x}});
            }
            t1 = nowNs();
            log.itl.emplace_back(t1, msBetween(t0, t1));
            ++log.tokens;
            if (keep) {
                keep->fed.push_back(next);
                keep->logits.emplace_back(out[0].data(),
                                          out[0].data() + vocab);
            }
            next = static_cast<float>(argmax(out[0].data(), vocab));
        }
    } catch (const std::exception &e) {
        ++log.failed;
        log.error = e.what();
    }
}

/**
 * kClients clients, each running its own seeded conversation stream
 * back to back: until @p deadline when @p perClient is 0, else exactly
 * @p perClient conversations (the traced run's fixed work). Returns the
 * wall time in seconds.
 */
double
runClients(pe::ServingEngine &eng, uint64_t seed, int64_t deadline,
           int perClient, std::vector<ClientLog> &logs, SpanLog &spans,
           bool keepTranscripts)
{
    const int64_t vocab = decoderConfig().vocab;
    logs.assign(kClients, ClientLog{});
    // Sample buffers sized and touched up front from the run length, so
    // their share of peak_rss_mb does not follow the measured rate.
    const auto samplesPerClient = static_cast<size_t>(
        perClient > 0 ? perClient * (1 + kDecodeMax)
                      : static_cast<double>(deadline - nowNs()) / 1e9 *
                            kMaxTokensPerClientS);
    for (ClientLog &log : logs) {
        for (auto *v : {&log.itl, &log.ttft}) {
            v->resize(samplesPerClient + 1024);
            v->clear();
        }
    }
    int64_t t0 = nowNs();
    std::vector<std::thread> threads;
    for (int c = 0; c < kClients; ++c) {
        threads.emplace_back([&, c] {
            pe::Rng rng(seed * 0x9E3779B97F4A7C15ull +
                        static_cast<uint64_t>(c) + 1);
            ClientLog &log = logs[static_cast<size_t>(c)];
            for (int j = 0; perClient > 0 ? j < perClient
                                          : nowNs() < deadline;
                 ++j) {
                Conversation conv = makeConversation(rng, vocab);
                Transcript *keep = nullptr;
                if (keepTranscripts && j < kReplayedPerClient) {
                    log.transcripts.emplace_back();
                    keep = &log.transcripts.back();
                }
                converse(eng, conv, deadline, log, keep, spans, 1 + c,
                         c * 1000000 + j);
            }
        });
    }
    for (std::thread &t : threads)
        t.join();
    return static_cast<double>(nowNs() - t0) / 1e9;
}

/** Latencies of all clients in completion order. */
std::vector<double>
merged(const std::vector<ClientLog> &logs,
       std::vector<std::pair<int64_t, double>> ClientLog::*field)
{
    std::vector<std::pair<int64_t, double>> all;
    for (const ClientLog &l : logs)
        all.insert(all.end(), (l.*field).begin(), (l.*field).end());
    return inCompletionOrder(std::move(all));
}

/** Count one phase of client logs (see countPhase). */
void
count(const std::vector<ClientLog> &logs, const pe::ServeStats &before,
      const pe::ServeStats &after, Report &r, int64_t *tokens)
{
    int64_t attempted = 0, thrown = 0;
    for (const ClientLog &l : logs) {
        attempted += l.attempted;
        thrown += l.failed;
        if (!l.error.empty())
            r.note("chat client failed: %s", l.error.c_str());
        if (tokens)
            *tokens += l.tokens;
    }
    countPhase(r, attempted, thrown, before, after);
}

/** Replay the kept transcripts serially on a fresh engine with
 *  coalescing off: logits within the tier tolerance, greedy tokens
 *  equal wherever the top two logits are not tied within it. */
void
checkReplay(const std::vector<ClientLog> &logs, Report &r)
{
    const int64_t vocab = decoderConfig().vocab;
    auto ref = makeEngine(0, 1);
    double worst = 0;
    int64_t steps = 0, tokenMismatches = 0, logitMismatches = 0, convs = 0;
    auto compare = [&](const float *got, const std::vector<float> &want,
                       float expectNext, bool checkNext) {
        for (int64_t i = 0; i < vocab; ++i) {
            double ref = want[static_cast<size_t>(i)];
            double d = std::abs(got[i] - ref) / std::max(1.0, std::abs(ref));
            worst = std::max(worst, d);
            logitMismatches += d > kLogitTol;
        }
        if (!checkNext)
            return;
        std::vector<float> sorted(got, got + vocab);
        std::partial_sort(sorted.begin(), sorted.begin() + 2, sorted.end(),
                          std::greater<float>());
        bool tie = sorted[0] - sorted[1] <=
                   kLogitTol * std::max(1.0f, std::abs(sorted[0]));
        tokenMismatches +=
            !tie && static_cast<float>(argmax(got, vocab)) != expectNext;
    };
    for (const ClientLog &l : logs) {
        for (const Transcript &t : l.transcripts) {
            if (t.logits.empty())
                continue;
            ++convs;
            pe::Session s = ref->session();
            std::vector<pe::Tensor> out =
                s.prefill({{"x", tokens(t.prompt)}});
            const float *row =
                out[0].data() +
                (static_cast<int64_t>(t.prompt.size()) - 1) * vocab;
            compare(row, t.logits[0], t.fed.empty() ? 0 : t.fed[0],
                    !t.fed.empty());
            pe::Tensor x({1, 1});
            for (size_t k = 0; k < t.fed.size(); ++k) {
                x[0] = t.fed[k];
                out = s.decode({{"x", x}});
                bool hasNext = k + 1 < t.fed.size();
                compare(out[0].data(), t.logits[k + 1],
                        hasNext ? t.fed[k + 1] : 0, hasNext);
                ++steps;
            }
        }
    }
    char what[256];
    std::snprintf(what, sizeof(what),
                  "chat: %lld sampled conversations (%lld decode steps) "
                  "replayed serially, coalescing off: %lld greedy token "
                  "mismatches, %lld logits beyond %.0e (worst rel %.2e)",
                  static_cast<long long>(convs),
                  static_cast<long long>(steps),
                  static_cast<long long>(tokenMismatches),
                  static_cast<long long>(logitMismatches), kLogitTol, worst);
    r.check(convs > 0 && tokenMismatches == 0 && logitMismatches == 0,
            what);
}

/** Warm every prompt bucket and the concurrent decode buckets. */
void
warmUp(pe::ServingEngine &eng, SpanLog &spans)
{
    std::vector<ClientLog> logs(kClients);
    std::vector<std::thread> threads;
    for (int c = 0; c < kClients; ++c) {
        threads.emplace_back([&, c] {
            pe::Rng rng(1000 + static_cast<uint64_t>(c));
            Conversation conv = makeConversation(rng, decoderConfig().vocab);
            conv.prompt.resize(static_cast<size_t>(c == 3 ? 5 : 8 << c));
            conv.decodeSteps = 8;
            converse(eng, conv, INT64_MAX, logs[static_cast<size_t>(c)],
                     nullptr, spans, 1 + c, -1);
        });
    }
    for (std::thread &t : threads)
        t.join();
    for (const ClientLog &l : logs)
        if (!l.error.empty())
            throw std::runtime_error("warm-up: " + l.error);
}

} // namespace

void
runChat(const Args &a, Report &r, SpanLog &spans)
{
    std::vector<double> setupS, compileMs;
    std::unique_ptr<pe::ServingEngine> eng;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        eng.reset();
        Scoped s(spans, 0, "setup", -1, rep);
        int64_t t0 = nowNs();
        {
            Scoped cs(spans, 0, "compile", s.index());
            eng = makeEngine(kWindowUs, kWorkers);
        }
        compileMs.push_back(msBetween(t0, nowNs()));
        warmUp(*eng, spans);
        setupS.push_back(static_cast<double>(nowNs() - t0) / 1e9);
    }
    r.simdTier = eng->bucketReport(1).simdTier;

    std::vector<ClientLog> logs;
    if (!a.trace) {
        int64_t deadline = nowNs() + static_cast<int64_t>(a.seconds * 1e9);
        pe::ServeStats before = eng->stats();
        double wall =
            runClients(*eng, a.seed, deadline, 0, logs, spans, true);
        double rss = peakRssMb();
        pe::ServeStats st = eng->stats();
        int64_t toks = 0;
        count(logs, before, st, r, &toks);

        r.metric("setup_s", quantile(setupS, 0.5), "s");
        r.note("%-26s %10.4f s   (median of %d set-ups)", "setup_s",
               quantile(setupS, 0.5), kSetupReps);
        r.metric("peak_rss_mb", rss, "MB");
        std::vector<double> itl = merged(logs, &ClientLog::itl);
        std::vector<double> ttft = merged(logs, &ClientLog::ttft);
        r.metric("primary_ms", r.timing("itl_ms_p50", itl, 0.5), "ms");
        r.timing("itl_ms_p99", itl, 0.99);
        r.metric("secondary_ms", r.timing("ttft_ms_p50", ttft, 0.5), "ms");
        r.timing("ttft_ms_p90", ttft, 0.9);
        double rate = static_cast<double>(toks) / wall;
        r.metric("throughput_per_s", rate, "1/s");
        r.note("%-26s %10.2f 1/s (%lld tokens in %.2f s) -> "
               "throughput_per_s",
               "decode_tokens_per_s", rate, static_cast<long long>(toks),
               wall);
        r.note("engine: %lld runs, %lld shared, coalesce rate %.3f",
               static_cast<long long>(st.runs),
               static_cast<long long>(st.coalescedRuns), st.coalesceRate);
    } else {
        // Fixed work on an untraced (U) and a traced (T) engine, in
        // U T U T order: the same conversations go to U and T of a
        // pair, so the wall difference is the cost of observing.
        const int perClient = static_cast<int>(std::max<int64_t>(
            2, kTracedRequestCap /
                   (2 * kClients * (1 + (kDecodeMin + kDecodeMax) / 2))));
        int64_t maxSteps = 0;
        for (const pe::BucketStats &b : eng->stats().buckets)
            maxSteps = std::max<int64_t>(maxSteps,
                                         eng->bucketReport(b.batch)
                                             .kernelSteps);
        // Every traced request (plus warm-up) could land on one
        // session's ring; size for that so none is dropped.
        const auto cap = static_cast<size_t>(
            (2 * kClients * perClient * (1 + kDecodeMax) + 64) * maxSteps);
        int64_t t0 = nowNs();
        std::unique_ptr<pe::ServingEngine> traced;
        {
            Scoped cs(spans, 0, "compile.traced");
            traced = makeEngine(kWindowUs, kWorkers, cap);
        }
        warmUp(*traced, spans);
        double tracedWall = static_cast<double>(nowNs() - t0) / 1e9;
        double untracedWall = 0, tracedPhases = 0;
        std::vector<ClientLog> phase;
        for (int pair = 0; pair < 2; ++pair) {
            uint64_t seed = a.seed + static_cast<uint64_t>(pair) * 7919;
            for (pe::ServingEngine *e : {eng.get(), traced.get()}) {
                pe::ServeStats before = e->stats();
                double wall = runClients(*e, seed, INT64_MAX, perClient,
                                         phase, spans,
                                         pair == 0 && e == eng.get());
                count(phase, before, e->stats(), r, nullptr);
                (e == eng.get() ? untracedWall : tracedPhases) += wall;
                if (pair == 0 && e == eng.get())
                    logs = phase;
            }
        }
        tracedWall += tracedPhases;

        std::string dir = a.outDir + "/chat_decode-" +
                          std::to_string(a.seed);
        makeDirs(dir);
        std::string chrome = dir + "/chrome.json";
        if (!traced->exportChromeTrace(chrome))
            throw std::runtime_error("cannot write " + chrome);
        traced->savePlans(dir + "/plans");
        ServeTraceFold fold;
        KernelFold kernels;
        if (!foldServeTrace(chrome, planFlops(*traced, dir + "/plans", false),
                            fold, kernels))
            throw std::runtime_error("cannot parse " + chrome);

        zeroLayerMetrics(r);
        r.metric("engine.compile_ms", quantile(compileMs, 0.5), "ms");
        int64_t dropped =
            emitServeLayers(r, *traced, fold, kernels, tracedWall);
        r.metric("obs.trace_overhead", tracedPhases / untracedWall - 1,
                 "share");
        r.metric("obs.dropped_spans", static_cast<double>(dropped),
                 "count");
        r.note("traced %d conversations per client per phase; top "
               "kernels: %s",
               perClient, kernels.top(6).c_str());
        r.check(dropped == 0, "traced run dropped no spans");
    }
    checkReplay(logs, r);
}

} // namespace perfbench
