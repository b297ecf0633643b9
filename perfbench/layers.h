/**
 * @file
 * Per-layer metrics: the fixed list the traced run reports (named
 * <module>.<metric> after src/), and the folds that fill it from the
 * reports the library exposes — CompileReport, profileTrace over an
 * armed executor, and the serving engine's stats() and Chrome trace.
 */

#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common.h"

namespace pe {
class Executor;
class ServingEngine;
class TraceBuffer;
struct CompileReport;
struct ServeStats;
} // namespace pe

namespace perfbench {

/** Report every per-layer metric of the benchmark as 0, so a layer a
 *  workload does not exercise still reports (as zero). */
void zeroLayerMetrics(Report &r);

/** engine.* / runtime.* / hw.sharded_steps / quant.fallbacks summed
 *  over the compiled programs of a workload. */
void emitProgramLayers(Report &r,
                       const std::vector<const pe::CompileReport *> &reps);

/**
 * Kernel step time folded by op: the source of every kernels.* figure
 * and of quant.int8_share. Fed from profileTrace (training programs)
 * or from the serving engine's Chrome trace.
 */
class KernelFold
{
  public:
    /** @p flops: analytical FLOPs of all @p calls together. */
    void add(const std::string &op, const std::string &variant,
             int64_t totalNs, double flops);
    /** Fold @p ex's trace through profileTrace; returns the trace's
     *  dropped-span count. */
    int64_t addTrace(const pe::Executor &ex, const pe::TraceBuffer &tb);

    int64_t totalNs() const { return totalNs_; }

    /** kernels.<Op>.share/.gflops for the fixed op list, kernels.other
     *  .share, kernels.scalar_share, quant.int8_share, and
     *  kernels.span_coverage = step time / @p wallNs (the wall the
     *  step spans should explain). */
    void emit(Report &r, int64_t wallNs) const;

    /** The top ops by time, for the human-readable block. */
    std::string top(int n) const;

  private:
    struct Row {
        int64_t ns = 0;
        double flops = 0;
    };
    std::map<std::string, Row> ops_;
    int64_t totalNs_ = 0;
    int64_t scalarNs_ = 0; ///< scalar variant of an op with a SIMD tier
    int64_t int8Ns_ = 0;   ///< integer quantized kernels
};

/** Mean over sharded step calls of max/mean shard wall time (0 when
 *  the trace holds no shard spans). */
double shardImbalance(const pe::TraceBuffer &tb);

/** What the serving engine's Chrome trace says about its requests. */
struct ServeTraceFold {
    std::vector<double> queueWaitUs; ///< enqueue -> dequeue, per request
    std::vector<double> bindUs;      ///< per worker run
    int64_t runSpanNs = 0;           ///< summed worker-run time
    int64_t lifecycleRecords = 0;    ///< request lanes exported
    std::map<int64_t, int64_t> stepSpans; ///< bucket batch -> spans
};

/** Count one serving phase: @p attempted Session calls, of which
 *  @p thrown threw, against the engine's failed and rejected counters
 *  over the phase. A worker failure both counts there and rethrows from
 *  the call, so the larger of the two is taken. */
void countPhase(Report &r, int64_t attempted, int64_t thrown,
                const pe::ServeStats &before, const pe::ServeStats &after);

/** FLOPs of (bucket batch, node id) in a served plan. */
using FlopsOf = std::function<double(int64_t bucket, int node)>;

/** Load the plan files of @p eng's buckets from @p planDir and index
 *  each node's analytical FLOPs (int8 ops counted as their fp32
 *  counterparts' operations). */
FlopsOf planFlops(const pe::ServingEngine &eng, const std::string &planDir,
                  bool int8);

/**
 * Parse a ServingEngine::exportChromeTrace file into @p fold and
 * @p kernels. Returns false when the file cannot be read or parsed.
 */
bool foldServeTrace(const std::string &path, const FlopsOf &flopsOf,
                    ServeTraceFold &fold, KernelFold &kernels);

/**
 * serve.* metrics of a traced engine, plus the program-level layers of
 * its bucket plans and the kernel fold; returns the spans the engine's
 * rings dropped (expected minus exported).
 */
int64_t emitServeLayers(Report &r, const pe::ServingEngine &eng,
                        const ServeTraceFold &fold,
                        const KernelFold &kernels, double tracedWallS);

} // namespace perfbench
