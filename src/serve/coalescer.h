/**
 * @file
 * Continuous-batching policy: which queued requests share one bucket
 * run, and which bucket that run targets.
 *
 * The paper's premise is that compiling a static plan amortizes
 * planning cost across executions; the serving layer amortizes
 * COMPILATION across request shapes (one plan per shape bucket). The
 * coalescer closes the remaining gap: a burst of small requests
 * against a `{1, 4, 8}` bucket set used to execute one full bucket
 * run PER REQUEST — now up to `bucket.batch` rows of compatible
 * queued requests pack into one session's staging buffers and share a
 * single run, turning per-request cost into per-batch cost exactly
 * the way the paper turns per-step planning into per-compile
 * planning.
 *
 * The policy is deliberately separated from the engine so it is
 * testable without threads or compiled plans:
 *
 *  - routeSingle(rows): PR-4's per-request rule — the smallest bucket
 *    whose batch fits the request. Still the rule for every request
 *    that goes out alone (coalescing disabled, deadline expired, or
 *    the model is not coalescable).
 *  - admits(group, candidate): whether a queued request may join a
 *    group — true while the combined rows still fit the LARGEST
 *    bucket and the cache generations are compatible (AdmitQuery
 *    carries {rows, gen} for each side). Group-aware on purpose: a
 *    3-row request next to a 1-row request shares one bucket-4 run
 *    (0 pad rows) instead of a padded bucket-4 run plus a bucket-1
 *    run.
 *  - routeGroup(totalRows): the smallest bucket fitting the PACKED
 *    total — which minimizes the group's pad waste (bucket.batch -
 *    totalRows), where per-request routing pays each member's pad
 *    independently.
 *  - full(groupRows): the drain's stop condition — the group exactly
 *    fills the largest bucket, so waiting for more traffic cannot
 *    reduce runs or pad any further.
 *
 * The deadline window (ServeOptions::coalesceWindowUs) bounds how
 * long a dequeued request waits for company: a lone request goes out
 * alone after at most windowUs. 0 disables coalescing entirely and
 * reproduces the per-request serving path bit for bit.
 */

#pragma once

#include <cstdint>
#include <vector>

namespace pe {

/**
 * Cache-generation tags for admission (generative serving, PR 9).
 * Sharing a run is only bit-safe when every member reads the SAME
 * synthesized position/mask feeds, i.e. when their KV caches hold the
 * same number of rows — so decode requests carry their stream's
 * generation and only equal generations group.
 */
/** Plain (cache-less) request: groups with any other plain request —
 *  the pre-generation admission rule, unchanged. */
inline constexpr int64_t kGenNone = -1;
/** Never groups (prefill: its CacheWrite targets the whole session
 *  cache, so two prefills in one run would collide). */
inline constexpr int64_t kGenSolo = -2;

class Coalescer
{
  public:
    Coalescer() = default;

    /**
     * @param bucketBatches compiled bucket batch sizes; normalized
     *        (sorted, deduplicated, values < 1 dropped, empty = {1})
     *        so the engine and standalone tests can pass raw option
     *        lists. The engine builds its buckets from batches().
     * @param windowUs deadline window; <= 0 disables coalescing.
     */
    Coalescer(std::vector<int64_t> bucketBatches, int64_t windowUs);

    /** True iff grouping is on (windowUs > 0). */
    bool enabled() const { return windowUs_ > 0; }

    int64_t windowUs() const { return windowUs_; }

    /** Largest compiled batch — the hard cap on a group's rows. */
    int64_t maxBatch() const
    {
        return batches_.empty() ? 0 : batches_.back();
    }

    /** Per-request routing rule (PR 4): index of the smallest bucket
     *  fitting @p rows; -1 when @p rows exceeds every bucket. */
    int routeSingle(int64_t rows) const;

    /** Group routing rule: index of the smallest bucket fitting the
     *  packed @p totalRows; -1 when it exceeds every bucket. Minimizes
     *  the GROUP's pad waste where per-request routing pays each
     *  member's pad independently. */
    int routeGroup(int64_t totalRows) const
    {
        return routeSingle(totalRows);
    }

    /** One side of an admission query: a group already packed (or a
     *  candidate wanting to join it). Plain traffic leaves @c gen at
     *  kGenNone; decode traffic carries its stream's generation. */
    struct AdmitQuery {
        int64_t rows = 0;
        int64_t gen = kGenNone;
    };

    /**
     * May @p candidate join @p group? True when the combined rows fit
     * the largest bucket (any mix of row counts coalesces, not just
     * singles) AND the caches are compatible: kGenSolo never admits or
     * is admitted; kGenNone matches only kGenNone (plain traffic keeps
     * the pre-generation rule verbatim); decode generations match only
     * their exact value — members of one run then share the same
     * synthesized pos/mask, which is what makes a coalesced decode
     * step bit-identical to the serial one.
     *
     * (This single struct-parameter form replaced the old 2-arg
     * rows-only overload and 4-arg generation overload, which were
     * easy to confuse at call sites.)
     */
    bool admits(const AdmitQuery &group, const AdmitQuery &candidate) const
    {
        return group.gen != kGenSolo && candidate.gen != kGenSolo &&
               group.gen == candidate.gen && candidate.rows > 0 &&
               group.rows + candidate.rows <= maxBatch();
    }

    /** Drain stop condition: the group exactly fills the largest
     *  bucket — no later arrival can join. */
    bool full(int64_t groupRows) const
    {
        return groupRows >= maxBatch();
    }

    /** Pad rows a packed group of @p totalRows executes under
     *  routeGroup(); -1 when no bucket fits. */
    int64_t padRows(int64_t totalRows) const;

    const std::vector<int64_t> &batches() const { return batches_; }

  private:
    std::vector<int64_t> batches_; ///< sorted, deduplicated, >= 1
    int64_t windowUs_ = 0;
};

} // namespace pe
