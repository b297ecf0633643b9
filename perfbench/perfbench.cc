/**
 * @file
 * The benchmark program. Runs one workload and prints, as the last line of
 * standard output, one JSON object:
 *
 *   {"correct": bool, "attempted": n, "failed": n, "metrics": {...}}
 *
 * with the end-to-end metrics (untraced run) or the per-layer metrics
 * (--trace 1). The lines before it restate every figure under the
 * workload's own names, with sample counts and host/build facts.
 *
 *   perfbench --workload finetune_mcunet|chat_decode|serve_int8_vision
 *             --seed N --seconds S --trace 0|1 [--out DIR]
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <string>

#include "common.h"
#include "workloads.h"

using namespace perfbench;

namespace {

int
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench --workload finetune_mcunet|chat_decode|"
                 "serve_int8_vision --seed N --seconds S --trace 0|1 "
                 "[--out DIR]\n");
    return 2;
}

bool
parseArgs(int argc, char **argv, Args &a)
{
    for (int i = 1; i + 1 < argc; i += 2) {
        std::string k = argv[i], v = argv[i + 1];
        if (k == "--workload")
            a.workload = v;
        else if (k == "--seed")
            a.seed = std::stoull(v);
        else if (k == "--seconds")
            a.seconds = std::stod(v);
        else if (k == "--trace")
            a.trace = v == "1";
        else if (k == "--out")
            a.outDir = v;
        else
            return false;
    }
    return argc % 2 == 1 && !a.workload.empty() && a.seconds > 0;
}

} // namespace

int
main(int argc, char **argv)
{
    // Timings from a debug or sanitizer build are not this program's
    // performance; refuse them, as scripts/bench_json.sh does.
    if (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0 ||
        PERFBENCH_SANITIZED) {
        std::fprintf(stderr,
                     "refusing to benchmark a %s%s build; configure with "
                     "-DCMAKE_BUILD_TYPE=Release and no sanitizer\n",
                     PERFBENCH_BUILD_TYPE,
                     PERFBENCH_SANITIZED ? " sanitizer" : "");
        return 3;
    }
    Args a;
    try {
        if (!parseArgs(argc, argv, a))
            return usage();
    } catch (const std::exception &) {
        return usage();
    }

    Report r;
    SpanLog spans(a.trace, 1 + kClients);
    try {
        makeDirs(a.outDir);
        if (a.workload == "finetune_mcunet")
            runFinetune(a, r, spans);
        else if (a.workload == "chat_decode")
            runChat(a, r, spans);
        else if (a.workload == "serve_int8_vision")
            runServe(a, r, spans);
        else
            return usage();
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s failed: %s\n",
                     a.workload.c_str(), e.what());
        return 1;
    }

    if (a.trace)
        r.metric("load.failed_share",
                 static_cast<double>(r.failed()) /
                     static_cast<double>(std::max<int64_t>(1, r.attempted())),
                 "share");
    if (spans.enabled()) {
        std::string path = a.outDir + "/spans-" + a.workload + "-" +
                           std::to_string(a.seed) + ".jsonl";
        if (!spans.write(path)) {
            std::fprintf(stderr, "perfbench: cannot write %s\n",
                         path.c_str());
            return 1;
        }
        r.note("benchmark spans written to %s", path.c_str());
    }

    for (const std::string &line : r.notes())
        std::printf("%s\n", line.c_str());
    std::printf("host %s\n", hostFacts(a, r.simdTier).c_str());

    std::string out = "{\"correct\": ";
    out += r.correct() ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(r.attempted());
    out += ", \"failed\": " + std::to_string(r.failed());
    out += ", \"metrics\": {";
    bool first = true;
    for (const Report::Metric &m : r.metrics()) {
        if (!std::isfinite(m.value)) {
            std::fprintf(stderr, "perfbench: %s is not finite\n",
                         m.name.c_str());
            return 1;
        }
        char buf[256];
        std::snprintf(buf, sizeof(buf),
                      "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                      first ? "" : ", ", m.name.c_str(), m.value,
                      m.unit.c_str());
        out += buf;
        first = false;
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
    return 0;
}
