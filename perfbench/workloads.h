/**
 * @file
 * The three workloads. Each runs its set-up, its timed (or, with
 * Args::trace, its traced) phase and its correctness checks, and fills
 * the Report with either the end-to-end metrics or the per-layer ones.
 */

#pragma once

#include "common.h"

namespace perfbench {

void runFinetune(const Args &a, Report &r, SpanLog &spans);
void runChat(const Args &a, Report &r, SpanLog &spans);
void runServe(const Args &a, Report &r, SpanLog &spans);

/** Client threads of the serving workloads (lanes 1..kClients of the
 *  span log; lane 0 is the main thread). */
constexpr int kClients = 4;

/** Workers of every serving engine under test. */
constexpr int kWorkers = 2;

} // namespace perfbench
