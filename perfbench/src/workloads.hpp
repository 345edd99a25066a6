// The three workloads. Each fills a Report: the end-to-end metrics when
// the tracer is off, every per-layer metric when it is on.
#pragma once

#include "common.hpp"

namespace perfbench {

/// The paper's real-time path: every library scenario's sensor stream fed
/// epoch by epoch through BoresightSystem::feed on one fusion processor,
/// one thread, each call timed on its own. An op is one epoch.
[[nodiscard]] Report run_stream(
    const Options& opt, ob::system::BoresightSystem::Processor processor,
    Tracer& tracer);

/// One in-process FleetRunner::run Monte Carlo batch (4 scenarios x 2
/// tunings x 32 seeds) on 2 worker threads: the batched SoA path. An op is
/// one realization; its latency is the batch's.
[[nodiscard]] Report run_montecarlo(const Options& opt, Tracer& tracer);

/// An in-process fleet_serve daemon driven by 2 closed-loop clients, each
/// cycling through all 13 scenarios as equal-size one-seed requests. An op
/// is one request (one realization).
[[nodiscard]] Report run_served_sweep(const Options& opt, Tracer& tracer);

}  // namespace perfbench
