// Calls into each layer of obcore, timed from outside the program: the
// realized sensor streams every workload starts from, the per-layer probes
// a traced run makes, the in-process fleet_serve harness, and the mapping
// from spans to the per-layer metrics.
#pragma once

#include <cstdint>
#include <exception>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "comm/codec.hpp"
#include "sim/scenario.hpp"
#include "sim/scenario_library.hpp"
#include "system/boresight_system.hpp"
#include "system/fleet.hpp"
#include "system/fleet_client.hpp"
#include "system/fleet_serve.hpp"

namespace perfbench {

/// One realized sensor epoch: what Scenario::next_wire produces.
struct Epoch {
    double t = 0.0;
    ob::comm::DmuSample dmu;
    ob::comm::AdxlTiming adxl;
};

/// A library scenario's sensor stream, realized once (seed-0 instruments).
struct Stream {
    const ob::sim::ScenarioSpec* spec = nullptr;
    std::shared_ptr<const ob::sim::ScenarioTrace> trace;
    std::unique_ptr<ob::sim::Scenario> scenario;  ///< decode constants
    std::vector<Epoch> epochs;
};

/// Build the trace (span sim.trace_build) and realize every epoch through
/// Scenario::next_wire (span sim.realize), applying the spec's bump at its
/// time scaled to `duration_s`.
[[nodiscard]] Stream realize_stream(const ob::sim::ScenarioSpec& spec,
                                    double duration_s, std::uint64_t seed,
                                    Tracer& tracer, std::uint64_t parent);

/// Digest of a realized stream's samples (set-up repeats must agree).
[[nodiscard]] std::uint64_t digest(const Stream& s);

/// BoresightSystem configuration a fleet job of `spec` uses: the spec's
/// recommended measurement and process noise on either processor.
[[nodiscard]] ob::system::BoresightSystem::Config system_config(
    const ob::sim::ScenarioSpec& spec,
    ob::system::BoresightSystem::Processor processor);

/// Counters read from the program at the layer boundaries.
struct LayerCounts {
    std::uint64_t epochs = 0;  ///< epochs fed to native systems
    std::uint64_t updates = 0;
    std::uint64_t frames_lost = 0;
    std::uint64_t packets_lost = 0;
    std::uint64_t sabre_updates = 0;
    std::uint64_t sabre_instructions = 0;
    std::uint64_t sabre_cycles = 0;
    std::uint64_t sabre_fpu_ops = 0;
    double trace_reuse = 0.0;
    double run_items_ns = 0.0;  ///< last fleet_layers run_items time
    double parallel_efficiency = 0.0;
    double serve_overhead_ms = 0.0;
    double trace_overhead_share = 0.0;

    void add_status(const ob::system::BoresightSystem::Status& st,
                    std::uint64_t epochs_fed);
};

/// Native BoresightSystem::feed over the stream (span system.feed).
void feed_layer(const Stream& s, Tracer& tracer, std::uint64_t parent,
                LayerCounts& counts);
/// BoresightEkf::step on decode_step outputs (span core.ekf_step).
void ekf_layer(const Stream& s, Tracer& tracer, std::uint64_t parent);
/// SabreFusionSystem push + run_pending per epoch (span sabre.step) and
/// the simulated instruction, cycle and FPU-operation counts.
void sabre_layer(const Stream& s, Tracer& tracer, std::uint64_t parent,
                 LayerCounts& counts);

/// Lanes of the ensemble probe: one full batch unit, as FleetRunner forms.
inline constexpr std::size_t kEnsembleLanes = 32;

/// The batched native path on one shared trace: EnsembleRealizer::step
/// (span sim.ensemble_realize), EnsembleNominalSystem::feed (span
/// system.ensemble_feed) and EnsembleEkf::step_all on the decoded lanes
/// (span core.ensemble_ekf), all with items = lanes.
void ensemble_layers(const ob::sim::ScenarioSpec& spec, double duration_s,
                     std::uint64_t seed, std::size_t lanes, Tracer& tracer,
                     std::uint64_t parent);

/// make_fleet_plan of the batch (span fleet.plan). FleetRunner::run does
/// not call it (run_items plans internally), so it is timed on its own.
void plan_layer(const std::vector<ob::system::FleetJob>& jobs, Tracer& tracer);

/// One batch called step by step, exactly as FleetRunner::run composes it:
/// FleetRunner::run_items at `threads` (span fleet.run_items) and
/// reduce_fleet_job per job (span fleet.reduce). Returns the reduced
/// results; records the run_items time in `counts`.
[[nodiscard]] std::vector<ob::system::FleetResult> fleet_layers(
    const std::vector<ob::system::FleetJob>& jobs, std::size_t threads,
    Tracer& tracer, std::uint64_t parent, std::uint64_t request,
    LayerCounts& counts);

/// The same batch's run_items at one thread (span fleet.run_items_1t):
/// parallel efficiency = its time / (threads x the fleet_layers time).
void parallel_efficiency_layer(const std::vector<ob::system::FleetJob>& jobs,
                               std::size_t threads, Tracer& tracer,
                               LayerCounts& counts);

/// Realizations per trace built, as FleetRunner groups `jobs`.
[[nodiscard]] double trace_reuse(
    const std::vector<ob::system::FleetJob>& jobs);

// ---------------------------------------------------------------------------
// Served path
// ---------------------------------------------------------------------------

/// One request of the served sweep and its expected streamed frame,
/// computed by a local FleetRunner::run of the same expansion.
struct Expected {
    ob::system::FleetRequest request;
    ob::system::FleetJob job;
    std::vector<std::uint8_t> frame;  ///< encode_job_result bytes
};

/// Native, one-seed requests of `duration_s` for each scenario, with
/// their reference frames (local run on `threads` workers).
[[nodiscard]] std::vector<Expected> expected_results(
    const std::vector<std::string>& scenarios, double duration_s,
    std::uint64_t seed, std::size_t threads);

/// An in-process FleetServer on an AF_UNIX socket plus connected clients.
/// The destructor says goodbye, stops the server and joins its thread.
class ServeHarness {
public:
    ServeHarness(const std::string& socket_path, std::size_t runner_threads,
                 std::size_t clients);
    ~ServeHarness();
    ServeHarness(const ServeHarness&) = delete;
    ServeHarness& operator=(const ServeHarness&) = delete;

    [[nodiscard]] std::size_t clients() const { return clients_.size(); }
    [[nodiscard]] ob::system::FleetServeClient& client(std::size_t i) {
        return clients_[i];
    }

private:
    void stop();

    ob::system::FleetServer server_;
    std::exception_ptr serve_error_;  ///< written by thread_, read after join
    std::atomic<bool> serve_failed_{false};
    std::vector<ob::system::FleetServeClient> clients_;
    std::thread thread_;
};

/// One served request as the client saw it.
struct Sample {
    std::size_t index = 0;  ///< into the Expected vector
    double ms = 0.0;
    bool ok = false;
};

/// Closed loop in rounds: in each round every client walks its whole
/// order, and the next round starts when all have finished. Rounds repeat
/// until `seconds` have passed (at least one). Each request is timed and
/// its frame compared bitwise with the expected one. With tracing on, each
/// request is a serve.request span under one `root` span. Returns each
/// round's wall time in seconds.
[[nodiscard]] std::vector<double> run_rounds(
    ServeHarness& h, const std::vector<Expected>& expected,
    const std::vector<std::vector<std::size_t>>& orders, double seconds,
    Tracer& tracer, const char* root, std::vector<Sample>& samples);

/// Per-client request orders: every client walks all requests, client c
/// starting `c * n / clients` further along.
[[nodiscard]] std::vector<std::vector<std::size_t>> client_orders(
    std::size_t requests, std::size_t clients);

/// The serve layer: FleetServeClient::ping round trips (span serve.ping),
/// then every client pairs each request of its order with a local
/// FleetRunner::run of the same expansion right after it, at the same
/// concurrency. serve.overhead_ms = median(request - local run).
void serve_layers(ServeHarness& h, const std::vector<Expected>& expected,
                  const std::vector<std::vector<std::size_t>>& orders,
                  std::size_t runner_threads, Tracer& tracer,
                  LayerCounts& counts);

/// Self-contained serve probe for workloads whose own path has no server:
/// a daemon and one client, one checked warm-up round over `expected`,
/// then serve_layers.
void serve_probe(const std::string& socket_path,
                 const std::vector<Expected>& expected, Tracer& tracer,
                 LayerCounts& counts, Report& report);

/// Turn the spans and counters of a traced run into every per-layer
/// metric. `root` names the workload's end-to-end span.
void emit_layer_metrics(const Tracer& tracer, const LayerCounts& counts,
                        const char* root, Report& report);

}  // namespace perfbench
