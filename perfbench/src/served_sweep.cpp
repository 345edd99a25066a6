// Workload `served-sweep`: the fleet request path through the fleet_serve
// daemon's protocol and socket, one trace build per realization.
#include <unistd.h>

#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "layers.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kClients = 2;
constexpr std::size_t kRunnerThreads = 2;
constexpr std::size_t kSetups = 3;
/// Every request runs this long, whatever its scenario's spec duration,
/// so requests are equal in size and their latencies pool.
constexpr double kRequestDurationS = 180.0;

void count_samples(const std::vector<Sample>& samples, Report& rep) {
    for (const auto& s : samples) {
        ++rep.attempted;
        if (!s.ok) ++rep.failed;
    }
}

}  // namespace

Report run_served_sweep(const Options& opt, Tracer& tracer) {
    Report rep;
    rep.threads = kRunnerThreads;
    rep.clients = kClients;
    Tracer untraced(false);

    std::vector<std::string> names = rotated_library(opt.seed);
    if (opt.smoke) names.resize(2);
    const double duration = opt.smoke ? 20.0 : kRequestDurationS;
    const std::string socket =
        opt.out_dir + "/served-" + std::to_string(::getpid()) + ".sock";
    const auto orders = client_orders(names.size(), kClients);

    // Set-up: the reference frames (a local FleetRunner::run of every
    // request's expansion), the daemon bound and listening, and the
    // clients connected and through the handshake.
    std::vector<double> setup_s;
    std::vector<Expected> expected;
    std::unique_ptr<ServeHarness> harness;
    for (std::size_t k = 0; k < (opt.smoke || opt.trace ? 1 : kSetups); ++k) {
        harness.reset();
        const std::int64_t t0 = now_ns();
        auto exp = expected_results(names, duration, opt.seed, kRunnerThreads);
        harness = std::make_unique<ServeHarness>(socket, kRunnerThreads, kClients);
        setup_s.push_back(seconds_since(t0));
        for (std::size_t i = 0; i < exp.size() && k > 0; ++i) {
            if (exp[i].frame != expected[i].frame) {
                rep.problem("reference frames differ between set-ups");
            }
        }
        expected = std::move(exp);
    }
    if (opt.corrupt_reference) expected.front().frame.back() ^= 1;

    // Warm-up: one round, a whole cycle per client at full concurrency.
    std::vector<Sample> warm;
    (void)run_rounds(*harness, expected, orders, 0.0, untraced, "served.warmup",
                     warm);
    for (const auto& s : warm) {
        if (!s.ok) rep.problem("warm-up request result mismatch");
    }

    if (!opt.trace) {
        std::vector<Sample> samples;
        const auto rounds = run_rounds(*harness, expected, orders, opt.seconds,
                                       untraced, "served.window", samples);
        harness.reset();
        count_samples(samples, rep);
        std::vector<double> us;
        for (const auto& s : samples) us.push_back(s.ms * 1e3);
        const double window_s = std::accumulate(rounds.begin(), rounds.end(), 0.0);
        rep.metric("ops_per_s",
                   static_cast<double>(rep.attempted - rep.failed) / window_s,
                   "1/s");
        rep.metric("op_us_p50", quantile(us, 0.50), "us");
        rep.metric("op_us_tail", quantile(us, 0.90), "us");
        rep.metric("setup_s", median(setup_s), "s");
        rep.detail("tail_quantile", "0.90");
        rep.detail("requests", std::to_string(samples.size()));
        rep.detail("round_s", json_list(rounds));
        rep.detail("setup_first_s", std::to_string(setup_s.front()));
        return rep;
    }

    // Traced run: a traced round between two untraced ones (their ratio is
    // the tracing overhead), the serve layer, then the fleet and layer
    // probes on the same jobs.
    LayerCounts counts;
    std::vector<Sample> plain;
    std::vector<Sample> traced;
    const auto round_s = [&](Tracer& t, std::vector<Sample>& samples) {
        return run_rounds(*harness, expected, orders, 0.0, t, "served.cycle",
                          samples)
            .front();
    };
    double plain_s = round_s(untraced, plain);
    const double traced_s = round_s(tracer, traced);
    plain_s += round_s(untraced, plain);
    count_samples(traced, rep);
    for (const auto& s : plain) {
        if (!s.ok) rep.problem("untraced round result mismatch");
    }
    counts.trace_overhead_share = 2.0 * traced_s / plain_s - 1.0;
    serve_layers(*harness, expected, orders, kRunnerThreads, tracer, counts);
    harness.reset();
    counts.trace_reuse = trace_reuse({expected.front().job});

    std::vector<ob::system::FleetJob> jobs;
    for (const auto& e : expected) jobs.push_back(e.job);
    plan_layer(jobs, tracer);
    {
        Scope probe(tracer, "probe.fleet");
        (void)fleet_layers(jobs, kRunnerThreads, tracer, probe.id(), 0, counts);
    }
    parallel_efficiency_layer(jobs, kRunnerThreads, tracer, counts);

    const auto& library = ob::sim::ScenarioLibrary::instance();
    for (const auto& name : names) {
        const Stream s =
            realize_stream(library.at(name), duration, opt.seed, tracer, 0);
        feed_layer(s, tracer, 0, counts);
        ekf_layer(s, tracer, 0);
        sabre_layer(s, tracer, 0, counts);
    }
    ensemble_layers(library.at(names.front()), duration, opt.seed,
                    opt.smoke ? 4 : kEnsembleLanes, tracer, 0);
    emit_layer_metrics(tracer, counts, "served.cycle", rep);
    return rep;
}

}  // namespace perfbench
