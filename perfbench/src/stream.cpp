// Workloads `stream` and `stream-sabre`: the single-epoch real-time path,
// sensor sample to fused estimate, on the native EKF and on the Sabre
// firmware. The processors run as separate workloads so neither evicts the
// other's state between calls.
#include <unistd.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "layers.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using ob::system::BoresightSystem;
using Processor = BoresightSystem::Processor;

constexpr std::size_t kSetups = 5;

using System = std::unique_ptr<BoresightSystem>;

struct Inputs {
    std::vector<Stream> streams;
    std::vector<System> first_pass;  ///< systems the warm-up pass feeds
};

[[nodiscard]] System make_system(const Stream& s, Processor processor) {
    return std::make_unique<BoresightSystem>(system_config(*s.spec, processor));
}

/// Realize every stream and build the systems of the first pass (the
/// first Sabre system also assembles the firmware image).
[[nodiscard]] Inputs set_up(const std::vector<const ob::sim::ScenarioSpec*>& specs,
                            double smoke_duration_s, std::uint64_t seed,
                            Processor processor, Tracer& tracer) {
    Inputs in;
    for (const auto* spec : specs) {
        const double duration =
            smoke_duration_s > 0.0 ? smoke_duration_s : spec->duration_s;
        in.streams.push_back(realize_stream(*spec, duration, seed, tracer, 0));
    }
    for (const auto& s : in.streams) {
        in.first_pass.push_back(make_system(s, processor));
    }
    return in;
}

/// Outcome of feeding every stream once through fresh systems.
struct Pass {
    std::vector<std::uint64_t> digests;  ///< final status, per stream
    std::vector<bool> nominal;           ///< no transport loss, updates > 0
    double wall_s = 0.0;
};

/// Feed every epoch, timing each call on its own into `call_ns` (indexed
/// by epoch across all streams in order), when given. With tracing on,
/// each call is also a span under one stream.pass root.
[[nodiscard]] Pass feed_pass(const std::vector<Stream>& streams,
                             Processor processor, std::vector<System> systems,
                             Tracer& tracer, std::vector<std::uint32_t>* call_ns,
                             LayerCounts* counts) {
    Pass pass;
    const std::int64_t t0 = now_ns();
    Scope root(tracer, "stream.pass");
    const char* span_name = processor == Processor::kNative
                                ? "system.feed"
                                : "system.feed_sabre";
    std::size_t epoch = 0;
    for (std::size_t i = 0; i < streams.size(); ++i) {
        const Stream& s = streams[i];
        const System sys =
            systems.empty() ? make_system(s, processor) : std::move(systems[i]);
        for (const auto& e : s.epochs) {
            const std::int64_t a = now_ns();
            sys->feed(*s.trace, e.t, e.dmu, e.adxl);
            const std::int64_t b = now_ns();
            if (call_ns != nullptr) {
                (*call_ns)[epoch] = static_cast<std::uint32_t>(
                    std::min<std::int64_t>(b - a, UINT32_MAX));
            }
            ++epoch;
            if (tracer.enabled()) {
                tracer.record({tracer.reserve_id(), root.id(), epoch, span_name,
                               a, b, 1});
            }
        }
        const auto st = sys->status();
        pass.digests.push_back(digest(st));
        pass.nominal.push_back(st.updates > 0 && st.dmu_frames_lost == 0 &&
                               st.acc_packets_lost == 0);
        if (counts != nullptr) counts->add_status(st, s.epochs.size());
    }
    pass.wall_s = seconds_since(t0);
    return pass;
}

/// Count the epochs of every stream whose pass result differs from the
/// reference digest or left the nominal envelope.
void check_pass(const Pass& pass, const std::vector<std::uint64_t>& reference,
                const std::vector<Stream>& streams, Report& rep) {
    for (std::size_t i = 0; i < streams.size(); ++i) {
        const auto n = static_cast<std::uint64_t>(streams[i].epochs.size());
        rep.attempted += n;
        if (pass.digests[i] != reference[i] || !pass.nominal[i]) rep.failed += n;
    }
}

/// Order statistic at rank q * (n - 1) of the call times, in microseconds.
[[nodiscard]] double call_quantile_us(std::vector<std::uint32_t>& ns, double q) {
    const auto k = static_cast<std::size_t>(
        q * static_cast<double>(ns.size() - 1) + 0.5);
    std::nth_element(ns.begin(), ns.begin() + static_cast<std::ptrdiff_t>(k),
                     ns.end());
    return static_cast<double>(ns[k]) * 1e-3;
}

}  // namespace

Report run_stream(const Options& opt, Processor processor, Tracer& tracer) {
    Report rep;
    rep.threads = 1;
    rep.clients = 0;

    const auto& library = ob::sim::ScenarioLibrary::instance();
    std::vector<const ob::sim::ScenarioSpec*> specs;
    for (const auto& name : library.names()) {
        specs.push_back(&library.at(name));
        if (opt.smoke && specs.size() == 2) break;
    }
    const double smoke_duration = opt.smoke ? 20.0 : 0.0;
    Tracer untraced(false);

    if (!opt.trace) {
        // Set-up repeated; the realized streams must repeat bit for bit.
        std::vector<double> setup_s;
        Inputs in;
        std::vector<std::uint64_t> stream_digests;
        for (std::size_t k = 0; k < (opt.smoke ? 1 : kSetups); ++k) {
            in = Inputs{};
            const std::int64_t t0 = now_ns();
            in = set_up(specs, smoke_duration, opt.seed, processor, untraced);
            setup_s.push_back(seconds_since(t0));
            std::vector<std::uint64_t> d;
            for (const auto& s : in.streams) d.push_back(digest(s));
            if (k > 0 && d != stream_digests) {
                rep.problem("realized streams differ between set-ups");
            }
            stream_digests = d;
        }
        std::size_t epochs = 0;
        for (const auto& s : in.streams) epochs += s.epochs.size();

        // Warm-up pass: untimed, and the reference every timed pass must
        // reproduce.
        const Pass warm = feed_pass(in.streams, processor,
                                    std::move(in.first_pass), untraced,
                                    nullptr, nullptr);
        std::vector<std::uint64_t> reference = warm.digests;
        if (opt.corrupt_reference) reference.front() ^= 1;

        // Timed window: whole passes until the window has run out. Every
        // call of every pass counts.
        std::vector<std::uint32_t> pass_ns(epochs);
        std::vector<std::uint32_t> all_ns;
        std::vector<double> pass_s;
        const std::int64_t t0 = now_ns();
        do {
            const Pass p = feed_pass(in.streams, processor, {}, untraced,
                                     &pass_ns, nullptr);
            check_pass(p, reference, in.streams, rep);
            all_ns.insert(all_ns.end(), pass_ns.begin(), pass_ns.end());
            pass_s.push_back(p.wall_s);
        } while (seconds_since(t0) < opt.seconds);
        const double window_s = seconds_since(t0);

        rep.metric("ops_per_s",
                   static_cast<double>(rep.attempted - rep.failed) / window_s,
                   "1/s");
        rep.metric("op_us_p50", call_quantile_us(all_ns, 0.50), "us");
        rep.metric("op_us_tail", call_quantile_us(all_ns, 0.99), "us");
        rep.metric("setup_s", median(setup_s), "s");
        rep.detail("tail_quantile", "0.99");
        rep.detail("streams", std::to_string(in.streams.size()));
        rep.detail("epochs_per_pass", std::to_string(epochs));
        rep.detail("pass_s", json_list(pass_s));
        rep.detail("window_s", std::to_string(window_s));
        rep.detail("setup_s", json_list(setup_s));
        return rep;
    }

    // Traced run: a traced pass between two untraced ones over the same
    // inputs (their ratio is the tracing overhead), then the layer probes.
    LayerCounts counts;
    Inputs in = set_up(specs, smoke_duration, opt.seed, processor, tracer);
    const Pass warm = feed_pass(in.streams, processor, std::move(in.first_pass),
                                untraced, nullptr, nullptr);
    std::vector<std::uint64_t> reference = warm.digests;
    if (opt.corrupt_reference) reference.front() ^= 1;
    const Pass plain =
        feed_pass(in.streams, processor, {}, untraced, nullptr, nullptr);
    LayerCounts pass_counts;
    const Pass traced =
        feed_pass(in.streams, processor, {}, tracer, nullptr, &pass_counts);
    const Pass plain_after =
        feed_pass(in.streams, processor, {}, untraced, nullptr, nullptr);
    check_pass(traced, reference, in.streams, rep);
    counts.trace_overhead_share =
        2.0 * traced.wall_s / (plain.wall_s + plain_after.wall_s) - 1.0;
    counts.trace_reuse = 1.0;  // each stream's trace is realized once

    for (const auto& s : in.streams) {
        if (processor == Processor::kSabre) feed_layer(s, tracer, 0, counts);
        ekf_layer(s, tracer, 0);
        sabre_layer(s, tracer, 0, counts);
    }
    if (processor == Processor::kNative) {
        counts.epochs = pass_counts.epochs;
        counts.updates = pass_counts.updates;
        counts.frames_lost = pass_counts.frames_lost;
        counts.packets_lost = pass_counts.packets_lost;
    }
    ensemble_layers(*specs.front(),
                    opt.smoke ? smoke_duration : specs.front()->duration_s,
                    opt.seed, opt.smoke ? 4 : kEnsembleLanes, tracer, 0);

    std::vector<ob::system::FleetJob> jobs;
    std::vector<std::string> names;
    for (const auto* spec : specs) {
        ob::system::FleetJob job;
        job.scenario = spec->name;
        job.processor = processor;
        job.base_seed = job_base_seed(opt.seed);
        job.duration_s = smoke_duration;
        jobs.push_back(job);
        if (names.size() < 3) names.push_back(spec->name);
    }
    plan_layer(jobs, tracer);
    {
        Scope probe(tracer, "probe.fleet");
        (void)fleet_layers(jobs, 2, tracer, probe.id(), 0, counts);
    }
    parallel_efficiency_layer(jobs, 2, tracer, counts);
    serve_probe(opt.out_dir + "/stream-" + std::to_string(::getpid()) + ".sock",
                expected_results(names, opt.smoke ? 20.0 : 60.0, opt.seed, 1),
                tracer, counts, rep);
    emit_layer_metrics(tracer, counts, "stream.pass", rep);
    return rep;
}

}  // namespace perfbench
