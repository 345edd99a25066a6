// Workload `montecarlo`: one in-process Monte Carlo fleet batch, the
// batched SoA realization path with 64 realizations per shared trace.
#include <unistd.h>

#include <optional>
#include <string>
#include <vector>

#include "layers.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kThreads = 2;
constexpr std::size_t kSetups = 3;
constexpr std::uint64_t kSeedsPerJob = 32;
/// The paper's §11 retune for moving vehicles, beside each spec's own R.
constexpr double kRetunedNoise = 0.015;

[[nodiscard]] std::vector<ob::system::FleetJob> make_jobs(const Options& opt) {
    const std::vector<std::string> scenarios =
        opt.smoke ? std::vector<std::string>{"city-drive"}
                  : std::vector<std::string>{"city-drive", "highway-drive",
                                             "emergency-brake", "trailer-sway"};
    std::vector<ob::system::FleetJob> jobs;
    for (const auto& name : scenarios) {
        for (const std::optional<double> noise :
             {std::optional<double>{}, std::optional<double>{kRetunedNoise}}) {
            ob::system::FleetJob job;
            job.scenario = name;
            job.base_seed = job_base_seed(opt.seed);
            job.seeds_per_job = opt.smoke ? 4 : kSeedsPerJob;
            job.duration_s = opt.smoke ? 20.0 : 0.0;
            job.meas_noise_mps2 = noise;
            jobs.push_back(job);
        }
    }
    return jobs;
}

/// Per job, per realization digests of a batch's results.
using Digests = std::vector<std::vector<std::uint64_t>>;

[[nodiscard]] Digests digests_of(const std::vector<ob::system::FleetResult>& r) {
    Digests out;
    for (const auto& job : r) {
        out.emplace_back();
        for (const auto& seed : job.seeds) out.back().push_back(digest(seed));
    }
    return out;
}

/// Count realizations that differ from the reference batch.
void check_batch(const Digests& got, const Digests& reference, Report& rep) {
    for (std::size_t j = 0; j < reference.size(); ++j) {
        for (std::size_t k = 0; k < reference[j].size(); ++k) {
            ++rep.attempted;
            if (j >= got.size() || k >= got[j].size() ||
                got[j][k] != reference[j][k]) {
                ++rep.failed;
            }
        }
    }
}

/// Envelope-pass counts per job: must repeat exactly for a given seed.
[[nodiscard]] std::string envelope_counts(
    const std::vector<ob::system::FleetResult>& r) {
    std::string out = "[";
    for (const auto& job : r) {
        if (out.size() > 1) out += ",";
        out += std::to_string(job.seed_stats.within_envelope);
    }
    return out + "]";
}

/// Realization digests of one job (chosen by the seed) run through
/// run_fleet_job, the reference semantics.
[[nodiscard]] std::vector<std::uint64_t> reference_digests(
    const std::vector<ob::system::FleetJob>& jobs, std::uint64_t seed) {
    const auto ref = ob::system::run_fleet_job(jobs[seed % jobs.size()]);
    std::vector<std::uint64_t> d;
    for (const auto& r : ref.seeds) d.push_back(digest(r));
    return d;
}

}  // namespace

Report run_montecarlo(const Options& opt, Tracer& tracer) {
    Report rep;
    rep.threads = kThreads;
    rep.clients = 0;
    ob::system::FleetRunner::Config cfg;
    cfg.threads = kThreads;

    if (!opt.trace) {
        // Set-up: the batch, its plan, the runner, and the reference result
        // of one job (chosen by the seed) through run_fleet_job, the
        // reference semantics every batch must reproduce.
        std::vector<double> setup_s;
        std::vector<ob::system::FleetJob> jobs;
        std::optional<ob::system::FleetRunner> runner;
        std::vector<std::uint64_t> reference_job;
        for (std::size_t k = 0; k < (opt.smoke ? 1 : kSetups); ++k) {
            const std::int64_t t0 = now_ns();
            jobs = make_jobs(opt);
            const auto plan = ob::system::make_fleet_plan(jobs);
            runner.emplace(cfg);
            auto ref = reference_digests(jobs, opt.seed);
            setup_s.push_back(seconds_since(t0));
            if (k > 0 && ref != reference_job) {
                rep.problem("run_fleet_job differs between set-ups");
            }
            reference_job = std::move(ref);
            if (plan.items.size() != jobs.size() * jobs.front().seeds_per_job) {
                rep.problem("plan size differs from the batch");
            }
        }
        if (opt.corrupt_reference) reference_job.front() ^= 1;
        const std::size_t ref_index = opt.seed % jobs.size();

        // Warm-up batch, untimed. Every timed batch must reproduce it, and
        // the reference job's realizations must equal run_fleet_job's.
        const auto warm = runner->run(jobs);
        Digests expected = digests_of(warm);
        if (expected[ref_index] != reference_job) {
            rep.problem("batch differs from run_fleet_job for " +
                        jobs[ref_index].scenario);
        }
        expected[ref_index] = reference_job;

        std::vector<double> batch_us;
        const std::int64_t t0 = now_ns();
        do {
            const std::int64_t a = now_ns();
            const auto got = runner->run(jobs);
            batch_us.push_back(seconds_since(a) * 1e6);
            check_batch(digests_of(got), expected, rep);
        } while (seconds_since(t0) < opt.seconds);
        const double window_s = seconds_since(t0);

        rep.metric("ops_per_s",
                   static_cast<double>(rep.attempted - rep.failed) / window_s,
                   "1/s");
        rep.metric("op_us_p50", median(batch_us), "us");
        rep.metric("op_us_tail", quantile(batch_us, 1.0), "us");
        rep.metric("setup_s", median(setup_s), "s");
        rep.detail("tail_quantile", "1.0");
        rep.detail("batch_us", json_list(batch_us));
        rep.detail("realizations_per_batch",
                   std::to_string(jobs.size() * jobs.front().seeds_per_job));
        rep.detail("envelope_pass", envelope_counts(warm));
        rep.detail("reference_job", "\"" + jobs[ref_index].scenario + "\"");
        return rep;
    }

    // Traced run: the batch's plan on its own, then the batch step by step
    // as FleetRunner::run makes it, traced, between two untraced batches
    // (their ratio is the tracing overhead), then the layer probes on its
    // scenarios.
    LayerCounts counts;
    const auto jobs = make_jobs(opt);
    const ob::system::FleetRunner runner(cfg);
    const auto warm = runner.run(jobs);
    const Digests reference = digests_of(warm);
    const auto untraced_batch_s = [&] {
        const std::int64_t a = now_ns();
        (void)runner.run(jobs);
        return seconds_since(a);
    };
    plan_layer(jobs, tracer);
    double plain_s = untraced_batch_s();
    double traced_s = 0.0;
    {
        Scope root(tracer, "montecarlo.batch", 0, 1);
        const std::int64_t b = now_ns();
        const auto got = fleet_layers(jobs, kThreads, tracer, root.id(), 1, counts);
        traced_s = seconds_since(b);
        check_batch(digests_of(got), reference, rep);
    }
    plain_s += untraced_batch_s();
    counts.trace_overhead_share = 2.0 * traced_s / plain_s - 1.0;
    counts.trace_reuse = trace_reuse(jobs);
    parallel_efficiency_layer(jobs, kThreads, tracer, counts);

    const auto& library = ob::sim::ScenarioLibrary::instance();
    const double duration = jobs.front().duration_s;
    std::vector<std::string> names;
    for (std::size_t j = 0; j < jobs.size(); j += 2) {
        const auto& spec = library.at(jobs[j].scenario);
        const Stream s = realize_stream(
            spec, duration > 0.0 ? duration : spec.duration_s, opt.seed, tracer, 0);
        feed_layer(s, tracer, 0, counts);
        ekf_layer(s, tracer, 0);
        sabre_layer(s, tracer, 0, counts);
        names.push_back(spec.name);
    }
    const auto& first = library.at(jobs.front().scenario);
    ensemble_layers(first, duration > 0.0 ? duration : first.duration_s, opt.seed,
                    static_cast<std::size_t>(jobs.front().seeds_per_job), tracer, 0);
    serve_probe(opt.out_dir + "/montecarlo-" + std::to_string(::getpid()) + ".sock",
                expected_results(names, opt.smoke ? 20.0 : 60.0, opt.seed, 1),
                tracer, counts, rep);
    emit_layer_metrics(tracer, counts, "montecarlo.batch", rep);
    return rep;
}

}  // namespace perfbench
