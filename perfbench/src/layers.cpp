#include "layers.hpp"

#include <algorithm>
#include <barrier>
#include <set>
#include <stdexcept>
#include <tuple>

#include "core/boresight_ekf.hpp"
#include "core/ensemble_ekf.hpp"
#include "sim/ensemble_realizer.hpp"
#include "sim/scenario_trace.hpp"
#include "system/ensemble_runner.hpp"
#include "system/experiment.hpp"
#include "system/fleet_protocol.hpp"
#include "system/sabre_runner.hpp"

namespace perfbench {

using ob::system::BoresightSystem;
using Processor = ob::system::BoresightSystem::Processor;

namespace {

/// Keeps the instrument stream apart from the drive-layout stream that
/// spec.build consumes, as fleet jobs do with their own salt.
constexpr std::uint64_t kSensorSalt = 0x5EED0F5E2503ull;

constexpr int kPings = 200;
/// Times each client walks its order pairing requests with local runs.
constexpr std::size_t kPairedRounds = 2;

std::atomic<std::uint64_t> g_request{0};

[[nodiscard]] std::uint64_t next_request() { return ++g_request; }

/// Opaque sink so timed loops whose results are otherwise unused are kept.
volatile double g_sink = 0.0;

[[nodiscard]] double bump_time(const ob::sim::ScenarioSpec& spec,
                               double duration_s) {
    return spec.bump.enabled()
               ? spec.bump.at_s * (duration_s / spec.duration_s)
               : -1.0;
}

}  // namespace

Stream realize_stream(const ob::sim::ScenarioSpec& spec, double duration_s,
                      std::uint64_t seed, Tracer& tracer,
                      std::uint64_t parent) {
    const std::uint64_t variant = ob::sim::scenario_seed(spec.name, seed);
    const std::uint64_t sensor = variant ^ kSensorSalt;
    Stream s;
    s.spec = &spec;
    {
        Scope span(tracer, "sim.trace_build", parent);
        s.trace = ob::sim::ScenarioTrace::build(
            spec.build(duration_s, spec.misalignment, variant), sensor);
        span.items(s.trace->epochs());
    }
    s.scenario = std::make_unique<ob::sim::Scenario>(s.trace, spec.misalignment,
                                                     sensor);
    Scope span(tracer, "sim.realize", parent);
    const double bump_at = bump_time(spec, duration_s);
    bool bumped = false;
    s.epochs.reserve(s.trace->epochs());
    Epoch e;
    while (s.scenario->next_wire(e.t, e.dmu, e.adxl)) {
        s.epochs.push_back(e);
        if (bump_at >= 0.0 && !bumped && e.t >= bump_at) {
            s.scenario->bump(spec.bump.delta);
            bumped = true;
        }
    }
    span.items(s.epochs.size());
    return s;
}

std::uint64_t digest(const Stream& s) {
    Digest d;
    for (const auto& e : s.epochs) {
        d.add(e.t);
        d.add(static_cast<std::uint64_t>(e.dmu.seq));
        for (std::size_t i = 0; i < 3; ++i) {
            d.add(static_cast<std::uint64_t>(
                static_cast<std::uint16_t>(e.dmu.gyro[i])));
            d.add(static_cast<std::uint64_t>(
                static_cast<std::uint16_t>(e.dmu.accel[i])));
        }
        d.add(static_cast<std::uint64_t>(e.adxl.seq));
        d.add(static_cast<std::uint64_t>(e.adxl.t1x));
        d.add(static_cast<std::uint64_t>(e.adxl.t1y));
        d.add(static_cast<std::uint64_t>(e.adxl.t2));
    }
    return d.value();
}

BoresightSystem::Config system_config(const ob::sim::ScenarioSpec& spec,
                                      Processor processor) {
    BoresightSystem::Config cfg;
    cfg.processor = processor;
    cfg.filter.meas_noise_mps2 = spec.meas_noise_mps2;
    cfg.filter.angle_process_noise = spec.angle_process_noise;
    cfg.sabre.r_sigma = spec.meas_noise_mps2;
    cfg.sabre.q_variance = spec.angle_process_noise * spec.angle_process_noise;
    return cfg;
}

void LayerCounts::add_status(const BoresightSystem::Status& st,
                             std::uint64_t epochs_fed) {
    epochs += epochs_fed;
    updates += st.updates;
    frames_lost += st.dmu_frames_lost;
    packets_lost += st.acc_packets_lost;
}

void feed_layer(const Stream& s, Tracer& tracer, std::uint64_t parent,
                LayerCounts& counts) {
    BoresightSystem sys(system_config(*s.spec, Processor::kNative));
    {
        Scope span(tracer, "system.feed", parent);
        span.items(s.epochs.size());
        for (const auto& e : s.epochs) sys.feed(*s.trace, e.t, e.dmu, e.adxl);
    }
    counts.add_status(sys.status(), s.epochs.size());
}

void ekf_layer(const Stream& s, Tracer& tracer, std::uint64_t parent) {
    std::vector<ob::system::DecodedMeasurement> decoded;
    decoded.reserve(s.epochs.size());
    ob::sim::Scenario::Step step;
    for (const auto& e : s.epochs) {
        step.t = e.t;
        step.dmu = e.dmu;
        step.adxl = e.adxl;
        decoded.push_back(ob::system::decode_step(*s.scenario, step));
    }
    ob::core::BoresightEkf ekf(
        system_config(*s.spec, Processor::kNative).filter);
    {
        Scope span(tracer, "core.ekf_step", parent);
        span.items(decoded.size());
        for (const auto& d : decoded) (void)ekf.step(d.f_body, d.acc_xy);
    }
    g_sink = ekf.misalignment().roll;
}

void sabre_layer(const Stream& s, Tracer& tracer, std::uint64_t parent,
                 LayerCounts& counts) {
    ob::system::SabreFusionSystem sabre(
        system_config(*s.spec, Processor::kSabre).sabre);
    const std::uint64_t instructions = sabre.instructions();
    const std::uint64_t cycles = sabre.cycles();
    const std::uint64_t fpu_ops = sabre.fpu_operations();
    {
        Scope span(tracer, "sabre.step", parent);
        span.items(s.epochs.size());
        for (const auto& e : s.epochs) {
            sabre.push(e.dmu, e.adxl);
            (void)sabre.run_pending();
        }
    }
    counts.sabre_updates += sabre.estimate().updates;
    counts.sabre_instructions += sabre.instructions() - instructions;
    counts.sabre_cycles += sabre.cycles() - cycles;
    counts.sabre_fpu_ops += sabre.fpu_operations() - fpu_ops;
}

void ensemble_layers(const ob::sim::ScenarioSpec& spec, double duration_s,
                     std::uint64_t seed, std::size_t lanes, Tracer& tracer,
                     std::uint64_t parent) {
    const std::uint64_t variant = ob::sim::scenario_seed(spec.name, seed);
    const std::uint64_t sensor = variant ^ kSensorSalt;
    const auto trace = ob::sim::ScenarioTrace::build(
        spec.build(duration_s, spec.misalignment, variant), sensor);
    std::vector<std::uint64_t> seeds(lanes);
    for (std::size_t l = 0; l < lanes; ++l) {
        seeds[l] = ob::system::fleet_sub_seed(sensor, l);
    }
    ob::sim::EnsembleRealizer realizer(trace, spec.misalignment, seeds);
    const auto cfg = system_config(spec, Processor::kNative);
    ob::system::EnsembleNominalSystem system(cfg, lanes);
    ob::core::EnsembleEkf ekf(cfg.filter, lanes);

    const ob::comm::DmuScale scale{};
    std::vector<ob::math::Vec3> f_body(lanes);
    std::vector<ob::math::Vec2> z(lanes);
    std::vector<ob::core::BoresightEkf::Update> updates(lanes);
    const double bump_at = bump_time(spec, duration_s);
    bool bumped = false;
    for (;;) {
        double t = 0.0;
        bool more = false;
        {
            Scope span(tracer, "sim.ensemble_realize", parent);
            more = realizer.step(t);
            span.items(more ? lanes : 0);
        }
        if (!more) break;
        {
            Scope span(tracer, "system.ensemble_feed", parent);
            span.items(lanes);
            system.feed(realizer.trace(), t, realizer.dmu(), realizer.adxl());
        }
        for (std::size_t l = 0; l < lanes; ++l) {
            const auto& dmu = realizer.dmu()[l];
            for (std::size_t i = 0; i < 3; ++i) {
                f_body[l][i] = scale.raw_to_accel(dmu.accel[i]);
            }
            const auto [ax, ay] =
                ob::comm::adxl_decode(realizer.adxl()[l], trace->adxl());
            z[l] = ob::math::Vec2{ax, ay};
        }
        {
            Scope span(tracer, "core.ensemble_ekf", parent);
            span.items(lanes);
            ekf.step_all(f_body.data(), z.data(), updates.data());
        }
        if (bump_at >= 0.0 && !bumped && t >= bump_at) {
            realizer.bump(spec.bump.delta);
            bumped = true;
        }
    }
    g_sink = ekf.misalignment(0).roll + system.estimate(0).roll;
}

void plan_layer(const std::vector<ob::system::FleetJob>& jobs, Tracer& tracer) {
    Scope span(tracer, "fleet.plan");
    span.items(ob::system::make_fleet_plan(jobs).items.size());
}

std::vector<ob::system::FleetResult> fleet_layers(
    const std::vector<ob::system::FleetJob>& jobs, std::size_t threads,
    Tracer& tracer, std::uint64_t parent, std::uint64_t request,
    LayerCounts& counts) {
    ob::system::FleetRunner::Config cfg;
    cfg.threads = threads;
    const ob::system::FleetRunner runner(cfg);
    std::size_t total = 0;
    for (const auto& job : jobs) {
        total += static_cast<std::size_t>(job.seeds_per_job);
    }

    std::vector<ob::system::FleetSeedResult> items;
    std::int64_t t_n = 0;
    {
        Scope span(tracer, "fleet.run_items", parent, request);
        const std::int64_t t0 = now_ns();
        items = runner.run_items(jobs, 0, total);
        t_n = now_ns() - t0;
        span.items(items.size());
    }
    std::vector<ob::system::FleetResult> out;
    std::size_t next = 0;
    for (const auto& job : jobs) {
        const auto n = static_cast<std::size_t>(job.seeds_per_job);
        std::vector<ob::system::FleetSeedResult> seeds(
            std::make_move_iterator(items.begin() + static_cast<std::ptrdiff_t>(next)),
            std::make_move_iterator(items.begin() + static_cast<std::ptrdiff_t>(next + n)));
        next += n;
        Scope span(tracer, "fleet.reduce", parent, request);
        out.push_back(ob::system::reduce_fleet_job(job, std::move(seeds)));
    }

    counts.run_items_ns = static_cast<double>(t_n);
    return out;
}

void parallel_efficiency_layer(const std::vector<ob::system::FleetJob>& jobs,
                               std::size_t threads, Tracer& tracer,
                               LayerCounts& counts) {
    ob::system::FleetRunner::Config cfg;
    cfg.threads = 1;
    const ob::system::FleetRunner serial(cfg);
    std::size_t items = 0;
    for (const auto& job : jobs) {
        items += static_cast<std::size_t>(job.seeds_per_job);
    }
    Scope span(tracer, "fleet.run_items_1t");
    const std::int64_t t0 = now_ns();
    span.items(serial.run_items(jobs, 0, items).size());
    counts.parallel_efficiency =
        static_cast<double>(now_ns() - t0) /
        (static_cast<double>(threads) * counts.run_items_ns);
}

double trace_reuse(const std::vector<ob::system::FleetJob>& jobs) {
    std::set<std::tuple<std::string, std::uint64_t, double>> traces;
    double realizations = 0.0;
    for (const auto& job : jobs) {
        traces.emplace(job.scenario, job.base_seed, job.duration_s);
        realizations += static_cast<double>(job.seeds_per_job);
    }
    return realizations / static_cast<double>(traces.size());
}

std::vector<Expected> expected_results(
    const std::vector<std::string>& scenarios, double duration_s,
    std::uint64_t seed, std::size_t threads) {
    std::vector<Expected> out;
    std::vector<ob::system::FleetJob> jobs;
    for (const auto& name : scenarios) {
        Expected e;
        e.request.scenario = name;
        e.request.processor = ob::system::kProcessorNative;
        e.request.seeds_per_job = 1;
        e.request.base_seed = job_base_seed(seed);
        e.request.duration_s = duration_s;
        const auto expansion = ob::system::expand_fleet_request(e.request);
        if (expansion.size() != 1) {
            throw std::logic_error("request for " + name +
                                   " did not expand to one job");
        }
        e.job = expansion.front();
        jobs.push_back(e.job);
        out.push_back(std::move(e));
    }
    ob::system::FleetRunner::Config cfg;
    cfg.threads = threads;
    const auto results = ob::system::FleetRunner(cfg).run(jobs);
    for (std::size_t i = 0; i < out.size(); ++i) {
        out[i].frame = ob::system::encode_job_result(ob::system::make_job_result(
            0, 1, out[i].job.scenario, out[i].job, results[i]));
    }
    return out;
}

ServeHarness::ServeHarness(const std::string& socket_path,
                           std::size_t runner_threads, std::size_t clients)
    : server_([&] {
          ob::system::FleetServer::Config cfg;
          cfg.socket_path = socket_path;
          cfg.runner.threads = runner_threads;
          return cfg;
      }()) {
    thread_ = std::thread([this] {
        try {
            server_.serve();
        } catch (...) {
            serve_error_ = std::current_exception();
            serve_failed_.store(true);
        }
    });
    try {
        const std::int64_t t0 = now_ns();
        while (!server_.listening()) {
            if (serve_failed_.load()) {
                thread_.join();  // serve_error_ is complete once joined
                std::rethrow_exception(serve_error_);
            }
            if (seconds_since(t0) > 30.0) {
                throw std::runtime_error("fleet server did not listen");
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        for (std::size_t c = 0; c < clients; ++c) {
            clients_.push_back(ob::system::FleetServeClient::connect(socket_path));
        }
    } catch (...) {
        stop();
        throw;
    }
}

ServeHarness::~ServeHarness() { stop(); }

void ServeHarness::stop() {
    for (auto& c : clients_) {
        try {
            c.goodbye();
        } catch (const std::exception&) {
            // A broken session has nothing left to say goodbye on.
        }
    }
    clients_.clear();
    server_.request_stop();
    if (thread_.joinable()) thread_.join();
}

std::vector<std::vector<std::size_t>> client_orders(std::size_t requests,
                                                    std::size_t clients) {
    std::vector<std::vector<std::size_t>> orders(clients);
    for (std::size_t c = 0; c < clients; ++c) {
        const std::size_t start = c * requests / clients;
        for (std::size_t i = 0; i < requests; ++i) {
            orders[c].push_back((start + i) % requests);
        }
    }
    return orders;
}

std::vector<double> run_rounds(ServeHarness& h,
                               const std::vector<Expected>& expected,
                               const std::vector<std::vector<std::size_t>>& orders,
                               double seconds, Tracer& tracer, const char* root,
                               std::vector<Sample>& samples) {
    const std::int64_t t0 = now_ns();
    Scope root_span(tracer, root, 0, next_request());
    // Round bookkeeping is touched only by the barrier's completion step,
    // which runs while every client waits, so the clients read it safely
    // after arrive_and_wait.
    std::vector<double> round_s;
    round_s.reserve(4096);
    std::int64_t round_start = t0;
    bool started = false;
    bool stop = false;
    const auto round_boundary = [&]() noexcept {
        const std::int64_t t = now_ns();
        if (started) {
            round_s.push_back(static_cast<double>(t - round_start) * 1e-9);
            stop = seconds_since(t0) >= seconds || round_s.size() == 4096;
        }
        round_start = t;
        started = true;
    };
    std::barrier sync(static_cast<std::ptrdiff_t>(h.clients()), round_boundary);
    std::vector<std::vector<Sample>> per_client(h.clients());
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < h.clients(); ++c) {
        threads.emplace_back([&, c] {
            auto& client = h.client(c);
            for (;;) {
                sync.arrive_and_wait();
                if (stop) return;
                for (const std::size_t idx : orders[c]) {
                    Sample s;
                    s.index = idx;
                    bool broken = false;
                    {
                        Scope span(tracer, "serve.request", root_span.id(),
                                   next_request());
                        const std::int64_t a = now_ns();
                        try {
                            const auto outcome =
                                client.run_fleet(expected[idx].request);
                            s.ok = outcome.results.size() == 1 &&
                                   outcome.done.jobs == 1 &&
                                   ob::system::encode_job_result(
                                       outcome.results.front()) ==
                                       expected[idx].frame;
                        } catch (const std::exception&) {
                            broken = true;  // session state unknown: stop
                        }
                        s.ms = static_cast<double>(now_ns() - a) * 1e-6;
                    }
                    per_client[c].push_back(s);
                    if (broken) {
                        sync.arrive_and_drop();
                        return;
                    }
                }
            }
        });
    }
    for (auto& t : threads) t.join();
    for (const auto& v : per_client) {
        samples.insert(samples.end(), v.begin(), v.end());
    }
    return round_s;
}

void serve_layers(ServeHarness& h, const std::vector<Expected>& expected,
                  const std::vector<std::vector<std::size_t>>& orders,
                  std::size_t runner_threads, Tracer& tracer,
                  LayerCounts& counts) {
    for (int i = 0; i < kPings; ++i) {
        const auto token = static_cast<std::uint64_t>(i) * 0x9E3779B97F4A7C15ull;
        Scope span(tracer, "serve.ping");
        if (h.client(0).ping(token) != token) {
            throw std::runtime_error("ping echoed the wrong token");
        }
    }

    // Each client thread pairs every request with a local run of the same
    // expansion right after it, at the same concurrency: the local run is
    // what the daemon's own runner_.run({job}) costs without protocol and
    // socket, on the same host moment.
    std::vector<std::vector<double>> overhead(orders.size());
    std::vector<std::thread> threads;
    std::atomic<bool> mismatch{false};
    for (std::size_t c = 0; c < orders.size(); ++c) {
        threads.emplace_back([&, c] {
            ob::system::FleetRunner::Config cfg;
            cfg.threads = runner_threads;
            const ob::system::FleetRunner runner(cfg);
            for (std::size_t round = 0; round < kPairedRounds; ++round) {
                for (const std::size_t idx : orders[c]) {
                    const Expected& e = expected[idx];
                    std::int64_t a = now_ns();
                    std::vector<std::uint8_t> served;
                    {
                        Scope span(tracer, "serve.paired_request");
                        try {
                            const auto outcome = h.client(c).run_fleet(e.request);
                            if (outcome.results.size() == 1) {
                                served = ob::system::encode_job_result(
                                    outcome.results.front());
                            }
                        } catch (const std::exception&) {
                            mismatch.store(true);
                            return;
                        }
                    }
                    const double request_ms = static_cast<double>(now_ns() - a) * 1e-6;
                    a = now_ns();
                    std::vector<ob::system::FleetResult> local;
                    {
                        Scope span(tracer, "serve.local_run");
                        local = runner.run({e.job});
                    }
                    const double local_ms = static_cast<double>(now_ns() - a) * 1e-6;
                    if (served != e.frame ||
                        ob::system::encode_job_result(ob::system::make_job_result(
                            0, 1, e.job.scenario, e.job, local.front())) != e.frame) {
                        mismatch.store(true);
                    }
                    overhead[c].push_back(request_ms - local_ms);
                }
            }
        });
    }
    for (auto& t : threads) t.join();
    if (mismatch.load()) {
        throw std::runtime_error("paired request or local run differs from its reference");
    }
    std::vector<double> all;
    for (const auto& v : overhead) all.insert(all.end(), v.begin(), v.end());
    counts.serve_overhead_ms = median(all);
}

void serve_probe(const std::string& socket_path,
                 const std::vector<Expected>& expected, Tracer& tracer,
                 LayerCounts& counts, Report& report) {
    ServeHarness h(socket_path, 1, 1);
    const auto orders = client_orders(expected.size(), 1);
    Tracer untraced(false);
    std::vector<Sample> warm;
    (void)run_rounds(h, expected, orders, 0.0, untraced, "probe.serve", warm);
    for (const auto& s : warm) {
        if (!s.ok) report.problem("serve probe: request result mismatch");
    }
    serve_layers(h, expected, orders, 1, tracer, counts);
}

void emit_layer_metrics(const Tracer& tracer, const LayerCounts& counts,
                        const char* root, Report& report) {
    const auto per_item_us = [&](const char* name) {
        const auto t = tracer.total(name);
        return t.items > 0.0 ? t.ns / t.items * 1e-3 : 0.0;
    };
    const auto per_span = [&](const char* name) {
        const auto t = tracer.total(name);
        return t.spans > 0 ? t.ns / static_cast<double>(t.spans) : 0.0;
    };
    const auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
    const auto u = [](std::uint64_t v) { return static_cast<double>(v); };

    const double feed_us = per_item_us("system.feed");
    const double ekf_us = per_item_us("core.ekf_step");
    const double sabre_us = per_item_us("sabre.step");

    report.metric("sim.trace_build_us", per_item_us("sim.trace_build"), "us");
    report.metric("sim.realize_us", per_item_us("sim.realize"), "us");
    report.metric("sim.ensemble_realize_us",
                  per_item_us("sim.ensemble_realize"), "us");
    report.metric("sim.trace_reuse", counts.trace_reuse, "count");
    report.metric("core.ekf_step_us", ekf_us, "us");
    report.metric("core.ensemble_ekf_us", per_item_us("core.ensemble_ekf"),
                  "us");
    report.metric("core.updates_per_epoch",
                  ratio(u(counts.updates), u(counts.epochs)), "count");
    report.metric("system.feed_us", feed_us, "us");
    report.metric("system.feed_self_us", feed_us - ekf_us, "us");
    report.metric("system.ensemble_feed_us",
                  per_item_us("system.ensemble_feed"), "us");
    report.metric("comm.frames_lost", u(counts.frames_lost), "count");
    report.metric("comm.packets_lost", u(counts.packets_lost), "count");
    report.metric("sabre.step_us", sabre_us, "us");
    report.metric("sabre.instructions_per_update",
                  ratio(u(counts.sabre_instructions), u(counts.sabre_updates)),
                  "count");
    report.metric("sabre.cycles_per_update",
                  ratio(u(counts.sabre_cycles), u(counts.sabre_updates)),
                  "count");
    report.metric("sabre.fpu_ops_per_update",
                  ratio(u(counts.sabre_fpu_ops), u(counts.sabre_updates)),
                  "count");
    report.metric("sabre.host_ns_per_instruction",
                  ratio(tracer.total("sabre.step").ns,
                        u(counts.sabre_instructions)),
                  "ns");
    report.metric("fleet.plan_us", per_span("fleet.plan") * 1e-3, "us");
    report.metric("fleet.run_items_s", per_span("fleet.run_items") * 1e-9, "s");
    report.metric("fleet.reduce_us", per_span("fleet.reduce") * 1e-3, "us");
    report.metric("fleet.parallel_efficiency", counts.parallel_efficiency,
                  "share");
    report.metric("serve.ping_us_p50", median(tracer.durations("serve.ping")) * 1e-3,
                  "us");
    report.metric("serve.overhead_ms", counts.serve_overhead_ms, "ms");
    report.metric("unattributed_share", tracer.unattributed_share(root),
                  "share");
    report.metric("trace_overhead_share", counts.trace_overhead_share,
                  "share");
}

}  // namespace perfbench
