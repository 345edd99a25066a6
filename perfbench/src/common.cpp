#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <unordered_map>

#include "sim/scenario_library.hpp"

namespace perfbench {

void Tracer::record(const Span& s) {
    const std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(s);
}

Tracer::Total Tracer::total(std::string_view name) const {
    const std::lock_guard<std::mutex> lock(mu_);
    Total t;
    for (const auto& s : spans_) {
        if (name != s.name) continue;
        t.ns += static_cast<double>(s.end_ns - s.start_ns);
        t.items += static_cast<double>(s.items);
        ++t.spans;
    }
    return t;
}

std::vector<double> Tracer::durations(std::string_view name) const {
    const std::lock_guard<std::mutex> lock(mu_);
    std::vector<double> out;
    for (const auto& s : spans_) {
        if (name == s.name) {
            out.push_back(static_cast<double>(s.end_ns - s.start_ns));
        }
    }
    return out;
}

double Tracer::unattributed_share(std::string_view root) const {
    const std::lock_guard<std::mutex> lock(mu_);
    std::unordered_map<std::uint64_t,
                       std::vector<std::pair<std::int64_t, std::int64_t>>>
        children;
    for (const auto& s : spans_) {
        if (s.parent != 0) children[s.parent].emplace_back(s.start_ns, s.end_ns);
    }
    double total = 0.0;
    double uncovered = 0.0;
    for (const auto& s : spans_) {
        if (root != s.name) continue;
        const double dur = static_cast<double>(s.end_ns - s.start_ns);
        total += dur;
        auto& kids = children[s.id];
        std::sort(kids.begin(), kids.end());
        // Union of the children's intervals, clipped to the root: children
        // on concurrent client threads overlap and must count once.
        std::int64_t covered = 0;
        std::int64_t cursor = s.start_ns;
        for (const auto& [a, b] : kids) {
            const std::int64_t lo = std::max(a, cursor);
            const std::int64_t hi = std::min(b, s.end_ns);
            if (hi > lo) {
                covered += hi - lo;
                cursor = hi;
            }
        }
        uncovered += dur - static_cast<double>(covered);
    }
    return total > 0.0 ? uncovered / total : 0.0;
}

void Tracer::write_csv(const std::string& path) const {
    const std::lock_guard<std::mutex> lock(mu_);
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) throw std::runtime_error("cannot write " + path);
    std::fputs("id,parent,request,name,start_ns,end_ns,items\n", f);
    for (const auto& s : spans_) {
        std::fprintf(f, "%llu,%llu,%llu,%s,%lld,%lld,%llu\n",
                     static_cast<unsigned long long>(s.id),
                     static_cast<unsigned long long>(s.parent),
                     static_cast<unsigned long long>(s.request), s.name,
                     static_cast<long long>(s.start_ns),
                     static_cast<long long>(s.end_ns),
                     static_cast<unsigned long long>(s.items));
    }
    if (std::fclose(f) != 0) throw std::runtime_error("cannot write " + path);
}

double quantile(std::vector<double> v, double q) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return v[lo] + (v[hi] - v[lo]) * frac;
}

void Digest::add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
        h_ ^= (v >> (8 * i)) & 0xffu;
        h_ *= 0x100000001b3ull;
    }
}

void Digest::add(double v) { add(std::bit_cast<std::uint64_t>(v)); }

void Digest::add(std::string_view s) {
    for (const char c : s) {
        h_ ^= static_cast<unsigned char>(c);
        h_ *= 0x100000001b3ull;
    }
    add(static_cast<std::uint64_t>(s.size()));
}

std::uint64_t digest(const ob::system::BoresightSystem::Status& s) {
    Digest d;
    d.add(s.estimate.roll);
    d.add(s.estimate.pitch);
    d.add(s.estimate.yaw);
    for (std::size_t i = 0; i < 3; ++i) d.add(s.sigma3[i]);
    d.add(static_cast<std::uint64_t>(s.updates));
    d.add(static_cast<std::uint64_t>(s.dmu_frames_lost));
    d.add(static_cast<std::uint64_t>(s.acc_packets_lost));
    d.add(s.worst_transport_latency);
    d.add(s.measurement_noise);
    d.add(s.residual_rms);
    d.add(static_cast<std::uint64_t>(s.tuner_adjustments));
    d.add(static_cast<std::uint64_t>(s.residual_flagged));
    d.add(s.residual_flag_s);
    d.add(s.residual_windowed_rate);
    d.add(static_cast<std::uint64_t>(s.residual_exceedances));
    d.add(static_cast<std::uint64_t>(s.health));
    d.add(static_cast<std::uint64_t>(s.worst_health));
    d.add(static_cast<std::uint64_t>(s.supervisor_alarmed));
    d.add(s.supervisor_alarm_s);
    d.add(s.dmu_delivery_rate);
    d.add(s.acc_delivery_rate);
    d.add(s.coast_s);
    d.add(static_cast<std::uint64_t>(s.recoveries));
    d.add(s.reconvergence_s);
    d.add(static_cast<std::uint64_t>(s.acc_implausible));
    return d.value();
}

std::uint64_t digest(const ob::system::FleetSeedResult& r) {
    Digest d;
    d.add(r.sensor_seed);
    d.add(r.result.label);
    d.add(r.result.truth.roll);
    d.add(r.result.truth.pitch);
    d.add(r.result.truth.yaw);
    d.add(r.result.estimate.roll);
    d.add(r.result.estimate.pitch);
    d.add(r.result.estimate.yaw);
    for (std::size_t i = 0; i < 3; ++i) d.add(r.result.sigma3_rad[i]);
    d.add(r.result.residual_rms);
    d.add(r.result.exceedance_rate);
    d.add(r.result.meas_noise);
    d.add(r.result.duration_s);
    d.add(static_cast<std::uint64_t>(r.trace.epochs));
    d.add(r.trace.worst_roll_err_deg);
    d.add(r.trace.worst_pitch_err_deg);
    d.add(r.trace.worst_yaw_err_deg);
    d.add(static_cast<std::uint64_t>(r.trace.checked_points));
    d.add(r.trace.first_divergence_s);
    d.add(r.trace.fault_window_start_s);
    d.add(r.trace.fault_window_duration_s);
    d.add(digest(r.final_status));
    d.add(static_cast<std::uint64_t>(r.within_envelope));
    d.add(r.calibrated_bias[0]);
    d.add(r.calibrated_bias[1]);
    d.add(r.calibration_noise);
    d.add(static_cast<std::uint64_t>(r.calibration_samples));
    return d.value();
}

double peak_rss_mb() {
    rusage u{};
    getrusage(RUSAGE_SELF, &u);
    return static_cast<double>(u.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string json_list(const std::vector<double>& values) {
    std::string out = "[";
    for (std::size_t i = 0; i < values.size(); ++i) {
        if (i > 0) out += ",";
        char buf[32];
        std::snprintf(buf, sizeof buf, "%.6g", values[i]);
        out += buf;
    }
    out += "]";
    return out;
}

std::vector<std::string> rotated_library(std::uint64_t seed) {
    auto names = ob::sim::ScenarioLibrary::instance().names();
    const auto shift = static_cast<std::ptrdiff_t>(seed % names.size());
    std::rotate(names.begin(), names.begin() + shift, names.end());
    return names;
}

}  // namespace perfbench
