// Shared pieces of the perfbench binary: options, the per-run report, the
// in-memory span tracer, order statistics and result digests.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "system/boresight_system.hpp"
#include "system/fleet.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
}

[[nodiscard]] inline double seconds_since(std::int64_t t0_ns) {
    return static_cast<double>(now_ns() - t0_ns) * 1e-9;
}

struct Options {
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 10.0;
    bool trace = false;
    /// Minimal input sizes (self-test): every code path, a fraction of
    /// the work. Numbers from a smoke run are not comparable to full runs.
    bool smoke = false;
    /// Flip one bit of a reference result before checking, so the run
    /// must report failures (self-test of the output checks).
    bool corrupt_reference = false;
    std::string out_dir;  ///< reports and span dumps land here
};

struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
};

/// Everything one run reports: the result line's counts and metrics plus
/// free-form details (raw JSON values) for the report file.
struct Report {
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::size_t threads = 1;
    std::size_t clients = 0;
    std::vector<std::string> problems;  ///< failed checks, human-readable
    std::vector<Metric> metrics;
    std::vector<std::pair<std::string, std::string>> details;

    void metric(std::string name, double value, std::string unit) {
        metrics.push_back({std::move(name), value, std::move(unit)});
    }
    void detail(std::string key, std::string json) {
        details.emplace_back(std::move(key), std::move(json));
    }
    void problem(std::string what) { problems.push_back(std::move(what)); }
    [[nodiscard]] bool correct() const {
        return failed == 0 && problems.empty() && attempted > 0;
    }
};

/// One timed interval around a call into the program. Spans of one
/// request share `request`; `parent` is the enclosing span's id (0 for a
/// root). `items` is the work the call did (epochs, lanes, jobs), so
/// per-item costs are measured where the work happens.
struct Span {
    std::uint64_t id = 0;
    std::uint64_t parent = 0;
    std::uint64_t request = 0;
    const char* name = "";
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::uint64_t items = 1;
};

/// In-memory span store. Disabled tracers record nothing and cost one
/// branch per scope; spans are written out only when the run ends.
class Tracer {
public:
    explicit Tracer(bool enabled) : enabled_(enabled) {}

    [[nodiscard]] bool enabled() const { return enabled_; }
    [[nodiscard]] std::uint64_t reserve_id() { return ++next_id_; }
    void record(const Span& s);

    struct Total {
        double ns = 0.0;
        double items = 0.0;
        std::size_t spans = 0;
    };
    /// Summed duration and items of every span with this name.
    [[nodiscard]] Total total(std::string_view name) const;
    /// Durations (ns) of every span with this name.
    [[nodiscard]] std::vector<double> durations(std::string_view name) const;
    /// Over all spans named `root`: time not covered by any child span,
    /// as a share of the roots' total duration.
    [[nodiscard]] double unattributed_share(std::string_view root) const;

    void write_csv(const std::string& path) const;

private:
    bool enabled_;
    std::atomic<std::uint64_t> next_id_{0};
    mutable std::mutex mu_;
    std::vector<Span> spans_;  // guarded by mu_
};

/// RAII span: opens at construction, records at destruction.
class Scope {
public:
    Scope(Tracer& tracer, const char* name, std::uint64_t parent = 0,
          std::uint64_t request = 0)
        : tracer_(tracer) {
        if (!tracer_.enabled()) return;
        span_.id = tracer_.reserve_id();
        span_.parent = parent;
        span_.request = request;
        span_.name = name;
        span_.start_ns = now_ns();
    }
    ~Scope() {
        if (!tracer_.enabled()) return;
        span_.end_ns = now_ns();
        tracer_.record(span_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    [[nodiscard]] std::uint64_t id() const { return span_.id; }
    void items(std::uint64_t n) { span_.items = n; }

private:
    Tracer& tracer_;
    Span span_;
};

/// Linear-interpolated quantile (q in [0, 1]) of an unsorted sample.
[[nodiscard]] double quantile(std::vector<double> v, double q);
[[nodiscard]] inline double median(std::vector<double> v) {
    return quantile(std::move(v), 0.5);
}

/// FNV-1a over the exact bit patterns of the values fed in.
class Digest {
public:
    void add(std::uint64_t v);
    void add(double v);
    void add(std::string_view s);
    [[nodiscard]] std::uint64_t value() const { return h_; }

private:
    std::uint64_t h_ = 0xcbf29ce484222325ull;
};

[[nodiscard]] std::uint64_t digest(const ob::system::BoresightSystem::Status& s);
[[nodiscard]] std::uint64_t digest(const ob::system::FleetSeedResult& r);

[[nodiscard]] double peak_rss_mb();

/// A JSON array of the values, for report details.
[[nodiscard]] std::string json_list(const std::vector<double>& values);

/// Library scenario names in library order, rotated by `seed`, so each
/// seed starts its cycle somewhere else.
[[nodiscard]] std::vector<std::string> rotated_library(std::uint64_t seed);

/// Base seed the workload seed maps to in fleet jobs and requests (the
/// wire protocol reads base_seed 0 as "library default").
[[nodiscard]] inline std::uint64_t job_base_seed(std::uint64_t seed) {
    return seed + 1;
}

}  // namespace perfbench
