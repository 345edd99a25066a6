// perfbench: the repository benchmark.
//
//   perfbench --workload stream|stream-sabre|montecarlo|served-sweep --seed N
//             --seconds S --trace 0|1 [--out DIR] [--smoke]
//             [--corrupt-reference]
//
// Prints a run stamp line, then as its last line one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// per-layer ones. The stamp, metrics and details also land in
// DIR/report-<workload>-<seed>-<trace>.json, and a traced run's spans in
// DIR/spans-<workload>-<seed>.csv.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>
#include <string_view>
#include <thread>

#include "common.hpp"
#include "workloads.hpp"

namespace {

using perfbench::Options;
using perfbench::Report;

[[noreturn]] void usage(const char* why) {
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "stream|stream-sabre|montecarlo|served-sweep --seed N --seconds S "
                 "--trace 0|1 [--out DIR] [--smoke] [--corrupt-reference]\n",
                 why);
    std::exit(2);
}

[[nodiscard]] Options parse(int argc, char** argv) {
    Options opt;
    opt.out_dir = ".bench_build/perfbench/out";
    bool have_seed = false;
    for (int i = 1; i < argc; ++i) {
        const std::string_view arg = argv[i];
        const auto value = [&]() -> std::string {
            if (i + 1 >= argc) usage("missing value");
            return argv[++i];
        };
        try {
            if (arg == "--workload") {
                opt.workload = value();
            } else if (arg == "--seed") {
                opt.seed = std::stoull(value());
                have_seed = true;
            } else if (arg == "--seconds") {
                opt.seconds = std::stod(value());
            } else if (arg == "--trace") {
                const std::string v = value();
                if (v != "0" && v != "1") usage("--trace takes 0 or 1");
                opt.trace = v == "1";
            } else if (arg == "--out") {
                opt.out_dir = value();
            } else if (arg == "--smoke") {
                opt.smoke = true;
            } else if (arg == "--corrupt-reference") {
                opt.corrupt_reference = true;
            } else {
                usage("unknown argument");
            }
        } catch (const std::logic_error&) {
            usage("bad number");
        }
    }
    if (opt.workload.empty() || !have_seed) usage("--workload and --seed are required");
    if (!(opt.seconds > 0.0)) usage("--seconds must be positive");
    return opt;
}

[[nodiscard]] std::string json_string(std::string_view s) {
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out + "\"";
}

[[nodiscard]] std::string json_number(double v) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

[[nodiscard]] std::string stamp(const Options& opt, const Report& rep) {
    std::string s = "{";
    s += "\"workload\": " + json_string(opt.workload);
    s += ", \"seed\": " + std::to_string(opt.seed);
    s += ", \"seconds\": " + json_number(opt.seconds);
    s += ", \"trace\": " + std::string(opt.trace ? "1" : "0");
    s += ", \"smoke\": " + std::string(opt.smoke ? "true" : "false");
    s += ", \"threads\": " + std::to_string(rep.threads);
    s += ", \"clients\": " + std::to_string(rep.clients);
    s += ", \"nproc\": " + std::to_string(std::thread::hardware_concurrency());
    s += ", \"cpu\": " + json_string(PERFBENCH_CPU);
    s += ", \"compiler\": " + json_string(PERFBENCH_COMPILER);
    s += ", \"build_type\": " + json_string(PERFBENCH_BUILD_TYPE);
    s += ", \"flags\": " + json_string(PERFBENCH_FLAGS);
    return s + "}";
}

[[nodiscard]] std::string metrics_json(Report& rep) {
    std::string s = "{";
    for (const auto& m : rep.metrics) {
        double v = m.value;
        if (!std::isfinite(v)) {
            rep.problem("metric " + m.name + " is not finite");
            v = 0.0;
        }
        if (s.size() > 1) s += ", ";
        s += json_string(m.name) + ": {\"value\": " + json_number(v) +
             ", \"unit\": " + json_string(m.unit) + "}";
    }
    return s + "}";
}

void write_file(const std::string& path, const std::string& text) {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr || std::fputs(text.c_str(), f) < 0 || std::fclose(f) != 0) {
        throw std::runtime_error("cannot write " + path);
    }
}

}  // namespace

int main(int argc, char** argv) {
    const Options opt = parse(argc, argv);
    try {
        std::filesystem::create_directories(opt.out_dir);
        perfbench::Tracer tracer(opt.trace);
        Report rep;
        using Processor = ob::system::BoresightSystem::Processor;
        if (opt.workload == "stream") {
            rep = perfbench::run_stream(opt, Processor::kNative, tracer);
        } else if (opt.workload == "stream-sabre") {
            rep = perfbench::run_stream(opt, Processor::kSabre, tracer);
        } else if (opt.workload == "montecarlo") {
            rep = perfbench::run_montecarlo(opt, tracer);
        } else if (opt.workload == "served-sweep") {
            rep = perfbench::run_served_sweep(opt, tracer);
        } else {
            usage("unknown workload");
        }
        rep.detail("peak_rss_mb", std::to_string(perfbench::peak_rss_mb()));
        if (!opt.trace && rep.attempted > 0) {
            rep.metric("ok_share",
                       static_cast<double>(rep.attempted - rep.failed) /
                           static_cast<double>(rep.attempted),
                       "share");
        }

        const std::string tag = opt.workload + "-" + std::to_string(opt.seed) +
                                "-" + (opt.trace ? "1" : "0");
        if (opt.trace) {
            tracer.write_csv(opt.out_dir + "/spans-" + opt.workload + "-" +
                             std::to_string(opt.seed) + ".csv");
        }
        const std::string metrics = metrics_json(rep);
        const std::string run_stamp = stamp(opt, rep);
        std::string problems = "[";
        for (const auto& p : rep.problems) {
            if (problems.size() > 1) problems += ", ";
            problems += json_string(p);
        }
        problems += "]";
        std::string details = "{";
        for (const auto& [k, v] : rep.details) {
            if (details.size() > 1) details += ", ";
            details += json_string(k) + ": " + v;
        }
        details += "}";
        const std::string counts =
            "\"correct\": " + std::string(rep.correct() ? "true" : "false") +
            ", \"attempted\": " + std::to_string(rep.attempted) +
            ", \"failed\": " + std::to_string(rep.failed);
        write_file(opt.out_dir + "/report-" + tag + ".json",
                   "{\"stamp\": " + run_stamp + ", " + counts +
                       ", \"problems\": " + problems + ", \"details\": " +
                       details + ", \"metrics\": " + metrics + "}\n");

        for (const auto& p : rep.problems) {
            std::fprintf(stderr, "perfbench: check failed: %s\n", p.c_str());
        }
        std::printf("stamp: %s\n", run_stamp.c_str());
        std::printf("details: %s\n", details.c_str());
        std::printf("{%s, \"metrics\": %s}\n", counts.c_str(), metrics.c_str());
        return 0;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
}
