// Governed end-to-end benchmark over the public API:
//   e2e_bench --workload analytics|export|interactive --seed N --seconds S
//             --trace 0|1 [--fuse-policies 0|1]
//             [--admission-slots N] [--source-digest HEX]
// Prints one report line (fingerprint and detail) and then, as the last
// line, {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <thread>

#include "calibration.h"
#include "json.h"
#include "run_loop.h"
#include "stats.h"
#include "traced.h"

namespace e2e {
namespace {

/// Ops a timed run completes at least: enough that p90 has ten samples
/// beyond it.
constexpr size_t kMinOps = 100;

/// Set-ups per untraced run, each followed by 1/kSetups of the timed loop;
/// `setup_s` is their median.
constexpr size_t kSetups = 7;
/// SubSeed purpose of each loop slice's op stream.
constexpr uint64_t kSliceSeed = 0x511ce;

struct Args {
  RunConfig config;
  std::string source_digest = "unknown";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  if (argc % 2 == 0) {
    std::fprintf(stderr, "flags come in --name value pairs\n");
    return false;
  }
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      args->config.workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      args->config.seed = std::strtoull(value, nullptr, 10);
    } else if (key == "--seconds") {
      args->config.seconds = std::strtod(value, nullptr);
    } else if (key == "--trace") {
      args->config.trace = std::strcmp(value, "0") != 0;
    } else if (key == "--fuse-policies") {
      args->config.fuse_policies = std::strcmp(value, "0") != 0;
    } else if (key == "--admission-slots") {
      args->config.admission_slots = std::strtoull(value, nullptr, 10);
    } else if (key == "--source-digest") {
      args->source_digest = value;
    } else {
      std::fprintf(stderr, "unknown argument %s\n", key.c_str());
      return false;
    }
  }
  const std::string& w = args->config.workload;
  if (!have_workload ||
      (w != "analytics" && w != "export" && w != "interactive")) {
    std::fprintf(stderr,
                 "--workload must be analytics, export or interactive\n");
    return false;
  }
  return args->config.seconds > 0;
}

void AddLatencyReport(const char* name, const std::vector<double>& samples,
                      Report* report) {
  if (samples.empty()) return;
  const double tail = TailPercentile(samples.size());
  std::string json = "{\"n\": " + std::to_string(samples.size()) +
                     ", \"p50_ms\": " + JsonNumber(Percentile(samples, 0.5));
  if (tail > 0) {
    json += ", \"tail_percentile\": " + JsonNumber(tail * 100) +
            ", \"tail_ms\": " + JsonNumber(Percentile(samples, tail));
  }
  report->emplace_back(std::string("latency.") + name, json + "}");
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) return 2;
  const RunConfig& config = args.config;

  const bool interactive = config.workload == "interactive";
  std::vector<double> setup_s;
  std::unique_ptr<WorkloadEnv> env;
  LoopResult loop;
  size_t clients = 0;
  uint64_t stale_plan_retries = 0;
  std::vector<double> setup_wall_s;
  const auto set_up = [&] {
    const auto start = std::chrono::steady_clock::now();
    env = WorkloadEnv::SetUp(config);
    setup_wall_s.push_back(std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - start)
                               .count());
    clients = env->clients();
  };
  // The platform's final oracle checks, then its teardown, so that one
  // platform is alive at a time.
  const auto tear_down = [&] {
    uint64_t final_failed = 0;
    const std::string final_error = env->FinalCheck(&final_failed);
    loop.failed += final_failed;
    if (loop.first_error.empty()) loop.first_error = final_error;
    stale_plan_retries += env->stale_plan_retries.load();
    env.reset();
  };

  Report report = {
      {"workload", JsonString(config.workload)},
      {"seed", std::to_string(config.seed)},
      {"trace", config.trace ? "1" : "0"},
      {"nproc", std::to_string(std::thread::hardware_concurrency())},
      {"build_type", JsonString(E2E_BUILD_TYPE)},
      {"compiler", JsonString(E2E_CXX_COMPILER)},
      {"source_digest", JsonString(args.source_digest)},
      {"fact_rows", std::to_string(interactive ? 0 : kFactRows)},
      {"dim_rows", std::to_string(interactive ? 0 : kDimRows)},
      {"account_rows", std::to_string(interactive ? kAccountRows : 0)},
      {"sessions", std::to_string(interactive ? kSessions : 1)},
      {"admission_slots",
       std::to_string(interactive ? config.admission_slots : 0)},
      {"fuse_policies", config.fuse_policies ? "true" : "false"},
  };

  Metrics metrics;
  if (!config.trace) {
    // Set-ups alternate with equal slices of the timed loop, so setup_s
    // samples the host over the same window as the loop metrics do. Each
    // slice runs its own op stream on a freshly set-up platform.
    for (size_t i = 0; i < kSetups; ++i) {
      set_up();
      LoopResult slice =
          RunClosedLoop(*env, config.seconds / kSetups,
                        (kMinOps + kSetups - 1) / kSetups,
                        SubSeed(config.seed, kSliceSeed, i));
      // The set-up in reference seconds, at the host speed its slice saw.
      setup_s.push_back(setup_wall_s.back() * kReferencePassMs /
                        Median(slice.calibration_ms));
      loop.Add(slice);
      tear_down();
    }
    // Time metrics in reference time (calibration.h); the report keeps the
    // wall-clock figures beside them.
    const std::vector<double> all = loop.All();
    double ref_busy_s = 0;
    for (double ms : loop.ref_ms) ref_busy_s += ms / 1000;
    const double ref_per_s = clients / ref_busy_s;
    metrics = {
        {"setup_s", {Median(setup_s), "s"}},
        {"queries_per_s", {loop.ref_ms.size() * ref_per_s, "ops/ref_s"}},
        {"latency_p50_ms", {Median(loop.cycle_mean_ref_ms), "ref_ms"}},
        {"latency_p90_ms", {Percentile(loop.ref_ms, 0.9), "ref_ms"}},
        {"result_rows_per_s", {loop.rows * ref_per_s, "rows/ref_s"}},
        {"peak_rss_mb", {PeakRssMb(), "MB"}},
    };
    report.emplace_back(
        "wall",
        JsonObject({
            {"queries_per_s", JsonNumber(all.size() / loop.wall_s)},
            {"latency_p50_ms", JsonNumber(Median(loop.cycle_mean_ms))},
            {"latency_p90_ms", JsonNumber(Percentile(all, 0.9))},
            {"result_rows_per_s", JsonNumber(loop.rows / loop.wall_s)},
        }));
    report.emplace_back(
        "calibration_pass_ms",
        JsonObject({
            {"n", std::to_string(loop.calibration_ms.size())},
            {"reference", JsonNumber(kReferencePassMs)},
            {"p10", JsonNumber(Percentile(loop.calibration_ms, 0.1))},
            {"p50", JsonNumber(Median(loop.calibration_ms))},
            {"p90", JsonNumber(Percentile(loop.calibration_ms, 0.9))},
        }));
    AddLatencyReport("all", all, &report);
    AddLatencyReport("read", loop.Reads(), &report);
    AddLatencyReport("write", loop.Writes(), &report);
    for (size_t k = 0; k < kOpKinds; ++k) {
      AddLatencyReport(OpKindName(static_cast<OpKind>(k)), loop.latency_ms[k],
                       &report);
    }
  } else {
    set_up();
    metrics = RunTraced(*env, config.seconds, &loop, &report);
    tear_down();
  }
  report.emplace_back("clients", std::to_string(clients));
  report.emplace_back("stale_plan_retries",
                      std::to_string(stale_plan_retries));

  report.emplace_back("failed_fraction",
                      JsonNumber(loop.attempted == 0
                                     ? 1.0
                                     : static_cast<double>(loop.failed) /
                                           loop.attempted));
  report.emplace_back("first_error", JsonString(loop.first_error));
  for (const auto& [name, values] :
       {std::pair{"setup_s_each", &setup_s},
        std::pair{"setup_wall_s_each", &setup_wall_s}}) {
    std::string json = "[";
    for (size_t i = 0; i < values->size(); ++i) {
      json += (i ? ", " : "") + JsonNumber((*values)[i]);
    }
    report.emplace_back(name, json + "]");
  }

  std::printf("{\"report\": %s}\n", JsonObject(report).c_str());

  const bool correct = loop.failed == 0 && loop.attempted > 0;
  Report metric_fields;
  for (const auto& [name, metric] : metrics) {
    metric_fields.emplace_back(
        name, JsonObject({{"value", JsonNumber(metric.value)},
                          {"unit", JsonString(metric.unit)}}));
  }
  const std::string result = JsonObject({
      {"correct", correct ? "true" : "false"},
      {"attempted", std::to_string(loop.attempted)},
      {"failed", std::to_string(loop.failed)},
      {"metrics", JsonObject(metric_fields)},
  });
  std::printf("%s\n", result.c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) {
  try {
    return e2e::Main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2e_bench: %s\n", e.what());
    return 1;
  }
}
