// falcon_perfbench: runs one benchmark workload and prints its result.
//
//   falcon_perfbench --workload <hospital-x2|spec-1m-append|service-synth10k>
//       --seed <n> --seconds <s> --trace <0|1> --work_dir <dir>
//       [--trace_out <file>] [--smoke 1] [--git_sha <sha>]
//
// Output (stdout): a provenance line, a detail line (sample counts, gate
// outcomes), and last the result line {"correct", "attempted", "failed",
// "metrics"}. With --trace 0 the metrics are the end-to-end set, with
// --trace 1 the per-layer set (see README.md). Exits 1 when a correctness
// gate fails, 2 on bad usage or a non-Release build.
#include <sys/stat.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <thread>

#include "common.h"
#include "common/json.h"
#include "common/simd.h"
#include "common/thread_pool.h"

#ifndef FALCON_PERFBENCH_BUILD_TYPE
#define FALCON_PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace falcon::perfbench {
namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "falcon_perfbench: %s\n"
               "usage: falcon_perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> --work_dir <dir> "
               "[--trace_out <file>] [--smoke 1] [--git_sha <sha>]\n",
               why);
  return 2;
}

bool ParseU64(const std::string& s, uint64_t* out) {
  if (s.empty()) return false;
  char* end = nullptr;
  unsigned long long v = std::strtoull(s.c_str(), &end, 10);
  if (*end != '\0') return false;
  *out = v;
  return true;
}

int Main(int argc, char** argv) {
  RunConfig config;
  std::string git_sha = "unknown";
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    std::string_view flag = argv[i];
    if (i + 1 >= argc) return Usage("flag without a value");
    std::string value = argv[++i];
    uint64_t n = 0;
    if (flag == "--workload") {
      config.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      if (!ParseU64(value, &n)) return Usage("--seed takes an integer");
      config.seed = n;
    } else if (flag == "--seconds") {
      char* end = nullptr;
      config.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(config.seconds > 0.0) || config.seconds > 3600) {
        return Usage("--seconds takes a number in (0, 3600]");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return Usage("--trace takes 0 or 1");
      config.trace = value == "1";
    } else if (flag == "--smoke") {
      config.smoke = value == "1";
    } else if (flag == "--trace_out") {
      config.trace_out = value;
    } else if (flag == "--work_dir") {
      config.work_dir = value;
    } else if (flag == "--git_sha") {
      git_sha = value;
    } else {
      return Usage("unknown flag");
    }
  }
  if (!have_workload) return Usage("--workload is required");
  if (config.work_dir.empty()) return Usage("--work_dir is required");
  mkdir(config.work_dir.c_str(), 0755);

  // Debug or sanitizer builds time a different program: refuse to emit
  // numbers from them.
#ifndef NDEBUG
  const bool asserts_on = true;
#else
  const bool asserts_on = false;
#endif
  if (std::string_view(FALCON_PERFBENCH_BUILD_TYPE) != "Release" ||
      asserts_on) {
    std::fprintf(stderr,
                 "falcon_perfbench: built as '%s'; only a Release build may "
                 "report numbers\n",
                 FALCON_PERFBENCH_BUILD_TYPE);
    return 2;
  }

  // The library runs with one thread unless FALCON_THREADS says otherwise.
  // On a host whose cores are shared, a step that fans out onto the pool
  // waits for its slowest thread, and its latency then follows the host's
  // scheduling more than the program; the service's parallelism is its
  // worker pool. Must precede the first pool use.
  setenv("FALCON_THREADS", "1", /*overwrite=*/0);
  const char* threads_env = std::getenv("FALCON_THREADS");
  JsonValue prov = JsonValue::Object();
  prov.Set("git_sha", git_sha);
  prov.Set("build_type", FALCON_PERFBENCH_BUILD_TYPE);
  prov.Set("nproc", static_cast<size_t>(std::thread::hardware_concurrency()));
  prov.Set("falcon_threads_env", threads_env != nullptr ? threads_env : "");
  prov.Set("falcon_threads", ThreadPool::Global().num_threads());
  prov.Set("simd_level", simd::LevelName(simd::ActiveLevel()));
  prov.Set("workload", config.workload);
  prov.Set("seed", static_cast<int64_t>(config.seed));
  prov.Set("seconds", config.seconds);
  prov.Set("trace", config.trace);
  prov.Set("smoke", config.smoke);
  JsonValue prov_line = JsonValue::Object();
  prov_line.Set("provenance", std::move(prov));
  std::printf("%s\n", prov_line.Serialize().c_str());
  std::fflush(stdout);

  Report report;
  Status st;
  if (config.workload == "hospital-x2") {
    st = RunHospital(config, &report);
  } else if (config.workload == "spec-1m-append") {
    st = RunSpecAppend(config, &report);
  } else if (config.workload == "service-synth10k") {
    st = RunService(config, &report);
  } else {
    return Usage("unknown workload");
  }
  if (!st.ok()) {
    std::fprintf(stderr, "falcon_perfbench: %s failed: %s\n",
                 config.workload.c_str(), st.ToString().c_str());
    return 1;
  }

  if (config.trace) {
    // A layer that does no work on this workload reports 0 (README.md
    // lists which).
    std::string idle;
    for (const auto& [name, unit] : PerLayerMetrics()) {
      if (!report.HasMetric(name)) {
        report.Metric(name, 0.0, unit);
        idle += idle.empty() ? name : "," + name;
      }
    }
    report.DetailText("idle_layers", idle);
  } else {
    for (const auto& [name, unit] : EndToEndMetrics()) {
      report.Gate(report.HasMetric(name),
                  "end-to-end metric " + name + " emitted");
    }
  }
  std::printf("%s\n", report.DetailJson().c_str());
  std::printf("%s\n", report.ResultJson().c_str());
  std::fflush(stdout);
  return report.correct() ? 0 : 1;
}

}  // namespace
}  // namespace falcon::perfbench

int main(int argc, char** argv) {
  return falcon::perfbench::Main(argc, argv);
}
