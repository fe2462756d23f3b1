// hwbench: the repository benchmark. One process runs one workload
// (kv_serve, tpcc or analytics) through hwstar's public API, checks every
// output, and prints three JSON lines on stdout: the host/config
// fingerprint, every metric measured with its sample count, and last the
// result object ({"correct", "attempted", "failed", "metrics"}) carrying
// the end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).
//
//   hwbench --workload <kv_serve|tpcc|analytics> --seed <n> --seconds <s>
//           --trace <0|1> --work-dir <dir> [--smoke]
//
// Exits non-zero when any operation or output check failed.

#include <malloc.h>
#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common.h"

namespace {

void Usage() {
  std::fprintf(stderr,
               "usage: hwbench --workload <kv_serve|tpcc|analytics> "
               "--seed <n> --seconds <s> --trace <0|1> --work-dir <dir> "
               "[--smoke]\n");
}

bool ParseArgs(int argc, char** argv, hwbench::Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      args->smoke = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value, &end);
      if (*end != '\0' || !(args->seconds > 0) || args->seconds > 600) {
        return false;
      }
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return false;
      }
      args->trace = value[0] == '1';
    } else if (flag == "--work-dir") {
      args->work_dir = value;
    } else {
      return false;
    }
  }
  return !args->workload.empty() && !args->work_dir.empty();
}

void PrintMetrics(
    const hwbench::Report& report,
    const std::vector<std::pair<std::string, std::string>>& names) {
  bool first = true;
  for (const auto& [name, unit] : names) {
    auto it = report.metrics().find(name);
    // A per-layer metric of a layer this workload does not run is 0.
    const double value = it == report.metrics().end() ? 0.0 : it->second.value;
    std::printf("%s%s: {\"value\": %.17g, \"unit\": %s}", first ? "" : ", ",
                hwbench::JsonString(name).c_str(), value,
                hwbench::JsonString(unit).c_str());
    first = false;
  }
}

}  // namespace

int main(int argc, char** argv) {
  // Memory policy, like the WAL's flush policy: freed memory stays in the
  // process heap, as in a long-running server, instead of going back to the
  // kernel after every query. Otherwise each analytics round faults ~10K
  // fresh pages in, and in a VM the cost of a fault moves with the load of
  // the host's other tenants.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
  hwbench::Args args;
  if (!ParseArgs(argc, argv, &args)) {
    Usage();
    return 2;
  }
  hwbench::Report report;
  report.Note("workload", args.workload);
  report.Note("seed", std::to_string(args.seed));
  report.Note("seconds", std::to_string(args.seconds));
  report.Note("trace", args.trace ? "1" : "0");
  report.Note("malloc", "mmap_threshold=32MiB trim_threshold=1GiB");
  hwbench::NoteHost(&report, args.work_dir);

  // The host's load during the run, so a run slowed by other tenants of
  // the machine can be told from a regression by its own output, and the
  // page faults the memory policy keeps low.
  const hwbench::CpuJiffies cpu0 = hwbench::ReadCpuJiffies();
  rusage usage0{};
  getrusage(RUSAGE_SELF, &usage0);
  if (args.workload == "kv_serve") {
    hwbench::RunKvServe(args, &report);
  } else if (args.workload == "tpcc") {
    hwbench::RunTpcc(args, &report);
  } else if (args.workload == "analytics") {
    hwbench::RunAnalytics(args, &report);
  } else {
    std::fprintf(stderr, "hwbench: unknown workload '%s'\n",
                 args.workload.c_str());
    Usage();
    return 2;
  }
  const hwbench::CpuJiffies cpu1 = hwbench::ReadCpuJiffies();
  rusage usage1{};
  getrusage(RUSAGE_SELF, &usage1);
  const uint64_t jiffies = cpu1.total - cpu0.total;
  const double steal =
      jiffies == 0 ? 0.0
                   : static_cast<double>(cpu1.steal - cpu0.steal) / jiffies;
  char steal_text[32];
  std::snprintf(steal_text, sizeof(steal_text), "%.4f", steal);
  report.Note("host_steal_frac", steal_text);
  report.Set("host.steal_frac", steal, "fraction", jiffies);
  report.Set("proc.minor_faults",
             static_cast<double>(usage1.ru_minflt - usage0.ru_minflt),
             "count");

  for (const auto& [name, unit] : hwbench::EndToEndMetrics()) {
    auto it = report.metrics().find(name);
    if (it == report.metrics().end() || !std::isfinite(it->second.value) ||
        it->second.value <= 0) {
      report.Fail("end-to-end metric " + name + " missing or not positive");
    }
  }

  std::printf("{\"fingerprint\": {");
  bool first = true;
  for (const auto& [key, value] : report.fingerprint()) {
    std::printf("%s%s: %s", first ? "" : ", ", hwbench::JsonString(key).c_str(),
                hwbench::JsonString(value).c_str());
    first = false;
  }
  std::printf("}}\n{\"detail\": {");
  first = true;
  for (const auto& [name, m] : report.metrics()) {
    std::printf("%s%s: {\"value\": %.17g, \"unit\": %s, \"samples\": %llu}",
                first ? "" : ", ", hwbench::JsonString(name).c_str(), m.value,
                hwbench::JsonString(m.unit).c_str(),
                static_cast<unsigned long long>(m.samples));
    first = false;
  }
  const bool correct = report.failed() == 0;
  std::printf("}}\n{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(report.attempted()),
              static_cast<unsigned long long>(report.failed()));
  PrintMetrics(report, args.trace ? hwbench::PerLayerMetrics()
                                  : hwbench::EndToEndMetrics());
  std::printf("}}\n");
  std::fflush(stdout);
  return correct ? 0 : 1;
}
