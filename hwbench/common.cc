#include "common.h"

#include <sys/vfs.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <thread>

#include "hwstar/hw/topology.h"
#include "hwstar/simd/backend.h"

#ifndef HWBENCH_BUILD_TYPE
#define HWBENCH_BUILD_TYPE "unknown"
#endif

namespace hwbench {

void Samples::Append(const Samples& other) {
  values_.insert(values_.end(), other.values_.begin(), other.values_.end());
}

double Samples::Quantile(double q) const {
  if (values_.empty()) return 0;
  std::vector<double> sorted = values_;
  size_t rank = static_cast<size_t>(std::ceil(q * sorted.size()));
  rank = std::clamp<size_t>(rank, 1, sorted.size());
  std::nth_element(sorted.begin(), sorted.begin() + (rank - 1), sorted.end());
  return sorted[rank - 1];
}

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void Report::Set(const std::string& name, double value,
                 const std::string& unit, uint64_t samples) {
  metrics_[name] = Metric{value, unit, samples};
}

void Report::Fail(const std::string& what, uint64_t n) {
  failed_ += n;
  if (fail_logs_ < 20) {
    ++fail_logs_;
    std::fprintf(stderr, "hwbench: check failed: %s\n", what.c_str());
  }
}

void TimeSetup(Report* report, uint32_t reps,
               const std::function<void()>& setup) {
  Samples times;
  for (uint32_t i = 0; i < reps; ++i) {
    const double start = NowSeconds();
    setup();
    times.Add(NowSeconds() - start);
  }
  report->Set("setup_s", times.Median(), "s", times.size());
}

namespace {

std::string FsTypeName(const std::string& dir) {
  struct statfs fs {};
  if (statfs(dir.c_str(), &fs) != 0) return "unknown";
  switch (static_cast<uint64_t>(fs.f_type)) {
    case 0xEF53: return "ext4";
    case 0x01021994: return "tmpfs";
    case 0x794C7630: return "overlayfs";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "0x%llx",
                    static_cast<unsigned long long>(fs.f_type));
      return buf;
    }
  }
}

}  // namespace

void NoteHost(Report* report, const std::string& dir) {
  report->Note("nproc", std::to_string(std::thread::hardware_concurrency()));
  report->Note("isa", hwstar::hw::DetectIsaFeatures().ToString());
  report->Note("simd_backend",
               hwstar::simd::BackendName(hwstar::simd::ActiveBackend()));
  const auto topo = hwstar::hw::DiscoverTopology();
  std::string caches;
  for (int level = 1; level <= 3; ++level) {
    if (!caches.empty()) caches += " ";
    caches += "L" + std::to_string(level) + "=" +
              std::to_string(topo.CacheSizeBytes(level));
  }
  report->Note("caches_bytes", caches);
  report->Note("build_type", HWBENCH_BUILD_TYPE);
  report->Note("work_dir_fs", FsTypeName(dir));
}

CpuJiffies ReadCpuJiffies() {
  CpuJiffies out;
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return out;
  // cpu user nice system idle iowait irq softirq steal
  unsigned long long v[8] = {};
  if (std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0],
                  &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]) == 8) {
    out.steal = v[7];
    for (unsigned long long x : v) out.total += x;
  }
  std::fclose(f);
  return out;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

const std::vector<std::pair<std::string, std::string>>& EndToEndMetrics() {
  static const std::vector<std::pair<std::string, std::string>> kList = {
      {"setup_s", "s"},
      {"p50_us", "us"},
      {"busy_p50_us", "us"},
      {"ops_per_s", "1/s"},
  };
  return kList;
}

const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics() {
  static const std::vector<std::pair<std::string, std::string>> kList = {
      {"op.get_p50_us", "us"},
      {"op.put_p50_us", "us"},
      {"op.scan_p50_us", "us"},
      {"op.p99_us", "us"},
      {"op.scan_query_ms", "ms"},
      {"op.group_query_ms", "ms"},
      {"op.join_query_ms", "ms"},
      {"op.stream_emit_p50_ms", "ms"},
      {"svc.admit_wait_p50_us", "us"},
      {"svc.admit_wait_p99_us", "us"},
      {"svc.batch_wait_p50_us", "us"},
      {"svc.exec_p50_us", "us"},
      {"svc.total_p50_us", "us"},
      {"svc.phase_gap_frac", "fraction"},
      {"svc.mean_batch_size", "count"},
      {"svc.shed_frac", "fraction"},
      {"kv.get_ns", "ns"},
      {"kv.scan_ns_per_row", "ns"},
      {"kv.hit_frac", "fraction"},
      {"dur.wal_wait_p50_us", "us"},
      {"dur.records_per_sync", "count"},
      {"dur.sync_p50_us", "us"},
      {"dur.wal_bytes_per_user_byte", "ratio"},
      {"dur.recovery_s", "s"},
      {"txn.get_ns", "ns"},
      {"txn.commit_ns", "ns"},
      {"txn.attempts_per_commit", "count"},
      {"txn.abort_frac", "fraction"},
      {"txn.client_resubmits", "count"},
      {"txn.max_resubmits", "count"},
      {"ops.select_ms", "ms"},
      {"ops.hash_agg_ms", "ms"},
      {"ops.join_partition_ms", "ms"},
      {"ops.join_probe_ms", "ms"},
      {"engine.join_overhead_ms", "ms"},
      {"engine.rows_passed", "count"},
      {"engine.matches", "count"},
      {"exec.steal_frac", "fraction"},
      {"stream.join_ns_per_row", "ns"},
      {"stream.window_ns_per_row", "ns"},
      {"stream.late_dropped", "count"},
      {"stream.batches_shed", "count"},
      {"gen.late_p99_us", "us"},
      {"proc.minor_faults", "count"},
  };
  return kList;
}

}  // namespace hwbench
