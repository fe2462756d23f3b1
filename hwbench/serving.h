// Pieces the two serving workloads (kv_serve, tpcc) share: opening and
// loading the durable store, the svc phase split, and the reopen check.

#ifndef HWBENCH_SERVING_H_
#define HWBENCH_SERVING_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common.h"
#include "hwstar/dur/durable_kv_store.h"
#include "hwstar/dur/file_backend.h"
#include "hwstar/svc/request.h"
#include "hwstar/svc/service.h"

namespace hwbench {

/// The WAL runs through PosixFileBackend in the run's work directory with
/// no device flush: every append, write syscall and group-commit round
/// runs, only the device is left out. A flush to this host's virtual disk
/// made tpcc throughput spread far beyond any usable bound.
constexpr hwstar::dur::SyncMode kWalSync = hwstar::dur::SyncMode::kNone;

/// Opens (recovering if files exist) the store at `dir`/db; aborts the run
/// on failure, which only a broken environment causes.
std::unique_ptr<hwstar::dur::DurableKvStore> OpenStore(
    hwstar::dur::FileBackend* fs, const std::string& dir,
    const hwstar::dur::DurableKvOptions& options);

/// Removes and recreates `dir`.
void ResetDir(const std::string& dir);

/// Loads `rows` through the WAL in PutBatch chunks.
void LoadStore(hwstar::dur::DurableKvStore* store,
               const std::vector<std::pair<uint64_t, uint64_t>>& rows);

/// Every (key, value) in the store, ascending.
std::vector<std::pair<uint64_t, uint64_t>> StoreContents(
    hwstar::dur::DurableKvStore* store);

/// Per-request svc phase samples (microseconds), as Response::latency
/// reports them.
class PhaseSplit {
 public:
  void Add(const hwstar::svc::LatencyBreakdown& l);
  void Append(const PhaseSplit& other) {
    rows_.insert(rows_.end(), other.rows_.begin(), other.rows_.end());
  }
  /// Sets svc.admit_wait_p50_us/p99_us, batch_wait_p50_us, exec_p50_us,
  /// total_p50_us and svc.phase_gap_frac: how far admit + batch + exec of
  /// the request with the median total misses that total.
  void Report(hwbench::Report* report) const;

 private:
  struct Row {
    uint64_t admit, batch, exec, total;
  };
  std::vector<Row> rows_;
};

/// Service and WAL counters at one instant; two of them bracket the timed
/// phases.
struct ServingSnapshot {
  ServingSnapshot() = default;
  ServingSnapshot(const hwstar::svc::Service& service,
                  const hwstar::dur::DurableKvStore& store)
      : svc(service.metrics()), log(store.log_stats()) {}
  hwstar::svc::ServiceMetrics svc;
  hwstar::dur::LogWriterStats log;
};

/// Sets the counter-derived svc and dur metrics over [before, after]:
/// svc.mean_batch_size, svc.shed_frac, dur.records_per_sync,
/// dur.wal_bytes_per_user_byte (against `user_bytes` written by `writes`
/// acknowledged writes) and dur.sync_p50_us over every log shard.
void ReportServingCounters(const ServingSnapshot& before,
                           const ServingSnapshot& after,
                           hwstar::dur::DurableKvStore* store,
                           uint64_t user_bytes, uint64_t writes,
                           hwbench::Report* report);

/// The durability check both serving workloads end with: destroys the
/// service-free store, reopens it from its WAL (timed as dur.recovery_s)
/// and requires the recovered contents to equal `before` exactly. Returns
/// the reopened store.
std::unique_ptr<hwstar::dur::DurableKvStore> ReopenAndCompare(
    std::unique_ptr<hwstar::dur::DurableKvStore> store,
    hwstar::dur::FileBackend* fs, const std::string& dir,
    const hwstar::dur::DurableKvOptions& options,
    const std::vector<std::pair<uint64_t, uint64_t>>& before,
    hwbench::Report* report);

}  // namespace hwbench

#endif  // HWBENCH_SERVING_H_
