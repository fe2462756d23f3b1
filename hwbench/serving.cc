#include "serving.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>

namespace hwbench {

using hwstar::dur::DurableKvOptions;
using hwstar::dur::DurableKvStore;

std::unique_ptr<DurableKvStore> OpenStore(hwstar::dur::FileBackend* fs,
                                          const std::string& dir,
                                          const DurableKvOptions& options) {
  auto store = DurableKvStore::Open(fs, dir + "/db", options);
  if (!store.ok()) {
    std::fprintf(stderr, "hwbench: cannot open store in %s: %s\n",
                 dir.c_str(), store.status().message().c_str());
    std::exit(3);
  }
  return std::move(store).value();
}

void ResetDir(const std::string& dir) {
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    std::fprintf(stderr, "hwbench: cannot create %s\n", dir.c_str());
    std::exit(3);
  }
}

void LoadStore(DurableKvStore* store,
               const std::vector<std::pair<uint64_t, uint64_t>>& rows) {
  constexpr size_t kChunk = 8192;
  std::vector<uint64_t> keys, values;
  for (size_t begin = 0; begin < rows.size(); begin += kChunk) {
    const size_t end = std::min(rows.size(), begin + kChunk);
    keys.clear();
    values.clear();
    for (size_t i = begin; i < end; ++i) {
      keys.push_back(rows[i].first);
      values.push_back(rows[i].second);
    }
    const auto st = store->PutBatch(keys.data(), values.data(), keys.size());
    if (!st.ok()) {
      std::fprintf(stderr, "hwbench: load failed: %s\n",
                   st.message().c_str());
      std::exit(3);
    }
  }
}

std::vector<std::pair<uint64_t, uint64_t>> StoreContents(
    DurableKvStore* store) {
  std::vector<std::pair<uint64_t, uint64_t>> out;
  store->kv()->RangeScanEntries(0, ~uint64_t{0}, &out);
  return out;
}

void PhaseSplit::Add(const hwstar::svc::LatencyBreakdown& l) {
  rows_.push_back(Row{l.admit_wait_nanos, l.batch_wait_nanos, l.exec_nanos,
                      l.total_nanos});
}

void PhaseSplit::Report(hwbench::Report* report) const {
  Samples admit, batch, exec, total;
  for (const Row& r : rows_) {
    admit.Add(r.admit * 1e-3);
    batch.Add(r.batch * 1e-3);
    exec.Add(r.exec * 1e-3);
    total.Add(r.total * 1e-3);
  }
  const uint64_t n = rows_.size();
  report->Set("svc.admit_wait_p50_us", admit.Median(), "us", n);
  report->Set("svc.admit_wait_p99_us", admit.Quantile(0.99), "us", n);
  report->Set("svc.batch_wait_p50_us", batch.Median(), "us", n);
  report->Set("svc.exec_p50_us", exec.Median(), "us", n);
  report->Set("svc.total_p50_us", total.Median(), "us", n);
  if (rows_.empty()) return;
  std::vector<Row> sorted = rows_;
  const size_t mid = (sorted.size() - 1) / 2;
  std::nth_element(
      sorted.begin(), sorted.begin() + mid, sorted.end(),
      [](const Row& a, const Row& b) { return a.total < b.total; });
  const Row& m = sorted[mid];
  const double parts = static_cast<double>(m.admit + m.batch + m.exec);
  const double gap =
      m.total == 0 ? 0.0
                   : std::abs(static_cast<double>(m.total) - parts) /
                         static_cast<double>(m.total);
  report->Set("svc.phase_gap_frac", gap, "fraction", 1);
}

namespace {

double Ratio(uint64_t num, uint64_t den) {
  return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}

}  // namespace

void ReportServingCounters(const ServingSnapshot& before,
                           const ServingSnapshot& after,
                           DurableKvStore* store, uint64_t user_bytes,
                           uint64_t writes, hwbench::Report* report) {
  const uint64_t batches = after.svc.batches - before.svc.batches;
  report->Set("svc.mean_batch_size",
              Ratio(after.svc.batched_requests - before.svc.batched_requests,
                    batches),
              "count", batches);
  const uint64_t submitted =
      after.svc.admission.submitted - before.svc.admission.submitted;
  report->Set("svc.shed_frac",
              Ratio(after.svc.admission.shed_total() -
                        before.svc.admission.shed_total(),
                    submitted),
              "fraction", submitted);
  const uint64_t groups = after.log.groups - before.log.groups;
  report->Set("dur.records_per_sync",
              Ratio(after.log.records - before.log.records, groups), "count",
              groups);
  report->Set("dur.wal_bytes_per_user_byte",
              Ratio(after.log.bytes - before.log.bytes, user_bytes), "ratio",
              writes);
  // The histogram covers the store's whole life; the load's few large
  // syncs are a small share of the timed phases' many.
  hwstar::obs::HistogramSnapshot sync;
  for (uint32_t s = 0; s < store->log_shards(); ++s) {
    sync.Merge(store->log(s)->sync_latency_snapshot());
  }
  report->Set("dur.sync_p50_us", sync.Quantile(0.5) * 1e-3, "us",
              sync.count());
}

std::unique_ptr<DurableKvStore> ReopenAndCompare(
    std::unique_ptr<DurableKvStore> store, hwstar::dur::FileBackend* fs,
    const std::string& dir, const DurableKvOptions& options,
    const std::vector<std::pair<uint64_t, uint64_t>>& before,
    hwbench::Report* report) {
  store.reset();
  const double start = NowSeconds();
  store = OpenStore(fs, dir, options);
  report->Set("dur.recovery_s", NowSeconds() - start, "s", 1);
  const auto after = StoreContents(store.get());
  report->Attempt();
  if (after != before) {
    report->Fail("reopened store differs from the store before shutdown (" +
                 std::to_string(after.size()) + " vs " +
                 std::to_string(before.size()) + " entries)");
  }
  return store;
}

}  // namespace hwbench
