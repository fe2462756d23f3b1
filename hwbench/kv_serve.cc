// kv_serve: an open-loop YCSB-B-like mix through svc::Service over a
// durable store -- 90% PointGet, 5% durable Put, 5% Scan of 100 keys over
// 1M keys with Zipf 0.9 key popularity. One generator thread submits on a
// wall-clock schedule at a base rate and at twice that rate; every
// request's latency is timed from the moment it was due, so a stall
// charges every request queued behind it. A third, saturating phase keeps
// a fixed window of the same mix in flight and counts completions per
// second, which the durable puts' WAL waits hold back. This is the
// read-mostly serving path: svc admission, dispatch and batching do most
// of the work, txn none, and the durable puts beside the reads show a
// read-side gain that slows writes.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <deque>
#include <filesystem>
#include <future>
#include <mutex>
#include <thread>

#include "common.h"
#include "hwstar/svc/service.h"
#include "hwstar/workload/distributions.h"
#include "serving.h"

namespace hwbench {

namespace {

using hwstar::dur::DurableKvOptions;
using hwstar::dur::DurableKvStore;
using hwstar::svc::Request;
using hwstar::svc::Response;
using hwstar::svc::Service;
using hwstar::svc::ServiceNow;

constexpr uint32_t kValueShift = 20;  ///< value = key << 20 | version
constexpr uint64_t kScanKeys = 100;
/// Requests the saturating phase keeps in flight.
constexpr size_t kWindow = 256;

enum class Op : uint8_t { kGet, kPut, kScan };

struct Planned {
  Op op;
  uint64_t key;  ///< get/put key; scan lower bound
};

struct Config {
  uint64_t keys = 1'000'000;
  double zipf = 0.9;
  /// Requests per second; busy = 2x. 80K/s busy left too little headroom:
  /// runs where the hypervisor stole ~11% of the vCPUs queued into the
  /// milliseconds.
  double base_rate = 30'000;
  double warmup_s = 1.0;
  uint32_t setup_reps = 3;
};

/// One timed phase's observations.
struct PhaseStats {
  Samples all, get, put, scan;  ///< latency from due time, us
  Samples wal_us;               ///< put WAL waits
  Samples late_us;              ///< generator lateness
  PhaseSplit split;
  uint64_t ok = 0;
  uint64_t puts_ok = 0;
  double span_s = 0;  ///< saturating phase: wall time

  void Merge(const PhaseStats& o) {
    all.Append(o.all);
    get.Append(o.get);
    put.Append(o.put);
    scan.Append(o.scan);
    wal_us.Append(o.wal_us);
    late_us.Append(o.late_us);
    split.Append(o.split);
    ok += o.ok;
    puts_ok += o.puts_ok;
    span_s += o.span_s;
  }
};

/// Zipf rank -> key through a bijection of [0, n), so the hot keys are
/// scattered over the key space instead of packed at its start.
uint64_t ScatterRank(uint64_t rank, uint64_t n) {
  constexpr uint64_t kMultiplier = 999'983;  // prime, coprime to n here
  return (rank % n) * kMultiplier % n;
}

std::vector<Planned> PlanRequests(const Config& cfg, uint64_t count,
                                  uint64_t seed) {
  hwstar::workload::ZipfGenerator zipf(cfg.keys, cfg.zipf, seed);
  hwstar::Xoshiro256 rng(seed ^ 0x5bd1e995);
  std::vector<Planned> plan(count);
  for (auto& p : plan) {
    const double roll = rng.NextDouble();
    p.key = ScatterRank(zipf.Next(), cfg.keys);
    if (roll < 0.90) {
      p.op = Op::kGet;
    } else if (roll < 0.95) {
      p.op = Op::kPut;
    } else {
      p.op = Op::kScan;
      p.key = std::min(p.key, cfg.keys - kScanKeys);
    }
  }
  return plan;
}

struct InFlight {
  Planned req;
  uint64_t due_ns;
  uint64_t submit_ns;
  std::future<Response> future;
};

Request MakeRequest(const Planned& p, uint64_t* next_version) {
  switch (p.op) {
    case Op::kGet:
      return Request::PointGet(p.key);
    case Op::kPut: {
      const uint64_t version = ++*next_version & ((1u << kValueShift) - 1);
      return Request::Put(p.key, p.key << kValueShift | version);
    }
    case Op::kScan:
      break;
  }
  return Request::Scan(p.key, p.key + kScanKeys - 1, kScanKeys);
}

/// Checks one response against the request that produced it and records
/// its latency; a failed request or check counts as failed.
void CheckResponse(const InFlight& f, const Response& r, PhaseStats* stats,
                   Report* report) {
  if (!r.status.ok()) {
    report->Fail("kv_serve request failed: " + r.status.ToString());
    return;
  }
  const double latency_us =
      ((f.submit_ns - f.due_ns) + r.latency.total_nanos) * 1e-3;
  switch (f.req.op) {
    case Op::kGet:
      if (r.value >> kValueShift != f.req.key) {
        report->Fail("get of key " + std::to_string(f.req.key) +
                     " returned a value tagged " +
                     std::to_string(r.value >> kValueShift));
        return;
      }
      stats->get.Add(latency_us);
      break;
    case Op::kPut:
      stats->put.Add(latency_us);
      stats->wal_us.Add(r.latency.wal_nanos * 1e-3);
      ++stats->puts_ok;
      break;
    case Op::kScan: {
      const uint64_t lo = f.req.key, hi = lo + kScanKeys - 1;
      bool good = r.rows.size() <= kScanKeys &&
                  (r.degraded || r.rows.size() == kScanKeys);
      uint64_t prev = 0;
      for (size_t i = 0; good && i < r.rows.size(); ++i) {
        const uint64_t k = r.rows[i] >> kValueShift;
        good = k >= lo && k <= hi && (i == 0 || k > prev);
        prev = k;
      }
      if (!good) {
        report->Fail("scan [" + std::to_string(lo) + ", " +
                     std::to_string(hi) + "] returned a bad row set");
        return;
      }
      stats->scan.Add(latency_us);
      break;
    }
  }
  stats->all.Add(latency_us);
  stats->split.Add(r.latency);
  ++stats->ok;
}

/// Submits `plan[begin, end)` at `rate` per second from this thread while
/// a collector thread checks responses in order.
void RunPhase(Service* service, const std::vector<Planned>& plan,
              size_t begin, size_t end, double rate, uint64_t* next_version,
              PhaseStats* stats, Report* report) {
  std::mutex mu;
  std::deque<InFlight> queue;
  std::atomic<bool> done{false};
  std::thread collector([&] {
    std::deque<InFlight> local;
    while (true) {
      {
        std::lock_guard<std::mutex> lock(mu);
        local.swap(queue);
      }
      if (local.empty()) {
        if (done.load(std::memory_order_acquire)) {
          std::lock_guard<std::mutex> lock(mu);
          if (queue.empty()) break;
          continue;
        }
        std::this_thread::sleep_for(std::chrono::microseconds(200));
        continue;
      }
      for (InFlight& f : local) {
        const Response r = f.future.get();
        CheckResponse(f, r, stats, report);
      }
      local.clear();
    }
  });

  const double period_ns = 1e9 / rate;
  const uint64_t start_ns = ServiceNow() + 1'000'000;
  for (size_t i = begin; i < end; ++i) {
    const uint64_t due =
        start_ns + static_cast<uint64_t>((i - begin) * period_ns);
    uint64_t now = ServiceNow();
    // Sleep through long gaps, spin the last stretch: lateness stays ~1 us.
    if (due > now + 200'000) {
      std::this_thread::sleep_for(
          std::chrono::nanoseconds(due - now - 100'000));
    }
    while ((now = ServiceNow()) < due) {
    }
    const Planned& p = plan[i];
    InFlight f{p, due, now, service->Submit(MakeRequest(p, next_version))};
    stats->late_us.Add((now - due) * 1e-3);
    std::lock_guard<std::mutex> lock(mu);
    queue.push_back(std::move(f));
  }
  done.store(true, std::memory_order_release);
  collector.join();
  report->Attempt(end - begin);
}

/// Saturating closed loop: keeps kWindow requests of the mix in flight for
/// `seconds`, taking plan entries from *next on (wrapping), and waits on
/// the oldest before submitting the next. Completions per second are
/// bounded by the service's capacity, durable puts' WAL waits included.
void RunWindow(Service* service, const std::vector<Planned>& plan,
               size_t* next, double seconds, uint64_t* next_version,
               PhaseStats* stats, Report* report) {
  std::deque<InFlight> window;
  uint64_t submitted = 0;
  const double start = NowSeconds();
  const double end = start + seconds;
  while (true) {
    if (window.size() < kWindow && NowSeconds() < end) {
      const Planned& p = plan[(*next)++ % plan.size()];
      const uint64_t now = ServiceNow();
      window.push_back(
          InFlight{p, now, now, service->Submit(MakeRequest(p, next_version))});
      ++submitted;
      continue;
    }
    if (window.empty()) break;
    const Response r = window.front().future.get();
    CheckResponse(window.front(), r, stats, report);
    window.pop_front();
  }
  stats->span_s = NowSeconds() - start;
  report->Attempt(submitted);
}

}  // namespace

void RunKvServe(const Args& args, Report* report) {
  Config cfg;
  if (args.smoke) {
    cfg.keys = 20'000;
    cfg.base_rate = 5'000;
    cfg.warmup_s = 0.2;
    cfg.setup_reps = 1;
  }
  const double phase_s = args.seconds / 3;
  const uint64_t warm_n = static_cast<uint64_t>(cfg.warmup_s * cfg.base_rate);
  const uint64_t base_n = static_cast<uint64_t>(phase_s * cfg.base_rate);
  const uint64_t busy_n = static_cast<uint64_t>(phase_s * 2 * cfg.base_rate);

  DurableKvOptions dopts;
  dopts.kv.shards = 4;
  dopts.log.sync = kWalSync;
  hwstar::dur::PosixFileBackend fs;
  const std::string dir = args.work_dir + "/kv_serve";

  std::unique_ptr<DurableKvStore> store;
  TimeSetup(report, cfg.setup_reps, [&] {
    store.reset();
    ResetDir(dir);
    std::vector<std::pair<uint64_t, uint64_t>> rows(cfg.keys);
    for (uint64_t k = 0; k < cfg.keys; ++k) rows[k] = {k, k << kValueShift};
    store = OpenStore(&fs, dir, dopts);
    LoadStore(store.get(), rows);
  });

  const auto plan = PlanRequests(cfg, warm_n + base_n + busy_n, args.seed);
  hwstar::svc::ServiceOptions sopts;
  // Deep enough that a transient stall queues rather than sheds; the
  // open-loop client has no retry.
  sopts.admission.max_queue_depth = 1u << 16;
  report->Note("kv_serve.config",
               "keys=" + std::to_string(cfg.keys) +
                   " zipf=" + std::to_string(cfg.zipf) +
                   " base_rate=" + std::to_string(cfg.base_rate) +
                   " busy_rate=" + std::to_string(2 * cfg.base_rate) +
                   " peak_window=" + std::to_string(kWindow) +
                   " generator_threads=1 worker_threads=" +
                   std::to_string(sopts.worker_threads) +
                   " max_queue_depth=65536 kv_shards=4 log_shards=1 wal_sync=" +
                   hwstar::dur::SyncModeName(kWalSync));

  PhaseStats warm, base, busy, peak;
  Samples base_p50, busy_p50, peak_rate;
  uint64_t version = 0;
  ServingSnapshot counters0, counters1;
  {
    Service service(sopts, store.get());
    report->Note("tunables", service.DumpTunablesText());
    RunPhase(&service, plan, 0, warm_n, cfg.base_rate, &version, &warm,
             report);
    service.Drain();
    counters0 = ServingSnapshot(service, *store);
    size_t next = 0;
    for (uint32_t i = 0; i < kSlices; ++i) {
      PhaseStats b, y, p;
      RunPhase(&service, plan, warm_n + base_n * i / kSlices,
               warm_n + base_n * (i + 1) / kSlices, cfg.base_rate, &version,
               &b, report);
      RunPhase(&service, plan, warm_n + base_n + busy_n * i / kSlices,
               warm_n + base_n + busy_n * (i + 1) / kSlices,
               2 * cfg.base_rate, &version, &y, report);
      RunWindow(&service, plan, &next, phase_s / kSlices, &version, &p,
                report);
      base_p50.Add(b.all.Median());
      busy_p50.Add(y.all.Median());
      peak_rate.Add(p.ok / p.span_s);
      base.Merge(b);
      busy.Merge(y);
      peak.Merge(p);
    }
    service.Drain();
    counters1 = ServingSnapshot(service, *store);
  }

  report->Set("p50_us", base_p50.Median(), "us", base.all.size());
  report->Set("busy_p50_us", busy_p50.Median(), "us", busy.all.size());
  report->Set("ops_per_s", peak_rate.Median(), "1/s", peak.ok);
  report->Set("op.get_p50_us", base.get.Median(), "us", base.get.size());
  report->Set("op.put_p50_us", base.put.Median(), "us", base.put.size());
  report->Set("op.scan_p50_us", base.scan.Median(), "us", base.scan.size());
  report->Set("op.p99_us", base.all.Quantile(0.99), "us", base.all.size());
  base.split.Report(report);
  report->Set("dur.wal_wait_p50_us", base.wal_us.Median(), "us",
              base.wal_us.size());
  const uint64_t puts = base.puts_ok + busy.puts_ok + peak.puts_ok;
  ReportServingCounters(counters0, counters1, store.get(), puts * 16, puts,
                        report);
  Samples late = base.late_us;
  late.Append(busy.late_us);
  report->Set("gen.late_p99_us", late.Quantile(0.99), "us", late.size());

  // Every key still holds a value tagged with its own key; then the store
  // must come back from its WAL exactly as it was.
  const auto before = StoreContents(store.get());
  report->Attempt();
  bool tags_ok = before.size() == cfg.keys;
  for (const auto& [k, v] : before) {
    tags_ok = tags_ok && (v >> kValueShift) == k;
  }
  if (!tags_ok) report->Fail("store contents lost keys or value tags");
  store = ReopenAndCompare(std::move(store), &fs, dir, dopts, before, report);

  if (args.trace) {
    // kv layer alone, on the recovered store and the run's own keys.
    hwstar::kv::KvStore* kv = store->kv();
    const auto stats0 = kv->stats();
    Samples get_ns, scan_ns_per_row;
    constexpr size_t kBlock = 256;
    std::vector<uint64_t> get_keys, scan_los;
    for (size_t i = warm_n; i < warm_n + base_n; ++i) {
      if (plan[i].op == Op::kGet) get_keys.push_back(plan[i].key);
      if (plan[i].op == Op::kScan) scan_los.push_back(plan[i].key);
    }
    uint64_t sink = 0;
    for (size_t b = 0; b + kBlock <= get_keys.size(); b += kBlock) {
      const double t0 = NowSeconds();
      for (size_t i = b; i < b + kBlock; ++i) {
        auto r = kv->Get(get_keys[i]);
        sink += r.ok() ? r.value() : 0;
      }
      get_ns.Add((NowSeconds() - t0) * 1e9 / kBlock);
    }
    std::vector<uint64_t> rows;
    for (uint64_t lo : scan_los) {
      rows.clear();
      const double t0 = NowSeconds();
      const uint64_t n = kv->RangeScanLimit(lo, lo + kScanKeys - 1, kScanKeys,
                                            &rows);
      if (n > 0) scan_ns_per_row.Add((NowSeconds() - t0) * 1e9 / n);
      sink += n;
    }
    const auto stats1 = kv->stats();
    report->Set("kv.get_ns", get_ns.Median(), "ns", get_ns.size() * kBlock);
    report->Set("kv.scan_ns_per_row", scan_ns_per_row.Median(), "ns",
                scan_ns_per_row.size());
    const uint64_t gets = stats1.gets - stats0.gets;
    report->Set("kv.hit_frac",
                gets == 0 ? 0.0
                          : static_cast<double>(stats1.hits - stats0.hits) /
                                gets,
                "fraction", gets);
    if (sink == 0) report->Fail("kv direct pass read nothing");
  }
  store.reset();
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

}  // namespace hwbench
