// Crash test for the benchmark's durability check. Runs the kv_serve and
// tpcc flows at small scale through svc::Service over a
// dur::FaultyFileBackend that "crashes" partway through: from its trigger
// on, every write and sync fails, so requests in flight fail and the
// client stops. Then the service and store are destroyed, SimulateCrash
// discards every byte that was never synced, and the store is reopened.
// Every acknowledged write must survive; writes whose outcome the client
// never learned may or may not.
//
//   hwbench_crash_test   (prints PASS or the failures)

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <thread>

#include "common.h"
#include "hwstar/dur/fault_injection.h"
#include "hwstar/svc/service.h"
#include "serving.h"
#include "tpcc_ledger.h"

namespace {

using hwstar::dur::DurableKvOptions;
using hwstar::dur::DurableKvStore;
using hwstar::dur::FaultPlan;
using hwstar::dur::FaultyFileBackend;
using hwstar::svc::Request;
using hwstar::svc::Response;
using hwstar::svc::Service;

constexpr uint32_t kValueShift = 20;
constexpr uint32_t kClients = 2;
/// Crash seeds; each runs both flows with its own trigger point.
constexpr uint64_t kSeeds = 8;

std::unique_ptr<DurableKvStore> Open(hwstar::dur::FileBackend* fs,
                                     const DurableKvOptions& opts) {
  auto store = DurableKvStore::Open(fs, "db", opts);
  if (!store.ok()) {
    std::fprintf(stderr, "open failed: %s\n",
                 store.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(store).value();
}

/// Loads `rows` straight onto the faulty backend's disk, so the fault
/// countdown starts with the flow under test, then opens the store through
/// the faulty backend.
std::unique_ptr<DurableKvStore> LoadThenOpen(
    FaultyFileBackend* faulty, const DurableKvOptions& opts,
    const std::vector<std::pair<uint64_t, uint64_t>>& rows) {
  auto store = Open(faulty->disk(), opts);
  hwbench::LoadStore(store.get(), rows);
  store.reset();
  return Open(faulty, opts);
}

FaultPlan Plan(uint64_t seed) {
  FaultPlan plan;
  plan.fail_after_writes = 20 + seed * 37 % 200;
  plan.mode = hwstar::dur::FaultMode::kTornWrite;
  plan.seed = seed;
  return plan;
}

/// kv flow: clients put tagged values into disjoint key sets until the
/// backend fails; afterwards each key must hold its last acknowledged
/// value or a value whose put was in doubt.
void KvCrash(uint64_t seed, hwbench::Report* report) {
  constexpr uint64_t kKeys = 512;
  FaultyFileBackend faulty(Plan(seed));
  DurableKvOptions opts;  // fdatasync: acknowledged means synced
  opts.kv.shards = 4;
  std::vector<std::pair<uint64_t, uint64_t>> rows;
  for (uint64_t k = 0; k < kKeys; ++k) rows.emplace_back(k, k << kValueShift);
  auto store = LoadThenOpen(&faulty, opts, rows);

  // Per key: the last acknowledged value, then the values put after it
  // whose outcome is unknown.
  std::vector<uint64_t> acked(kKeys);
  std::vector<std::set<uint64_t>> doubt(kKeys);
  std::atomic<uint64_t> acked_puts{0}, failed_puts{0};
  for (uint64_t k = 0; k < kKeys; ++k) acked[k] = k << kValueShift;
  {
    Service service(hwstar::svc::ServiceOptions{}, store.get());
    std::vector<std::thread> clients;
    for (uint32_t t = 0; t < kClients; ++t) {
      clients.emplace_back([&, t] {
        hwstar::Xoshiro256 rng(seed * 31 + t);
        for (uint64_t version = 1; version < 100'000; ++version) {
          const uint64_t key = rng.NextBounded(kKeys / kClients) * kClients + t;
          const uint64_t value = key << kValueShift | version;
          const Response r = service.Call(Request::Put(key, value));
          if (!r.status.ok()) {
            doubt[key].insert(value);
            failed_puts.fetch_add(1);
            break;
          }
          acked_puts.fetch_add(1);
          acked[key] = value;
          doubt[key].clear();
        }
      });
    }
    for (auto& c : clients) c.join();
  }
  store.reset();
  report->Attempt();
  if (acked_puts == 0 || failed_puts == 0) {
    report->Fail("kv seed " + std::to_string(seed) +
                 ": the crash did not land mid-run");
  }
  faulty.disk()->SimulateCrash(seed, /*flip_bit=*/false);
  store = Open(faulty.disk(), opts);
  for (uint64_t k = 0; k < kKeys; ++k) {
    report->Attempt();
    auto r = store->kv()->Get(k);
    if (!r.ok() || (r.value() != acked[k] && !doubt[k].count(r.value()))) {
      report->Fail("kv seed " + std::to_string(seed) + ": key " +
                   std::to_string(k) + " lost its acknowledged value");
    }
  }
}

/// tpcc flow: closed-loop clients run the TPC-C mix until the backend
/// fails; the consistency conditions must hold with the failed
/// transactions in doubt.
void TpccCrash(uint64_t seed, hwbench::Report* report) {
  hwstar::workload::TpccConfig cfg;
  cfg.warehouses = 2;
  cfg.customers_per_district = 64;
  cfg.actors = kClients;
  cfg.seed = seed;
  FaultyFileBackend faulty(Plan(seed));
  DurableKvOptions opts;
  opts.kv.shards = 8;
  opts.log_shards = 2;
  auto store =
      LoadThenOpen(&faulty, opts, hwstar::workload::MakeTpccLoad(cfg));

  std::vector<hwbench::Ledger> acked(kClients, hwbench::Ledger(cfg.warehouses));
  std::vector<hwbench::Ledger> doubt(kClients, hwbench::Ledger(cfg.warehouses));
  std::atomic<uint64_t> acked_txns{0}, failed_txns{0};
  {
    hwstar::svc::ServiceOptions sopts;
    sopts.batch_window_nanos = 0;
    Service service(sopts, store.get());
    std::vector<std::thread> clients;
    for (uint32_t t = 0; t < kClients; ++t) {
      clients.emplace_back([&, t] {
        hwstar::workload::TpccConfig c = cfg;
        c.actor = t;
        hwstar::workload::TpccStream stream(c);
        for (int i = 0; i < 100'000; ++i) {
          const auto txn = stream.Next();
          std::vector<hwstar::svc::TxnOp> ops;
          for (const auto& op : txn.ops) {
            ops.push_back({static_cast<hwstar::svc::TxnOp::Kind>(op.kind),
                           op.key, op.value});
          }
          const Response r = service.Call(Request::Txn(ops, 64));
          if (r.status.ok()) {
            acked[t].Record(txn);
            acked_txns.fetch_add(1);
          } else if (r.status.code() == hwstar::StatusCode::kAborted) {
            stream.RequeueDelivery(txn);  // nothing installed
          } else {
            doubt[t].Record(txn);
            failed_txns.fetch_add(1);
            break;
          }
        }
      });
    }
    for (auto& c : clients) c.join();
  }
  store.reset();
  report->Attempt();
  if (acked_txns == 0 || failed_txns == 0) {
    report->Fail("tpcc seed " + std::to_string(seed) +
                 ": the crash did not land mid-run");
  }
  faulty.disk()->SimulateCrash(seed, /*flip_bit=*/false);
  store = Open(faulty.disk(), opts);
  std::vector<const hwbench::Ledger*> a, d;
  for (uint32_t t = 0; t < kClients; ++t) {
    a.push_back(&acked[t]);
    d.push_back(&doubt[t]);
  }
  const uint64_t failed_before = report->failed();
  hwbench::CheckTpccConsistency(store->kv(), cfg, a, d, report);
  if (report->failed() != failed_before) {
    std::fprintf(stderr, "tpcc crash check failed for seed %llu\n",
                 static_cast<unsigned long long>(seed));
  }
}

}  // namespace

int main() {
  hwbench::Report report;
  for (uint64_t seed = 1; seed <= kSeeds; ++seed) {
    KvCrash(seed, &report);
    TpccCrash(seed, &report);
  }
  std::printf("%s: %llu checks, %llu failed\n",
              report.failed() == 0 ? "PASS" : "FAIL",
              static_cast<unsigned long long>(report.attempted()),
              static_cast<unsigned long long>(report.failed()));
  return report.failed() == 0 ? 0 : 1;
}
