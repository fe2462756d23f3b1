// tpcc: the workload::TpccStream new-order / payment / delivery mix sent
// as svc kTxn requests by closed-loop clients, each waiting on
// Service::Call -- 4 clients, and 8 in the busy phase, the two phases
// taking turns -- over 8 warehouses with Zipf 0.4 skew and a 2-log-shard
// durable store. This is the write-heavy multi-key path: txn OCC
// validation, stripe locks, dur group commit and WAL framing do most of
// the work here and almost none in kv_serve. The working set is a few MB.

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <thread>

#include "common.h"
#include "hwstar/svc/service.h"
#include "hwstar/txn/transaction.h"
#include "hwstar/workload/tpcc_like.h"
#include "serving.h"
#include "tpcc_ledger.h"

namespace hwbench {

namespace {

using hwstar::dur::DurableKvOptions;
using hwstar::dur::DurableKvStore;
using hwstar::svc::Request;
using hwstar::svc::Response;
using hwstar::svc::Service;
using hwstar::svc::TxnOp;
using hwstar::workload::TpccConfig;
using hwstar::workload::TpccOpKind;
using hwstar::workload::TpccStream;
using hwstar::workload::TpccTxn;

/// Optimistic attempts the service makes per request, and how often a
/// client resubmits a request that still aborted. The service retries
/// without pause, and a payment holds its warehouse stripe's lock through
/// the WAL wait, so under the busy phase a reader of that stripe can lose
/// every attempt of one request; the client backs off before resubmitting
/// (20 us doubling to 1 ms). A transaction aborted after all of them counts
/// as failed; the resubmits are reported (txn.client_resubmits,
/// txn.max_resubmits) so the starvation stays visible.
constexpr uint32_t kMaxAttempts = 16;
constexpr uint32_t kResubmits = 20;
constexpr uint32_t kBaseClients = 4;
constexpr uint32_t kBusyClients = 8;

/// What one phase observed across its clients.
struct PhaseStats {
  Samples latency_us;
  Samples wal_us;
  PhaseSplit split;
  uint64_t committed = 0;
  uint64_t attempts = 0;    ///< commit attempts, committed or not
  uint64_t resubmits = 0;   ///< client resubmits of aborted requests
  uint32_t max_resubmits = 0;  ///< most resubmits one transaction needed
  uint64_t user_bytes = 0;  ///< 16 bytes per write op of committed txns
  uint64_t requests = 0;
  double elapsed_s = 0;

  void Merge(const PhaseStats& o) {
    latency_us.Append(o.latency_us);
    wal_us.Append(o.wal_us);
    split.Append(o.split);
    committed += o.committed;
    attempts += o.attempts;
    resubmits += o.resubmits;
    max_resubmits = std::max(max_resubmits, o.max_resubmits);
    user_bytes += o.user_bytes;
    requests += o.requests;
    elapsed_s += o.elapsed_s;
  }
};

/// One closed-loop client: its transaction stream and the ledger of what
/// the service acknowledged.
struct Client {
  explicit Client(const TpccConfig& cfg)
      : stream(cfg), acked(cfg.warehouses) {}
  TpccStream stream;
  Ledger acked;
  PhaseStats stats;
};

std::vector<TxnOp> ToSvcOps(const TpccTxn& txn, uint64_t* writes) {
  std::vector<TxnOp> ops(txn.ops.size());
  *writes = 0;
  for (size_t i = 0; i < txn.ops.size(); ++i) {
    // TpccOpKind mirrors TxnOp::Kind one-to-one.
    ops[i].kind = static_cast<TxnOp::Kind>(txn.ops[i].kind);
    ops[i].key = txn.ops[i].key;
    ops[i].value = txn.ops[i].value;
    *writes += txn.ops[i].kind != TpccOpKind::kGet;
  }
  return ops;
}

void ClientLoop(Service* service, Client* c, double end_s) {
  while (NowSeconds() < end_s) {
    TpccTxn txn = c->stream.Next();
    uint64_t writes = 0;
    const std::vector<TxnOp> ops = ToSvcOps(txn, &writes);
    const double t0 = NowSeconds();
    Response r;
    uint32_t resubmits = 0;
    while (true) {
      r = service->Call(Request::Txn(ops, kMaxAttempts));
      c->stats.attempts += r.txn_attempts;
      if (r.status.code() != hwstar::StatusCode::kAborted ||
          resubmits == kResubmits) {
        break;
      }
      ++resubmits;
      std::this_thread::sleep_for(
          std::chrono::microseconds(std::min(1000u, 20u << (resubmits - 1))));
    }
    c->stats.resubmits += resubmits;
    c->stats.max_resubmits = std::max(c->stats.max_resubmits, resubmits);
    const double t1 = NowSeconds();
    ++c->stats.requests;
    if (!r.status.ok()) {
      c->stream.RequeueDelivery(txn);
      continue;
    }
    c->acked.Record(txn);
    c->stats.latency_us.Add((t1 - t0) * 1e6);
    c->stats.wal_us.Add(r.latency.wal_nanos * 1e-3);
    c->stats.split.Add(r.latency);
    ++c->stats.committed;
    c->stats.user_bytes += writes * 16;
  }
}

/// Runs clients [0, n) for `seconds` and returns their merged stats,
/// resetting each client's.
PhaseStats RunPhase(Service* service,
                    std::vector<std::unique_ptr<Client>>& clients, uint32_t n,
                    double seconds, Report* report) {
  const double start = NowSeconds();
  std::vector<std::thread> threads;
  for (uint32_t i = 0; i < n; ++i) {
    threads.emplace_back(ClientLoop, service, clients[i].get(),
                         start + seconds);
  }
  for (auto& t : threads) t.join();
  PhaseStats merged;
  for (uint32_t i = 0; i < n; ++i) {
    merged.Merge(clients[i]->stats);
    clients[i]->stats = PhaseStats{};
  }
  merged.elapsed_s = NowSeconds() - start;
  const uint64_t failed = merged.requests - merged.committed;
  report->Attempt(merged.requests);
  if (failed > 0) {
    report->Fail(std::to_string(failed) + " tpcc transactions not committed",
                 failed);
  }
  return merged;
}

/// The txn layer alone: replays client 0's transaction stream through
/// TxnManager on a freshly loaded store, single-threaded, timing the
/// reads and the commit (minus the WAL wait Commit reports).
void DirectTxnPass(const TpccConfig& base, uint64_t txns,
                   hwstar::dur::FileBackend* fs, const std::string& dir,
                   const DurableKvOptions& dopts, Report* report) {
  ResetDir(dir);
  auto store = OpenStore(fs, dir, dopts);
  LoadStore(store.get(), hwstar::workload::MakeTpccLoad(base));
  hwstar::txn::TxnManager mgr(store.get());
  TpccConfig cfg = base;
  cfg.actor = 0;
  TpccStream stream(cfg);
  Samples get_ns, commit_ns;
  for (uint64_t i = 0; i < txns; ++i) {
    const TpccTxn txn = stream.Next();
    hwstar::txn::Transaction tx = mgr.Begin();
    uint32_t gets = 0;
    bool ok = true;
    const double t0 = NowSeconds();
    for (const auto& op : txn.ops) {
      uint64_t v = 0;
      bool found = false;
      switch (op.kind) {
        case TpccOpKind::kGet:
          ok = ok && tx.Get(op.key, &v, &found).ok();
          ++gets;
          break;
        case TpccOpKind::kAdd:
          ok = ok && tx.Get(op.key, &v, &found).ok();
          ++gets;
          tx.Put(op.key, v + op.value);
          break;
        case TpccOpKind::kPut:
          tx.Put(op.key, op.value);
          break;
        case TpccOpKind::kDelete:
          tx.Delete(op.key);
          break;
      }
    }
    const double t1 = NowSeconds();
    uint64_t wal_wait = 0;
    ok = ok && tx.Commit(&wal_wait).ok();
    const double t2 = NowSeconds();
    report->Attempt();
    if (!ok) {
      report->Fail("single-threaded transaction did not commit");
      continue;
    }
    if (gets > 0) get_ns.Add((t1 - t0) * 1e9 / gets);
    commit_ns.Add((t2 - t1) * 1e9 - static_cast<double>(wal_wait));
  }
  report->Set("txn.get_ns", get_ns.Median(), "ns", get_ns.size());
  report->Set("txn.commit_ns", commit_ns.Median(), "ns", commit_ns.size());
  store.reset();
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

}  // namespace

void RunTpcc(const Args& args, Report* report) {
  TpccConfig cfg;
  cfg.warehouses = 8;
  cfg.zipf_theta = 0.4;
  cfg.actors = kBusyClients;
  cfg.seed = args.seed;
  double warmup_s = 1.0;
  uint32_t setup_reps = 15;
  if (args.smoke) {
    cfg.warehouses = 2;
    cfg.customers_per_district = 64;
    warmup_s = 0.2;
    setup_reps = 1;
  }
  DurableKvOptions dopts;
  dopts.kv.shards = 8;
  dopts.log_shards = 2;
  dopts.log.sync = kWalSync;
  dopts.log.fsync_interval_us = 20;
  hwstar::dur::PosixFileBackend fs;
  const std::string dir = args.work_dir + "/tpcc";

  std::unique_ptr<DurableKvStore> store;
  TimeSetup(report, setup_reps, [&] {
    store.reset();
    ResetDir(dir);
    store = OpenStore(&fs, dir, dopts);
    LoadStore(store.get(), hwstar::workload::MakeTpccLoad(cfg));
  });

  std::vector<std::unique_ptr<Client>> clients;
  for (uint32_t i = 0; i < kBusyClients; ++i) {
    TpccConfig c = cfg;
    c.actor = i;
    clients.push_back(std::make_unique<Client>(c));
  }
  hwstar::svc::ServiceOptions sopts;
  sopts.batch_window_nanos = 0;  // txns run as singleton batches
  sopts.worker_threads = kBaseClients;
  report->Note("tpcc.config",
               "warehouses=" + std::to_string(cfg.warehouses) +
                   " zipf=" + std::to_string(cfg.zipf_theta) +
                   " clients=" + std::to_string(kBaseClients) +
                   " busy_clients=" + std::to_string(kBusyClients) +
                   " worker_threads=" + std::to_string(sopts.worker_threads) +
                   " max_attempts=" + std::to_string(kMaxAttempts) +
                   " resubmits=" + std::to_string(kResubmits) +
                   " kv_shards=8 log_shards=2 fsync_interval_us=20" +
                   " wal_sync=" +
                   hwstar::dur::SyncModeName(kWalSync));

  PhaseStats base, busy;
  Samples base_p50, base_rate, busy_p50;
  ServingSnapshot counters0, counters1;
  {
    Service service(sopts, store.get());
    report->Note("tunables", service.DumpTunablesText());
    RunPhase(&service, clients, kBaseClients, warmup_s, report);
    counters0 = ServingSnapshot(service, *store);
    const double slice_s = args.seconds / 2 / kSlices;
    for (uint32_t i = 0; i < kSlices; ++i) {
      const PhaseStats b =
          RunPhase(&service, clients, kBaseClients, slice_s, report);
      const PhaseStats y =
          RunPhase(&service, clients, kBusyClients, slice_s, report);
      base_p50.Add(b.latency_us.Median());
      base_rate.Add(b.committed / b.elapsed_s);
      busy_p50.Add(y.latency_us.Median());
      base.Merge(b);
      busy.Merge(y);
    }
    service.Drain();
    counters1 = ServingSnapshot(service, *store);
  }

  report->Set("p50_us", base_p50.Median(), "us", base.committed);
  report->Set("busy_p50_us", busy_p50.Median(), "us", busy.committed);
  report->Set("ops_per_s", base_rate.Median(), "1/s", base.committed);
  report->Set("op.p99_us", base.latency_us.Quantile(0.99), "us",
              base.committed);
  base.split.Report(report);
  const uint64_t attempts = base.attempts + busy.attempts;
  const uint64_t committed = base.committed + busy.committed;
  report->Set("txn.attempts_per_commit",
              committed == 0 ? 0.0 : static_cast<double>(attempts) / committed,
              "count", committed);
  report->Set("txn.client_resubmits",
              static_cast<double>(base.resubmits + busy.resubmits), "count",
              base.requests + busy.requests);
  report->Set("txn.max_resubmits",
              std::max(base.max_resubmits, busy.max_resubmits), "count",
              base.requests + busy.requests);
  report->Set("txn.abort_frac",
              attempts == 0 ? 0.0
                            : static_cast<double>(attempts - committed) /
                                  attempts,
              "fraction", attempts);
  report->Set("dur.wal_wait_p50_us", base.wal_us.Median(), "us",
              base.wal_us.size());
  ReportServingCounters(counters0, counters1, store.get(),
                        base.user_bytes + busy.user_bytes, committed, report);

  const auto before = StoreContents(store.get());
  store = ReopenAndCompare(std::move(store), &fs, dir, dopts, before, report);
  std::vector<const Ledger*> ledgers;
  for (const auto& c : clients) ledgers.push_back(&c->acked);
  CheckTpccConsistency(store->kv(), cfg, ledgers, {}, report);
  store.reset();
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);

  if (args.trace) {
    DirectTxnPass(cfg, args.smoke ? 2'000 : 20'000, &fs,
                  args.work_dir + "/tpcc-direct", dopts, report);
  }
}

}  // namespace hwbench
