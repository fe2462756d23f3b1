// analytics: TPC-H-shaped lineitem/orders columns at scale 0.1 (600K
// lineitem rows, ~45 MB of columns, far beyond a core's L2) queried on a
// 4-thread exec::Executor -- a Q6-style filtered sum and a Q1-style
// grouped sum through engine::ExecuteParallel, and an orders-lineitem
// aggregate join through engine::ExecuteJoin (radix) -- plus
// stream::Pipeline passes: a LineitemSource feeding a StreamTableJoin
// against orders and a tumbling WindowAggregator over 3 partitions. ops,
// simd, engine, exec and stream do nearly all the work here and none in
// the two serving workloads.

#include <atomic>
#include <thread>

#include "common.h"
#include "hwstar/common/hash.h"
#include "hwstar/engine/join_query.h"
#include "hwstar/engine/parallel.h"
#include "hwstar/exec/executor.h"
#include "hwstar/ops/aggregation.h"
#include "hwstar/ops/join_radix.h"
#include "hwstar/ops/selection.h"
#include "hwstar/stream/join.h"
#include "hwstar/stream/pipeline.h"
#include "hwstar/stream/source.h"
#include "hwstar/stream/watermark.h"
#include "hwstar/stream/window.h"
#include "hwstar/tune/tunable.h"
#include "hwstar/workload/tpch_like.h"

namespace hwbench {

namespace {

using hwstar::storage::ColumnStore;

// lineitem columns (workload/tpch_like.h).
constexpr size_t kLOrderKey = 0, kLQuantity = 2, kLPrice = 3, kLDiscount = 4,
                 kLShipdate = 6, kLReturnflag = 7;
// orders columns.
constexpr size_t kOOrderKey = 0, kOTotalprice = 2, kOOrderdate = 3;

/// 600K lineitem rows, 38 MB of lineitem columns: 19x a core's 2 MiB L2.
/// Scale 0.5 (190 MB) spread run to run by up to a fifth on the 4-vCPU
/// host the benchmark was tuned on, and 5x the memory.
constexpr double kScaleFactor = 0.1;
constexpr uint32_t kWorkers = 4;
constexpr uint32_t kStreamPartitions = 3;
constexpr uint64_t kWindowRows = 1 << 16;  ///< tumbling window, event time
constexpr uint64_t kMaxDisorder = 64;      ///< source disorder = lateness

struct Data {
  hwstar::workload::TpchConfig tpch;
  std::unique_ptr<ColumnStore> lineitem;
  std::unique_ptr<ColumnStore> orders;
  std::unique_ptr<hwstar::stream::StreamTableJoin> stream_join;
};

struct Queries {
  hwstar::engine::Query q6;  ///< filtered SUM(price * discount)
  hwstar::engine::Query q1;  ///< SUM(price) GROUP BY returnflag
  hwstar::engine::JoinQuery join;
};

Queries MakeQueries(const Data& d) {
  using namespace hwstar::engine;
  Queries q;
  q.q6.input = d.lineitem.get();
  q.q6.filter =
      And(And(Ge(Col(kLShipdate), Lit(365)), Lt(Col(kLShipdate), Lit(730))),
          And(And(Ge(Col(kLDiscount), Lit(5)), Le(Col(kLDiscount), Lit(7))),
              Lt(Col(kLQuantity), Lit(24))));
  q.q6.aggregate = Mul(Col(kLPrice), Col(kLDiscount));
  q.q1.input = d.lineitem.get();
  q.q1.filter = Le(Col(kLShipdate), Lit(2400));
  q.q1.aggregate = Col(kLPrice);
  q.q1.group_by = kLReturnflag;
  q.join.build = d.orders.get();
  q.join.build_key = kOOrderKey;
  q.join.build_filter = Lt(Col(kOOrderdate), Lit(1200));
  q.join.probe = d.lineitem.get();
  q.join.probe_key = kLOrderKey;
  q.join.probe_filter = Ge(Col(kLShipdate), Lit(600));
  q.join.aggregate = Col(kLPrice);
  return q;
}

bool SameResult(const hwstar::engine::QueryResult& a,
                const hwstar::engine::QueryResult& b) {
  if (a.sum != b.sum || a.rows_passed != b.rows_passed ||
      a.groups.size() != b.groups.size()) {
    return false;
  }
  for (size_t i = 0; i < a.groups.size(); ++i) {
    if (a.groups[i].key != b.groups[i].key ||
        a.groups[i].sum != b.groups[i].sum ||
        a.groups[i].count != b.groups[i].count) {
      return false;
    }
  }
  return true;
}

/// The query results every timed execution must reproduce, computed
/// untimed: single-threaded engine::Execute and the no-partition join.
struct Expected {
  hwstar::engine::QueryResult q6, q1;
  hwstar::engine::JoinQueryResult join;
};

struct RoundTimes {
  double q6_ms, q1_ms, join_ms, round_ms;
};

/// One dashboard refresh: Q6, Q1 and the join back to back.
RoundTimes RunRound(const Queries& q, const Expected& want,
                    hwstar::exec::Executor* pool, Report* report) {
  const double t0 = NowSeconds();
  const auto q6 = hwstar::engine::ExecuteParallel(q.q6, pool);
  const double t1 = NowSeconds();
  const auto q1 = hwstar::engine::ExecuteParallel(q.q1, pool);
  const double t2 = NowSeconds();
  hwstar::engine::JoinExecuteOptions jopts;
  jopts.algorithm = hwstar::engine::JoinAlgorithm::kRadix;
  jopts.pool = pool;
  const auto join = hwstar::engine::ExecuteJoin(q.join, jopts);
  const double t3 = NowSeconds();
  report->Attempt(3);
  if (!SameResult(q6, want.q6)) report->Fail("Q6 result differs from Execute");
  if (!SameResult(q1, want.q1)) report->Fail("Q1 result differs from Execute");
  if (join.sum != want.join.sum || join.matches != want.join.matches) {
    report->Fail("radix join result differs from the no-partition join");
  }
  return {(t1 - t0) * 1e3, (t2 - t1) * 1e3, (t3 - t2) * 1e3, (t3 - t0) * 1e3};
}

/// Order-independent digest of window results.
struct Digest {
  uint64_t count = 0;
  uint64_t checksum = 0;
  void Add(const hwstar::stream::WindowResult& r) {
    ++count;
    checksum += hwstar::Mix64(r.window_start ^ hwstar::Mix64(
                                  r.key ^ hwstar::Mix64(
                                      static_cast<uint64_t>(r.sum) ^
                                      hwstar::Mix64(r.count))));
  }
  bool operator==(const Digest&) const = default;
};

class DigestSink : public hwstar::stream::Sink {
 public:
  void OnWindows(uint32_t /*partition*/,
                 const std::vector<hwstar::stream::WindowResult>& results)
      override {
    Digest d;
    for (const auto& r : results) d.Add(r);
    count_.fetch_add(d.count, std::memory_order_relaxed);
    checksum_.fetch_add(d.checksum, std::memory_order_relaxed);
  }
  Digest digest() const { return {count_.load(), checksum_.load()}; }

 private:
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> checksum_{0};
};

hwstar::stream::EventTimeOptions StreamTime(uint64_t seed) {
  hwstar::stream::EventTimeOptions time;
  time.max_disorder = kMaxDisorder;
  time.seed = seed;
  return time;
}

struct StreamPass {
  double seconds = 0;
  uint64_t rows = 0;
  uint64_t late_dropped = 0;
  uint64_t batches_shed = 0;
  double emit_p50_ms = 0;
  Digest digest;
};

StreamPass RunStreamPass(const Data& d, hwstar::exec::Executor* pool,
                         uint64_t seed, Report* report) {
  hwstar::stream::LineitemSource source(
      d.tpch, hwstar::stream::LineitemKey::kOrderKey, StreamTime(seed));
  hwstar::stream::WindowAggregator window(
      hwstar::stream::WindowSpec::Tumbling(kWindowRows));
  DigestSink sink;
  hwstar::stream::PipelineOptions opts;
  opts.partitions = kStreamPartitions;
  opts.lateness_bound = kMaxDisorder;
  opts.name = "hwbench";
  auto pipeline = hwstar::stream::PipelineBuilder(pool)
                      .From(&source)
                      .Via(d.stream_join.get())
                      .Aggregate(&window)
                      .To(&sink)
                      .With(opts)
                      .Build();
  const double t0 = NowSeconds();
  pipeline->Run();
  StreamPass pass;
  pass.seconds = NowSeconds() - t0;
  pass.rows = hwstar::workload::LineitemRows(d.tpch);
  pass.emit_p50_ms =
      pipeline->emit_latency_histogram().Snapshot().Quantile(0.5) * 1e-6;
  pass.digest = sink.digest();
  pass.late_dropped = pipeline->late_dropped();
  pass.batches_shed = pipeline->batches_shed();
  report->Attempt();
  if (pass.late_dropped != 0 || pass.batches_shed != 0) {
    report->Fail("stream pass dropped " + std::to_string(pass.late_dropped) +
                 " late rows, shed " + std::to_string(pass.batches_shed) +
                 " batches");
  }
  return pass;
}

/// The stream operators alone: the same source batches through the join
/// and the window on one partition, single-threaded. Its digest is the
/// reference every pipeline pass must match.
Digest DirectStreamPass(const Data& d, uint64_t seed, Report* report) {
  hwstar::stream::LineitemSource source(
      d.tpch, hwstar::stream::LineitemKey::kOrderKey, StreamTime(seed));
  hwstar::stream::WindowAggregator window(
      hwstar::stream::WindowSpec::Tumbling(kWindowRows));
  window.Bind(1);
  d.stream_join->Bind(1);
  hwstar::stream::WatermarkTracker tracker(kMaxDisorder);
  hwstar::stream::StreamBatch batch;
  std::vector<hwstar::stream::WindowResult> out;
  Digest digest;
  double join_s = 0, window_s = 0;
  uint64_t join_rows = 0, window_rows = 0, late = 0;
  const auto emit = [&] {
    for (const auto& r : out) digest.Add(r);
    out.clear();
  };
  while (true) {
    batch.Clear();
    if (!source.NextBatch(4096, &batch)) break;
    for (uint64_t ts : batch.event_ts) tracker.Observe(ts);
    batch.watermark = tracker.watermark();
    join_rows += batch.size();
    const double t0 = NowSeconds();
    d.stream_join->Apply(0, &batch);
    const double t1 = NowSeconds();
    window.OnBatch(0, batch, &out, &late);
    const double t2 = NowSeconds();
    window_rows += batch.size();
    join_s += t1 - t0;
    window_s += t2 - t1;
    emit();
  }
  batch.Clear();
  batch.watermark = hwstar::stream::StreamBatch::kFlushWatermark;
  window.OnBatch(0, batch, &out, &late);
  emit();
  report->Set("stream.join_ns_per_row",
              join_rows == 0 ? 0.0 : join_s * 1e9 / join_rows, "ns", join_rows);
  report->Set("stream.window_ns_per_row",
              window_rows == 0 ? 0.0 : window_s * 1e9 / window_rows, "ns",
              window_rows);
  report->Attempt();
  if (late != 0) report->Fail("direct stream pass saw late rows");
  return digest;
}

/// ops layer alone, on the queries' own columns. Returns the radix join's
/// partition + probe time, the ops-level part of the join query.
double OpsPass(const Data& d, hwstar::exec::Executor* pool,
             const Expected& want, Report* report) {
  constexpr int kReps = 5;
  const auto& ship = d.lineitem->IntColumn(kLShipdate);
  const auto& price = d.lineitem->IntColumn(kLPrice);
  const auto& flag = d.lineitem->IntColumn(kLReturnflag);
  std::vector<uint64_t> flag_keys(flag.begin(), flag.end());

  // The join's inputs, filtered as ExecuteJoin filters them.
  hwstar::ops::Relation build, probe;
  const auto& odate = d.orders->IntColumn(kOOrderdate);
  const auto& okey = d.orders->IntColumn(kOOrderKey);
  for (uint64_t i = 0; i < okey.size(); ++i) {
    if (odate[i] < 1200) build.Append(static_cast<uint64_t>(okey[i]), i);
  }
  const auto& lkey = d.lineitem->IntColumn(kLOrderKey);
  for (uint64_t i = 0; i < lkey.size(); ++i) {
    if (ship[i] >= 600) {
      probe.Append(static_cast<uint64_t>(lkey[i]),
                   static_cast<uint64_t>(price[i]));
    }
  }
  hwstar::ops::RadixJoinOptions ropts;
  ropts.radix_bits = hwstar::ops::RecommendRadixBits(build.size(), 8u << 20);
  ropts.materialize = true;
  ropts.pool = pool;

  Samples select_ms, agg_ms, part_ms, probe_ms;
  std::vector<uint32_t> positions;
  std::vector<uint64_t> scratch;
  for (int rep = 0; rep < kReps; ++rep) {
    positions.clear();
    double t0 = NowSeconds();
    hwstar::ops::SelectBitmap(ship, 365, 730, &positions, &scratch);
    select_ms.Add((NowSeconds() - t0) * 1e3);
    t0 = NowSeconds();
    const auto groups = hwstar::ops::HashAggregate(flag_keys, price);
    agg_ms.Add((NowSeconds() - t0) * 1e3);
    hwstar::ops::RadixJoinTiming timing;
    const auto join = hwstar::ops::RadixHashJoin(build, probe, ropts, &timing);
    part_ms.Add(timing.partition_seconds * 1e3);
    probe_ms.Add(timing.join_seconds * 1e3);
    report->Attempt();
    if (join.matches != want.join.matches || groups.empty()) {
      report->Fail("ops-level join or aggregate disagrees with the query");
    }
  }
  report->Set("ops.select_ms", select_ms.Median(), "ms", kReps);
  report->Set("ops.hash_agg_ms", agg_ms.Median(), "ms", kReps);
  report->Set("ops.join_partition_ms", part_ms.Median(), "ms", kReps);
  report->Set("ops.join_probe_ms", probe_ms.Median(), "ms", kReps);
  return part_ms.Median() + probe_ms.Median();
}

}  // namespace

void RunAnalytics(const Args& args, Report* report) {
  Data d;
  d.tpch.scale_factor = args.smoke ? 0.02 : kScaleFactor;
  d.tpch.seed = args.seed;
  const uint32_t setup_reps = args.smoke ? 1 : 15;
  TimeSetup(report, setup_reps, [&] {
    d = Data{d.tpch, nullptr, nullptr, nullptr};
    auto lineitem = hwstar::workload::MakeLineitem(d.tpch);
    d.lineitem = std::make_unique<ColumnStore>(
        ColumnStore::FromTable(*lineitem).value());
    lineitem.reset();
    auto orders = hwstar::workload::MakeOrders(d.tpch);
    d.orders =
        std::make_unique<ColumnStore>(ColumnStore::FromTable(*orders).value());
    orders.reset();
    const auto& keys = d.orders->IntColumn(kOOrderKey);
    std::vector<uint64_t> build_keys(keys.begin(), keys.end());
    d.stream_join = std::make_unique<hwstar::stream::StreamTableJoin>(
        build_keys.data(), d.orders->IntColumn(kOTotalprice).data(),
        build_keys.size());
  });
  report->Note("analytics.config",
               "scale_factor=" + std::to_string(d.tpch.scale_factor) +
                   " lineitem_rows=" + std::to_string(d.lineitem->num_rows()) +
                   " column_bytes=" +
                   std::to_string(d.lineitem->DataBytes() +
                                  d.orders->DataBytes()) +
                   " executor_threads=" + std::to_string(kWorkers) +
                   " busy_clients=2 stream_partitions=" +
                   std::to_string(kStreamPartitions));
  report->Note("tunables", hwstar::tune::Registry::Global().DumpText());

  const Queries q = MakeQueries(d);
  Expected want;
  want.q6 = hwstar::engine::Execute(q.q6);
  want.q1 = hwstar::engine::Execute(q.q1);
  hwstar::engine::JoinExecuteOptions nop;
  nop.algorithm = hwstar::engine::JoinAlgorithm::kNoPartition;
  want.join = hwstar::engine::ExecuteJoin(q.join, nop);
  const Digest stream_want = DirectStreamPass(d, args.seed, report);

  hwstar::exec::Executor pool(kWorkers);
  // Warm-up, discarded: one round and one stream pass.
  RunRound(q, want, &pool, report);
  RunStreamPass(d, &pool, args.seed, report);
  const auto exec0 = pool.stats();

  const double round_s = args.seconds * 0.4, busy_s = args.seconds * 0.3,
               stream_s = args.seconds * 0.3;
  Samples round_ms, q6_ms, q1_ms, join_ms;
  for (const double end = NowSeconds() + round_s;
       round_ms.empty() || NowSeconds() < end;) {
    const RoundTimes t = RunRound(q, want, &pool, report);
    round_ms.Add(t.round_ms);
    q6_ms.Add(t.q6_ms);
    q1_ms.Add(t.q1_ms);
    join_ms.Add(t.join_ms);
  }
  // Busy: two dashboard clients share the executor.
  Samples busy_ms[2];
  Report busy_reports[2];
  {
    const double end = NowSeconds() + busy_s;
    std::vector<std::thread> clients;
    for (int c = 0; c < 2; ++c) {
      clients.emplace_back([&, c] {
        do {
          busy_ms[c].Add(RunRound(q, want, &pool, &busy_reports[c]).round_ms);
        } while (NowSeconds() < end);
      });
    }
    for (auto& t : clients) t.join();
  }
  for (const Report& r : busy_reports) {
    report->Attempt(r.attempted());
    if (r.failed() > 0) report->Fail("busy-phase query results", r.failed());
  }
  busy_ms[0].Append(busy_ms[1]);
  Samples rows_per_s, emit_ms;
  uint64_t late_dropped = 0, batches_shed = 0;
  for (const double end = NowSeconds() + stream_s;
       rows_per_s.empty() || NowSeconds() < end;) {
    const StreamPass pass = RunStreamPass(d, &pool, args.seed, report);
    rows_per_s.Add(pass.rows / pass.seconds);
    emit_ms.Add(pass.emit_p50_ms);
    late_dropped += pass.late_dropped;
    batches_shed += pass.batches_shed;
    if (!(pass.digest == stream_want)) {
      report->Fail("stream pass output differs from the direct pass (" +
                   std::to_string(pass.digest.count) + " vs " +
                   std::to_string(stream_want.count) + " windows)");
    }
  }
  const auto exec1 = pool.stats();

  report->Set("p50_us", round_ms.Median() * 1e3, "us", round_ms.size());
  report->Set("busy_p50_us", busy_ms[0].Median() * 1e3, "us",
              busy_ms[0].size());
  report->Set("ops_per_s", rows_per_s.Median(), "1/s", rows_per_s.size());
  report->Set("op.scan_query_ms", q6_ms.Median(), "ms", q6_ms.size());
  report->Set("op.group_query_ms", q1_ms.Median(), "ms", q1_ms.size());
  report->Set("op.join_query_ms", join_ms.Median(), "ms", join_ms.size());
  report->Set("op.stream_emit_p50_ms", emit_ms.Median(), "ms", emit_ms.size());
  report->Set("engine.rows_passed", want.q6.rows_passed, "count", 1);
  report->Set("engine.matches", want.join.matches, "count", 1);
  const uint64_t steals = exec1.steals - exec0.steals;
  const uint64_t tasks = steals + exec1.local_pops - exec0.local_pops;
  report->Set("exec.steal_frac",
              tasks == 0 ? 0.0 : static_cast<double>(steals) / tasks,
              "fraction", tasks);
  report->Set("stream.late_dropped", late_dropped, "count", rows_per_s.size());
  report->Set("stream.batches_shed", batches_shed, "count", rows_per_s.size());

  if (args.trace) {
    const double ops_join_ms = OpsPass(d, &pool, want, report);
    report->Set("engine.join_overhead_ms", join_ms.Median() - ops_join_ms,
                "ms", join_ms.size());
  }
}

}  // namespace hwbench
