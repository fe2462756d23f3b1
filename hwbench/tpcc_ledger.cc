#include "tpcc_ledger.h"

#include <string>
#include <unordered_set>

namespace hwbench {

using hwstar::workload::TpccOpKind;
using hwstar::workload::TpccTxn;
using hwstar::workload::TpccTxnKind;

namespace {

constexpr uint64_t kInitialBalance = 1000;
constexpr uint32_t kWarehouseShift = 52;  ///< tpcc_like's key packing

uint64_t Read(hwstar::kv::KvStore* kv, uint64_t key, bool* found) {
  auto r = kv->Get(key);
  *found = r.ok();
  return r.ok() ? r.value() : 0;
}

}  // namespace

void Ledger::Record(const TpccTxn& txn) {
  switch (txn.kind) {
    case TpccTxnKind::kNewOrder: {
      // ops: get w, get d, get c, put order=customer, put line=amount...
      Order order{txn.ops[3].value, {}};
      for (size_t i = 4; i < txn.ops.size(); ++i) {
        order.lines.emplace_back(txn.ops[i].key, txn.ops[i].value);
      }
      open_orders[txn.ops[3].key] = std::move(order);
      break;
    }
    case TpccTxnKind::kPayment:
      // ops: add w, add d, add c -- all by the same amount.
      warehouse_paid[txn.ops[0].key >> kWarehouseShift] += txn.ops[0].value;
      customer_credit += txn.ops[2].value;
      break;
    case TpccTxnKind::kDelivery:
      // ops: get order, delete order, delete lines..., add customer.
      open_orders.erase(txn.ops[0].key);
      for (const auto& op : txn.ops) {
        if (op.kind == TpccOpKind::kDelete) deleted.push_back(op.key);
      }
      customer_credit += txn.ops.back().value;
      break;
  }
}

void CheckTpccConsistency(hwstar::kv::KvStore* kv,
                          const hwstar::workload::TpccConfig& cfg,
                          const std::vector<const Ledger*>& acked,
                          const std::vector<const Ledger*>& in_doubt,
                          Report* report) {
  using hwstar::workload::TpccCustomerKey;
  using hwstar::workload::TpccDistrictKey;
  using hwstar::workload::TpccWarehouseKey;
  std::vector<uint64_t> paid(cfg.warehouses, 0);
  std::vector<uint64_t> paid_doubt(cfg.warehouses, 0);
  uint64_t credit = 0, credit_doubt = 0;
  std::unordered_set<uint64_t> doubt_deleted;
  for (const Ledger* l : acked) {
    for (uint32_t w = 0; w < cfg.warehouses; ++w) {
      paid[w] += l->warehouse_paid[w];
    }
    credit += l->customer_credit;
  }
  for (const Ledger* l : in_doubt) {
    for (uint32_t w = 0; w < cfg.warehouses; ++w) {
      paid_doubt[w] += l->warehouse_paid[w];
    }
    credit_doubt += l->customer_credit;
    doubt_deleted.insert(l->deleted.begin(), l->deleted.end());
  }

  bool found = false;
  for (uint32_t w = 0; w < cfg.warehouses; ++w) {
    report->Attempt();
    const uint64_t w_gain =
        Read(kv, TpccWarehouseKey(w), &found) - kInitialBalance;
    uint64_t d_gain = 0;
    for (uint32_t d = 0; d < cfg.districts_per_warehouse; ++d) {
      d_gain += Read(kv, TpccDistrictKey(w, d), &found) - kInitialBalance;
    }
    if (w_gain != d_gain || w_gain < paid[w] ||
        w_gain > paid[w] + paid_doubt[w]) {
      report->Fail("warehouse " + std::to_string(w) + " YTD gain " +
                   std::to_string(w_gain) + ", districts " +
                   std::to_string(d_gain) + ", acknowledged payments " +
                   std::to_string(paid[w]) + " (+" +
                   std::to_string(paid_doubt[w]) + " in doubt)");
    }
  }

  report->Attempt();
  uint64_t c_gain = 0;
  for (uint32_t w = 0; w < cfg.warehouses; ++w) {
    for (uint32_t d = 0; d < cfg.districts_per_warehouse; ++d) {
      for (uint64_t c = 0; c < cfg.customers_per_district; ++c) {
        c_gain += Read(kv, TpccCustomerKey(w, d, c), &found) - kInitialBalance;
      }
    }
  }
  if (c_gain < credit || c_gain > credit + credit_doubt) {
    report->Fail("customer balance gain " + std::to_string(c_gain) +
                 ", acknowledged credits " + std::to_string(credit) + " (+" +
                 std::to_string(credit_doubt) + " in doubt)");
  }

  for (const Ledger* l : acked) {
    for (const auto& [order_key, order] : l->open_orders) {
      if (doubt_deleted.count(order_key)) continue;
      report->Attempt();
      bool ok = Read(kv, order_key, &found) == order.customer && found;
      for (const auto& [key, amount] : order.lines) {
        ok = ok && Read(kv, key, &found) == amount && found;
      }
      if (!ok) {
        report->Fail("acknowledged order " + std::to_string(order_key) +
                     " or one of its lines is missing");
      }
    }
    report->Attempt(l->deleted.size());
    for (uint64_t key : l->deleted) {
      Read(kv, key, &found);
      if (found) {
        report->Fail("key " + std::to_string(key) +
                     " of a delivered order still exists");
      }
    }
  }
}

}  // namespace hwbench
