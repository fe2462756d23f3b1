// The client-side record of TPC-C-shaped transactions and the consistency
// conditions checked against it, shared by the tpcc workload and the crash
// test.

#ifndef HWBENCH_TPCC_LEDGER_H_
#define HWBENCH_TPCC_LEDGER_H_

#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common.h"
#include "hwstar/kv/kv_store.h"
#include "hwstar/workload/tpcc_like.h"

namespace hwbench {

/// What a set of transactions did, as the client issued them.
struct Ledger {
  explicit Ledger(uint32_t warehouses) : warehouse_paid(warehouses, 0) {}

  struct Order {
    uint64_t customer = 0;
    std::vector<std::pair<uint64_t, uint64_t>> lines;  ///< (key, amount)
  };
  /// New orders not delivered since: order key -> contents.
  std::unordered_map<uint64_t, Order> open_orders;
  /// Keys deliveries deleted (orders and their lines).
  std::vector<uint64_t> deleted;
  std::vector<uint64_t> warehouse_paid;  ///< payment sum per warehouse
  uint64_t customer_credit = 0;          ///< payment + delivery credits

  void Record(const hwstar::workload::TpccTxn& txn);
};

/// The TPC-C consistency conditions, adapted to tpcc_like's key packing
/// (balances start at MakeTpccLoad's 1000 and only grow):
///  - each warehouse's YTD gain equals the sum of its districts' gains;
///  - that gain lies between the acknowledged payments to the warehouse
///    and those plus the in-doubt ones (equal when nothing is in doubt),
///    and likewise the customers' total gain against acknowledged credits;
///  - acknowledged undelivered orders exist with all their lines (unless
///    an in-doubt delivery took them), acknowledged deliveries' keys do not.
/// `in_doubt` holds transactions whose outcome the client never learned.
void CheckTpccConsistency(hwstar::kv::KvStore* kv,
                          const hwstar::workload::TpccConfig& cfg,
                          const std::vector<const Ledger*>& acked,
                          const std::vector<const Ledger*>& in_doubt,
                          Report* report);

}  // namespace hwbench

#endif  // HWBENCH_TPCC_LEDGER_H_
