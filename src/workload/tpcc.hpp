// TPC-C workload — the paper's macro-benchmark (Table 2 row 3 runs it at
// one warehouse, the classic high-contention configuration).
//
// Full nine-table schema with five transaction profiles compiled into the
// fragment model:
//   NewOrder    — abortable item lookups (1% invalid item = deterministic
//                 user abort), district order-id assignment, stock updates,
//                 order / new-order / order-line inserts with data
//                 dependencies (price, taxes, discount -> amount).
//   Payment     — warehouse/district YTD updates, customer balance update
//                 (15% remote warehouse -> multi-partition), history insert.
//   OrderStatus — read-only customer + order + order-line reads.
//   Delivery    — new-order consumption (erase), carrier update, order-line
//                 delivery dates feeding the customer balance via data
//                 dependencies. One district per transaction (see the
//                 deviations below).
//   StockLevel  — read-only stock scans of the most recent order's items
//                 with an aggregating fragment.
//
// Documented deviations from the spec (all standard in research test-beds):
// payment by customer-id only (no last-name index), delivery handles one
// district per transaction, initial orders per district configurable
// (default 300), dates are deterministic counters.
//
// Deterministic order-id assignment: the generator pre-assigns o_id in
// generation order, skipping doomed NewOrders (their abort is decided at
// generation time by planting an invalid item). This is the deterministic-
// database prerequisite — write sets must be computable upfront — and it is
// exactly how the execution in sequence order plays out, which the
// equivalence tests verify end to end.
#pragma once

#include <cstdint>
#include <vector>

#include "storage/index_backend.hpp"
#include "txn/procedure.hpp"
#include "workload/workload.hpp"

namespace quecc::wl {

// --- dimensional constants -------------------------------------------------
inline constexpr std::uint32_t kDistrictsPerWarehouse = 10;
inline constexpr std::uint32_t kCustomersPerDistrict = 3000;
inline constexpr std::uint32_t kItems = 100000;
inline constexpr std::uint32_t kMaxOrderLines = 15;
inline constexpr std::uint64_t kInvalidItem = kItems + 7;  ///< plants aborts
inline constexpr std::uint64_t kOrderSpace = 1ull << 24;

// --- key packing (documented, tested) ---------------------------------------
constexpr key_t warehouse_key(std::uint64_t w) noexcept { return w; }
constexpr key_t district_key(std::uint64_t w, std::uint64_t d) noexcept {
  return w * kDistrictsPerWarehouse + d;
}
constexpr key_t customer_key(std::uint64_t w, std::uint64_t d,
                             std::uint64_t c) noexcept {
  return district_key(w, d) * kCustomersPerDistrict + c;
}
constexpr key_t item_key(std::uint64_t i) noexcept { return i; }
constexpr key_t stock_key(std::uint64_t w, std::uint64_t i) noexcept {
  return w * (kItems + 16) + i;
}
constexpr key_t order_key(std::uint64_t w, std::uint64_t d,
                          std::uint64_t o) noexcept {
  return district_key(w, d) * kOrderSpace + o;
}
constexpr key_t order_line_key(std::uint64_t w, std::uint64_t d,
                               std::uint64_t o, std::uint64_t ol) noexcept {
  return order_key(w, d, o) * (kMaxOrderLines + 1) + ol;
}

struct tpcc_config {
  std::uint32_t warehouses = 1;
  part_id_t partitions = 4;  ///< partition of warehouse w = w % partitions
  std::uint32_t initial_orders_per_district = 300;
  /// Extra order slots per district reserved for benchmark inserts.
  std::uint32_t order_headroom_per_district = 8000;

  // Transaction mix (normalized internally).
  double new_order_ratio = 0.45;
  double payment_ratio = 0.43;
  double order_status_ratio = 0.04;
  double delivery_ratio = 0.04;
  double stock_level_ratio = 0.04;

  double remote_payment_ratio = 0.15;  ///< customer in a remote warehouse
  double remote_stock_ratio = 0.01;    ///< item supplied by remote warehouse
  double invalid_item_ratio = 0.01;    ///< doomed NewOrders (user abort)

  /// Scan-based profiles (the full 5-txn mix as the spec phrases it):
  /// OrderStatus reads the order's lines with one ordered range scan
  /// instead of per-line point reads, and StockLevel scans the last 20
  /// orders' order-line key range. Forces ORDER-LINE onto the ordered
  /// index backend regardless of `index`.
  bool scan_profiles = false;
  /// Index backend for every table (ORDER-LINE is forced to ordered when
  /// scan_profiles is set). Point-only runs produce identical state
  /// hashes under either backend.
  storage::index_kind index = storage::index_kind::hash;
};

class tpcc final : public workload {
 public:
  explicit tpcc(tpcc_config cfg);

  const char* name() const noexcept override { return "tpcc"; }
  void load(storage::database& db) override;
  std::unique_ptr<txn::txn_desc> make_txn(common::rng& r) override;
  const txn::procedure* find_procedure(
      const std::string& name) const override {
    for (const txn::procedure* p :
         {&new_order_proc_, &payment_proc_, &order_status_proc_,
          &delivery_proc_, &stock_level_proc_}) {
      if (p->name() == name) return p;
    }
    return nullptr;
  }

  const tpcc_config& cfg() const noexcept { return cfg_; }

  /// TPC-C consistency condition 1 (adapted): for every district,
  /// D_NEXT_O_ID - 1 equals the maximum order id present in ORDERS and
  /// NEW-ORDER. Returns false (and the offending district via *bad) when
  /// violated. Used by the integration tests.
  bool check_consistency(const storage::database& db,
                         std::string* why = nullptr) const;

  /// Sum of all customer balances + YTD payments (money conservation
  /// check used by tests; payments move money, they do not create it).
  double money_sum(const storage::database& db) const;

  // Table ids (valid after load()).
  table_id_t t_warehouse() const noexcept { return warehouse_; }
  table_id_t t_district() const noexcept { return district_; }
  table_id_t t_customer() const noexcept { return customer_; }
  table_id_t t_history() const noexcept { return history_; }
  table_id_t t_new_order() const noexcept { return new_order_; }
  table_id_t t_orders() const noexcept { return orders_; }
  table_id_t t_order_line() const noexcept { return order_line_; }
  table_id_t t_item() const noexcept { return item_; }
  table_id_t t_stock() const noexcept { return stock_; }

 private:
  struct order_meta {
    std::uint32_t customer = 0;
    std::uint8_t ol_cnt = 0;
    std::uint32_t items[kMaxOrderLines] = {};
  };
  struct district_state {
    std::uint64_t next_o_id = 0;
    std::uint64_t delivery_ptr = 0;
    std::vector<order_meta> orders;  ///< indexed by o_id
  };

  std::unique_ptr<txn::txn_desc> make_new_order(common::rng& r);
  std::unique_ptr<txn::txn_desc> make_payment(common::rng& r);
  std::unique_ptr<txn::txn_desc> make_order_status(common::rng& r);
  std::unique_ptr<txn::txn_desc> make_delivery(common::rng& r);
  std::unique_ptr<txn::txn_desc> make_stock_level(common::rng& r);

  part_id_t part_of_warehouse(std::uint64_t w) const noexcept {
    return static_cast<part_id_t>(w % cfg_.partitions);
  }
  district_state& district_of(std::uint64_t w, std::uint64_t d) {
    return dstate_[w * kDistrictsPerWarehouse + d];
  }

  tpcc_config cfg_;
  txn::procedure new_order_proc_;
  txn::procedure payment_proc_;
  txn::procedure order_status_proc_;
  txn::procedure delivery_proc_;
  txn::procedure stock_level_proc_;

  std::vector<district_state> dstate_;
  std::uint64_t history_counter_ = 0;
  std::uint64_t date_counter_ = 1;

  table_id_t warehouse_ = 0, district_ = 0, customer_ = 0, history_ = 0,
             new_order_ = 0, orders_ = 0, order_line_ = 0, item_ = 0,
             stock_ = 0;
};

}  // namespace quecc::wl
