#include <gtest/gtest.h>

#include "db/table.hpp"
#include "db/tpcc_schema.hpp"

namespace dclue::db {
namespace {

TEST(PageId, LayoutRoundTrips) {
  PageId p = make_page_id(TableId::kStock, false, 12345);
  EXPECT_EQ(table_of_page(p), TableId::kStock);
  PageId idx = make_page_id(TableId::kStock, true, 12345);
  EXPECT_NE(p, idx);
  EXPECT_EQ(table_of_page(idx), TableId::kStock);
}

TEST(PageId, LockNamesDistinctAcrossSubpages) {
  PageId p = make_page_id(TableId::kDistrict, false, 7);
  EXPECT_NE(lock_name(p, 0), lock_name(p, 1));
  PageId q = make_page_id(TableId::kDistrict, false, 8);
  EXPECT_NE(lock_name(p, 0), lock_name(q, 0));
}

TEST(Keys, CompositeKeysAreDistinctAndOrdered) {
  EXPECT_LT(key_wd(1, 1), key_wd(1, 2));
  EXPECT_LT(key_wd(1, 10), key_wd(2, 1));
  EXPECT_LT(key_wdo(1, 1, 5), key_wdo(1, 1, 6));
  EXPECT_LT(key_wdo(1, 1, 999999), key_wdo(1, 2, 1));
  EXPECT_LT(key_wdool(1, 1, 5, 1), key_wdool(1, 1, 5, 2));
  EXPECT_LT(key_wdool(1, 1, 5, 15), key_wdool(1, 1, 6, 1));
  EXPECT_NE(key_wdc(1, 1, 7), key_wdo(1, 1, 7));
}

TEST(Table, RowsPerPageFollowsSpecRowSize) {
  Table<StockRow> t(TpccSpecs::stock);
  EXPECT_EQ(t.rows_per_page(), 8192 / 306);
  Table<NewOrderRow> no(TpccSpecs::new_order);
  EXPECT_EQ(no.rows_per_page(), 1024);
}

TEST(Table, DataPageAndSubpageMath) {
  Table<DistrictRow> t(TpccSpecs::district);  // 95B rows, 128B subpages
  const int rpp = t.rows_per_page();
  // Fill two pages worth of rows.
  for (std::int64_t i = 0; i < 2 * rpp; ++i) {
    t.insert(static_cast<Key>(i), DistrictRow{});
  }
  RowId first = *t.find_id(0);
  RowId second_page = *t.find_id(static_cast<Key>(rpp));
  EXPECT_NE(t.data_page_of(first), t.data_page_of(second_page));
  // Subpage of 128B on 95B rows: row 0 -> subpage 0, row 2 (190B..) -> 1+.
  EXPECT_EQ(t.subpage_of(0), 0);
  EXPECT_GT(t.subpage_of(3), 0);
}

TEST(Table, InsertFindErase) {
  Table<CustomerRow> t(TpccSpecs::customer);
  t.insert(key_wdc(1, 1, 1), CustomerRow{});
  ASSERT_NE(t.find(key_wdc(1, 1, 1)), nullptr);
  t.find(key_wdc(1, 1, 1))->balance = 42.0;
  EXPECT_DOUBLE_EQ(t.find(key_wdc(1, 1, 1))->balance, 42.0);
  EXPECT_TRUE(t.erase(key_wdc(1, 1, 1)));
  EXPECT_EQ(t.find(key_wdc(1, 1, 1)), nullptr);
}

TEST(Table, ErasedSlotsAreReused) {
  Table<NewOrderRow> t(TpccSpecs::new_order);
  t.insert(1, NewOrderRow{});
  RowId id = *t.find_id(1);
  t.erase(1);
  t.insert(2, NewOrderRow{});
  EXPECT_EQ(*t.find_id(2), id);
}

TEST(Table, IndexPageStableForSameKey) {
  Table<StockRow> t(TpccSpecs::stock);
  for (std::int64_t i = 1; i <= 10'000; ++i) t.insert(key_wi(1, i), StockRow{});
  PageId a = t.index_page_of(key_wi(1, 77));
  PageId b = t.index_page_of(key_wi(1, 77));
  EXPECT_EQ(a, b);
  EXPECT_EQ(table_of_page(a), TableId::kStock);
}

TEST(TpccDatabase, PopulationMatchesCardinalityRules) {
  TpccScale scale;
  scale.warehouses = 3;
  scale.customers_per_district = 30;
  scale.items = 100;
  scale.initial_orders_per_district = 9;
  TpccDatabase db(scale);
  sim::Rng rng(1);
  db.populate(rng);

  EXPECT_EQ(db.warehouse.size(), 3u);
  EXPECT_EQ(db.district.size(), 30u);
  EXPECT_EQ(db.customer.size(), 3u * 10 * 30);
  EXPECT_EQ(db.item.size(), 100u);
  EXPECT_EQ(db.stock.size(), 300u);
  EXPECT_EQ(db.order.size(), 30u * 9);
  // One third of initial orders are undelivered new-orders.
  EXPECT_EQ(db.new_order.size(), 30u * 3);
  EXPECT_GT(db.order_line.size(), db.order.size() * 5);
}

TEST(TpccDatabase, DistrictNextOrderIdStartsAfterInitialOrders) {
  TpccScale scale;
  scale.warehouses = 1;
  scale.initial_orders_per_district = 9;
  TpccDatabase db(scale);
  sim::Rng rng(1);
  db.populate(rng);
  EXPECT_EQ(db.district.find(key_wd(1, 1))->next_o_id, 10);
}

TEST(TpccDatabase, OldestNewOrderScanPerDistrict) {
  TpccScale scale;
  scale.warehouses = 1;
  scale.initial_orders_per_district = 9;
  TpccDatabase db(scale);
  sim::Rng rng(1);
  db.populate(rng);
  // The undelivered orders are the most recent third: ids 7..9.
  auto it = db.new_order.lower_bound(key_wdo(1, 1, 0));
  ASSERT_TRUE(it.valid());
  EXPECT_EQ(it.key(), key_wdo(1, 1, 7));
}

/// Every key the ordered walk of \p table yields is found by find_id() with
/// the walked row id, and lower_bound() just past each key lands on the next
/// one. Returns the number of keys walked.
template <typename Row>
std::size_t expect_index_consistent(const Table<Row>& table) {
  std::size_t walked = 0;
  auto it = table.lower_bound(0);
  while (it.valid()) {
    const Key key = it.key();
    const auto id = table.find_id(key);
    EXPECT_EQ(id, std::optional<RowId>(it.value()))
        << table.spec().name << " key " << key;
    EXPECT_EQ(table.lower_bound(key).key(), key) << table.spec().name;
    ++walked;
    it.next();
    const auto after = table.lower_bound(key + 1);
    EXPECT_EQ(after.valid(), it.valid()) << table.spec().name << " key " << key;
    if (after.valid() && it.valid()) {
      EXPECT_EQ(after.key(), it.key()) << table.spec().name << " key " << key;
    }
  }
  EXPECT_EQ(walked, table.size()) << table.spec().name;
  return walked;
}

TEST(TpccDatabase, PopulatedIndexesFindEveryLoadedKey) {
  TpccScale scale;
  scale.warehouses = 2;
  scale.customers_per_district = 30;
  scale.items = 200;
  TpccDatabase db(scale);
  sim::Rng rng(3);
  db.populate(rng);
  // Keys populate() derives from the scale alone.
  for (std::int64_t i = 1; i <= scale.items; ++i) {
    ASSERT_NE(db.item.find(key_i(i)), nullptr) << i;
  }
  for (std::int64_t w = 1; w <= scale.warehouses; ++w) {
    ASSERT_NE(db.warehouse.find(key_w(w)), nullptr) << w;
    for (std::int64_t i = 1; i <= scale.items; ++i) {
      ASSERT_NE(db.stock.find(key_wi(w, i)), nullptr) << w << "/" << i;
    }
    for (std::int64_t d = 1; d <= scale.districts_per_warehouse; ++d) {
      ASSERT_NE(db.district.find(key_wd(w, d)), nullptr) << w << "/" << d;
      for (std::int64_t c = 1; c <= scale.customers_per_district; ++c) {
        ASSERT_NE(db.customer.find(key_wdc(w, d, c)), nullptr) << c;
      }
      for (std::int64_t o = 1; o <= scale.initial_orders_per_district; ++o) {
        const OrderRow* order = db.order.find(key_wdo(w, d, o));
        ASSERT_NE(order, nullptr) << o;
        for (std::int64_t ol = 1; ol <= order->ol_cnt; ++ol) {
          ASSERT_NE(db.order_line.find(key_wdool(w, d, o, ol)), nullptr) << ol;
        }
      }
    }
  }
  // Every walked key of every table, including the multi-leaf ones.
  expect_index_consistent(db.warehouse);
  expect_index_consistent(db.district);
  EXPECT_GT(expect_index_consistent(db.customer), 64u * 8);
  expect_index_consistent(db.history);
  expect_index_consistent(db.new_order);
  expect_index_consistent(db.order);
  EXPECT_GT(expect_index_consistent(db.order_line), 64u * 64);
  expect_index_consistent(db.item);
  expect_index_consistent(db.stock);
  db.build_ycsb(5'000);
  EXPECT_EQ(expect_index_consistent(*db.ycsb), 5'000u);
}

TEST(TpccDatabase, TotalDataPagesIsPlausible) {
  TpccScale scale;
  TpccDatabase db(scale);
  sim::Rng rng(1);
  db.populate(rng);
  // 40 warehouses: customer table dominates (120K rows / 12 per page = 10K).
  EXPECT_GT(db.total_data_pages(), 10'000u);
  EXPECT_LT(db.total_data_pages(), 100'000u);
}

}  // namespace
}  // namespace dclue::db
