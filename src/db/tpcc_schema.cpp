#include "db/tpcc_schema.hpp"

namespace dclue::db {

void TpccDatabase::populate(sim::Rng& rng) {
  for (std::int64_t i = 1; i <= scale_.items; ++i) {
    item.insert(key_i(i), ItemRow{rng.uniform(1.0, 100.0)});
  }
  for (std::int64_t w = 1; w <= scale_.warehouses; ++w) {
    warehouse.insert(key_w(w), WarehouseRow{300'000.0});
    for (std::int64_t i = 1; i <= scale_.items; ++i) {
      stock.insert(key_wi(w, i),
                   StockRow{static_cast<std::int16_t>(rng.uniform_int(10, 100)),
                            0.0, 0, 0});
    }
    for (std::int64_t d = 1; d <= scale_.districts_per_warehouse; ++d) {
      DistrictRow dr;
      dr.next_o_id =
          static_cast<std::int32_t>(scale_.initial_orders_per_district + 1);
      dr.ytd = 30'000.0;
      district.insert(key_wd(w, d), dr);
      for (std::int64_t c = 1; c <= scale_.customers_per_district; ++c) {
        customer.insert(key_wdc(w, d, c), CustomerRow{});
      }
      // Initial orders: the most recent ~1/3 are undelivered new-orders,
      // approximating the spec's initial 900 delivered / 900 pending split.
      for (std::int64_t o = 1; o <= scale_.initial_orders_per_district; ++o) {
        OrderRow orow;
        orow.c_id = static_cast<std::int32_t>(
            rng.uniform_int(1, scale_.customers_per_district));
        const bool delivered = o <= scale_.initial_orders_per_district * 2 / 3;
        orow.carrier_id =
            delivered ? static_cast<std::int8_t>(rng.uniform_int(1, 10)) : 0;
        orow.ol_cnt = static_cast<std::int8_t>(rng.uniform_int(5, 15));
        order.insert(key_wdo(w, d, o), orow);
        customer.find(key_wdc(w, d, orow.c_id))->last_o_id =
            static_cast<std::int32_t>(o);
        for (std::int64_t ol = 1; ol <= orow.ol_cnt; ++ol) {
          OrderLineRow line;
          line.i_id = static_cast<std::int32_t>(rng.uniform_int(1, scale_.items));
          line.supply_w = static_cast<std::int32_t>(w);
          line.quantity = 5;
          line.amount = delivered ? rng.uniform(0.01, 9'999.99) : 0.0;
          line.delivered = delivered;
          order_line.insert(key_wdool(w, d, o, ol), line);
        }
        if (!delivered) new_order.insert(key_wdo(w, d, o), NewOrderRow{});
      }
    }
  }
}

void TpccDatabase::build_ycsb(std::int64_t records) {
  ycsb = std::make_unique<Table<YcsbRow>>(TpccSpecs::ycsb);
  ycsb_records_ = records;
  for (std::int64_t k = 0; k < records; ++k) {
    ycsb->insert(key_ycsb(k), YcsbRow{});
  }
}

std::uint64_t TpccDatabase::total_data_pages() const {
  return warehouse.distinct_data_pages() + district.distinct_data_pages() +
         customer.distinct_data_pages() + history.distinct_data_pages() +
         new_order.distinct_data_pages() + order.distinct_data_pages() +
         order_line.distinct_data_pages() + item.distinct_data_pages() +
         stock.distinct_data_pages() + warehouse.distinct_index_pages() +
         district.distinct_index_pages() + customer.distinct_index_pages() +
         new_order.distinct_index_pages() + order.distinct_index_pages() +
         order_line.distinct_index_pages() + item.distinct_index_pages() +
         stock.distinct_index_pages() +
         (ycsb ? ycsb->distinct_data_pages() + ycsb->distinct_index_pages()
               : 0);
}

}  // namespace dclue::db
