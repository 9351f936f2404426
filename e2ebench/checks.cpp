#include "checks.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string_view>

#include "metrics.hpp"
#include "workload/ycsb.hpp"
#include "workloads.hpp"

namespace e2ebench {

using dclue::core::Cluster;
using dclue::core::ClusterConfig;
using dclue::core::RunReport;
namespace db = dclue::db;

namespace {

template <typename... Args>
std::string format(const char* fmt, Args... args) {
  char buf[256];
  std::snprintf(buf, sizeof buf, fmt, args...);
  return buf;
}

int node_of(std::string_view name) { return std::atoi(name.data() + 4); }

}  // namespace

// --- TPC-C -------------------------------------------------------------------

std::string check_warehouse_ytd(db::TpccDatabase& db) {
  const auto& sc = db.scale();
  for (std::int64_t w = 1; w <= sc.warehouses; ++w) {
    const double w_ytd = db.warehouse.find(db::key_w(w))->ytd;
    double d_ytd = 0.0;
    for (std::int64_t d = 1; d <= sc.districts_per_warehouse; ++d) {
      d_ytd += db.district.find(db::key_wd(w, d))->ytd;
    }
    if (std::abs(w_ytd - d_ytd) > 1e-9 * std::max(1.0, std::abs(w_ytd))) {
      return format("W_YTD != sum(D_YTD) at w=%lld: %.6f vs %.6f",
                    static_cast<long long>(w), w_ytd, d_ytd);
    }
  }
  return {};
}

std::string check_next_order_id(db::TpccDatabase& db) {
  const auto& sc = db.scale();
  for (std::int64_t w = 1; w <= sc.warehouses; ++w) {
    for (std::int64_t d = 1; d <= sc.districts_per_warehouse; ++d) {
      const std::int64_t next = db.district.find(db::key_wd(w, d))->next_o_id;
      const bool last_present =
          next > 1 && db.order.find(db::key_wdo(w, d, next - 1)) != nullptr;
      const bool beyond = db.order
                              .first_key_in_range(db::key_wdo(w, d, next),
                                                  db::key_wdo(w, d + 1, 0))
                              .has_value();
      if (!last_present || beyond) {
        return format("D_NEXT_O_ID-1 != max(O_ID) at w=%lld d=%lld (next %lld)",
                      static_cast<long long>(w), static_cast<long long>(d),
                      static_cast<long long>(next));
      }
    }
  }
  return {};
}

std::string check_order_line_count(db::TpccDatabase& db) {
  std::uint64_t ol_cnt = 0;
  for (auto it = db.order.lower_bound(0); it.valid(); it.next()) {
    ol_cnt += static_cast<std::uint64_t>(db.order.row(it.value()).ol_cnt);
  }
  if (ol_cnt != db.order_line.size()) {
    return format("sum(O_OL_CNT) %llu != order-line rows %llu",
                  static_cast<unsigned long long>(ol_cnt),
                  static_cast<unsigned long long>(db.order_line.size()));
  }
  return {};
}

std::string check_stock_nonnegative(db::TpccDatabase& db) {
  for (auto it = db.stock.lower_bound(0); it.valid(); it.next()) {
    if (db.stock.row(it.value()).quantity < 0) {
      return format("negative stock quantity at key %llu",
                    static_cast<unsigned long long>(it.key()));
    }
  }
  return {};
}

std::string check_history_rows(db::TpccDatabase& db) {
  if (db.history.size() != db.next_history_id) {
    return format("history rows %llu != history ids issued %llu",
                  static_cast<unsigned long long>(db.history.size()),
                  static_cast<unsigned long long>(db.next_history_id));
  }
  return {};
}

std::string check_littles_law(const ClusterConfig& cfg, const RunReport& r) {
  // txn_ms is in unscaled ms; the closed loop runs in scaled seconds.
  const double terminals = static_cast<double>(cfg.nodes * cfg.terminals_per_node);
  const double cycle = cfg.think_time * cfg.scale + r.txn_ms * 1e-3 * cfg.scale;
  const double predicted = terminals / cycle;
  // Four standard errors of a rate measured over r.txns transactions.
  const double tolerance = kLittleStandardErrors / std::sqrt(std::max(r.txns, 1.0));
  if (!(std::abs(predicted / r.txn_rate - 1.0) <= tolerance)) {
    return format("Little's law: terminals/(think+txn) = %.2f vs txn_rate %.2f (tolerance %.1f%%)",
                  predicted, r.txn_rate, tolerance * 100.0);
  }
  return {};
}

std::string check_throughput_falls(const std::vector<double>& txn_rates) {
  for (std::size_t i = 1; i < txn_rates.size(); ++i) {
    if (!(txn_rates[i] < txn_rates[i - 1])) {
      return format("throughput did not fall with affinity: point %zu %.2f >= %.2f",
                    i, txn_rates[i], txn_rates[i - 1]);
    }
  }
  return {};
}

// --- YCSB ---------------------------------------------------------------------

YcsbSummary summarize_ycsb(Cluster& cluster, const RunReport& r) {
  const ClusterConfig& cfg = cluster.config();
  const auto spec = dclue::workload::make_ycsb_spec(cfg);
  const auto arrival = dclue::workload::parse_arrival_spec(cfg.ycsb_arrival);
  YcsbSummary s;
  s.read_share_expected =
      spec.mix.weights[static_cast<int>(dclue::workload::YcsbOpType::kRead)];
  s.completions = r.ycsb_ops;
  s.completions_expected = arrival.rate * cfg.nodes * cfg.measure;
  s.rows = cluster.database().ycsb ? cluster.database().ycsb->size() : 0;
  s.records = static_cast<std::uint64_t>(cfg.ycsb_records);
  s.shifts = spec.shift;
  s.node_ops.assign(static_cast<std::size_t>(cfg.nodes), 0.0);
  for (const auto& m : r.registry.metrics) {
    for (int op = 0; op < dclue::workload::kNumYcsbOpTypes; ++op) {
      const std::string suffix = std::string(".ycsb.") + dclue::workload::kYcsbOpNames[op];
      if (!is_node_metric(m.name, suffix)) continue;
      const auto n = static_cast<std::uint64_t>(m.value);
      (op == static_cast<int>(dclue::workload::YcsbOpType::kRead) ? s.reads
                                                                 : s.other_ops) += n;
      s.node_ops[static_cast<std::size_t>(node_of(m.name))] += m.value;
    }
  }
  for (int h = 0; h < cluster.num_ycsb_fleets(); ++h) {
    s.max_queue_depth = std::max(
        s.max_queue_depth, static_cast<double>(cluster.ycsb_fleet(h).queue_max_depth()));
  }
  return s;
}

std::string check_read_share(const YcsbSummary& s) {
  const double n = static_cast<double>(s.reads + s.other_ops);
  const double p = s.read_share_expected;
  const double share = n > 0 ? static_cast<double>(s.reads) / n : 0.0;
  const double sigma = std::sqrt(p * (1.0 - p) / std::max(n, 1.0));
  if (!(n > 0 && std::abs(share - p) <= 4.0 * sigma)) {
    return format("read share %.5f outside 4 sigma (%.5f) of %.2f over %.0f ops",
                  share, sigma, p, n);
  }
  return {};
}

std::string check_poisson_completions(const YcsbSummary& s) {
  const double mean = s.completions_expected;
  if (!(std::abs(s.completions - mean) <= 4.0 * std::sqrt(mean))) {
    return format("completions %.0f outside 4 sigma of Poisson mean %.0f",
                  s.completions, mean);
  }
  return {};
}

std::string check_queue_bounded(const YcsbSummary& s) {
  // Ops queue for admission only once the in-service cap is full, so at a
  // carried rate no op ever waits: any queue at all means the cluster has
  // stopped carrying the offered load.
  if (s.max_queue_depth != 0.0) {
    return format("client admission queue reached %.0f (expected 0)", s.max_queue_depth);
  }
  return {};
}

std::string check_row_count(const YcsbSummary& s) {
  if (s.rows != s.records) {
    return format("ycsb rows %llu != records %llu",
                  static_cast<unsigned long long>(s.rows),
                  static_cast<unsigned long long>(s.records));
  }
  return {};
}

std::string check_busiest_partitions(const YcsbSummary& s) {
  // The hotspot visits one node partition per shift epoch; the nodes that
  // held it execute more than the mean, the others far less.
  double total = 0.0;
  for (double v : s.node_ops) total += v;
  const double mean = total / static_cast<double>(std::max<std::size_t>(s.node_ops.size(), 1));
  const auto busy = std::count_if(s.node_ops.begin(), s.node_ops.end(),
                                  [mean](double v) { return v > mean; });
  if (busy != s.shifts + 1) {
    return format("%ld busy node partitions, expected shifts+1 = %d",
                  static_cast<long>(busy), s.shifts + 1);
  }
  return {};
}

std::vector<std::string> check_point(Cluster& cluster, const RunReport& r) {
  std::vector<std::string> out;
  auto add = [&out](std::string why) {
    if (!why.empty()) out.push_back(std::move(why));
  };
  const ClusterConfig& cfg = cluster.config();
  if (dclue::workload::is_ycsb(cfg.workload_spec)) {
    const YcsbSummary s = summarize_ycsb(cluster, r);
    add(check_read_share(s));
    add(check_poisson_completions(s));
    add(check_queue_bounded(s));
    add(check_row_count(s));
    add(check_busiest_partitions(s));
    return out;
  }
  auto& db = cluster.database();
  add(check_warehouse_ytd(db));
  add(check_next_order_id(db));
  add(check_order_line_count(db));
  add(check_stock_nonnegative(db));
  // Sharded runs mint history ids per warehouse, not from the counter.
  if (!cluster.sharded()) add(check_history_rows(db));
  if (cfg.affinity == 1.0) add(check_littles_law(cfg, r));
  return out;
}

// --- determinism and accounting -------------------------------------------

namespace {

constexpr std::uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

void fnv_bytes(std::uint64_t& h, const void* p, std::size_t n) {
  const auto* b = static_cast<const unsigned char*>(p);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= b[i];
    h *= kFnvPrime;
  }
}
void fnv_str(std::uint64_t& h, std::string_view s) { fnv_bytes(h, s.data(), s.size()); }
void fnv_double(std::uint64_t& h, double v) { fnv_bytes(h, &v, sizeof v); }
void fnv_u64(std::uint64_t& h, std::uint64_t v) { fnv_bytes(h, &v, sizeof v); }

}  // namespace

std::uint64_t digest(const RunReport& r) {
  std::uint64_t h = kFnvOffset;
  dclue::core::for_each_field(
      r,
      [&h](const char* name, double v) {
        fnv_str(h, name);
        fnv_double(h, v);
      },
      [&h](const char* name, std::uint64_t v) {
        fnv_str(h, name);
        fnv_u64(h, v);
      });
  for (const auto& m : r.registry.metrics) {
    if (m.name.starts_with("shard.")) continue;
    fnv_str(h, m.name);
    fnv_u64(h, static_cast<std::uint64_t>(m.kind));
    fnv_u64(h, m.count);
    for (double v : {m.value, m.sum, m.mean, m.min, m.max, m.stddev, m.p50, m.p95, m.p99}) {
      fnv_double(h, v);
    }
  }
  return h;
}

std::uint64_t digest_combine(std::uint64_t acc, std::uint64_t d) {
  fnv_u64(acc, d);
  return acc;
}

Ops count_ops(Cluster& cluster) {
  Ops ops;
  for (int h = 0; h < cluster.num_fleets(); ++h) {
    auto& f = cluster.fleet(h);
    ops.attempted += f.business_txns_completed() + f.connection_failures();
    ops.failed += f.connection_failures();
  }
  for (int h = 0; h < cluster.num_ycsb_fleets(); ++h) {
    auto& f = cluster.ycsb_fleet(h);
    ops.attempted += f.arrivals();
    ops.failed += f.admission_drops() + f.connection_failures();
  }
  return ops;
}

// --- self-test -----------------------------------------------------------------

namespace {

struct SelfTest {
  int bad = 0;
  /// A check must hold on the clean input and fail on the broken one.
  template <typename Clean, typename Broken>
  void expect(const char* what, Clean&& clean, Broken&& broken) {
    const std::string c = clean();
    const std::string b = broken();
    const bool ok = c.empty() && !b.empty();
    if (!ok) ++bad;
    std::printf("selftest %-28s %s  clean: %s | broken: %s\n", what,
                ok ? "ok  " : "FAIL", c.empty() ? "holds" : c.c_str(),
                b.empty() ? "holds (check cannot fail)" : b.c_str());
  }
};

}  // namespace

int selftest(std::uint64_t seed) {
  SelfTest t;

  // TPC-C: every point of the affinity sweep, database checks on the first.
  const Workload sweep = make_workload("tpcc-8n-affinity", seed);
  std::vector<double> rates;
  for (const Point& p : sweep.points) {
    Cluster cluster(p.cfg);
    const RunReport r = cluster.run();
    rates.push_back(r.txn_rate);
    if (p.cfg.affinity != 1.0) continue;
    auto& db = cluster.database();
    auto* district = db.district.find(db::key_wd(1, 1));
    t.expect("W_YTD = sum(D_YTD)", [&] { return check_warehouse_ytd(db); },
             [&] {
               district->ytd += 1.0;
               std::string why = check_warehouse_ytd(db);
               district->ytd -= 1.0;
               return why;
             });
    t.expect("D_NEXT_O_ID-1 = max(O_ID)", [&] { return check_next_order_id(db); },
             [&] {
               ++district->next_o_id;
               std::string why = check_next_order_id(db);
               --district->next_o_id;
               return why;
             });
    t.expect("sum(O_OL_CNT) = OL rows", [&] { return check_order_line_count(db); },
             [&] {
               const db::Key k = db::key_wdool(1, 1, 1, 1);
               const db::OrderLineRow saved = *db.order_line.find(k);
               db.order_line.erase(k);
               std::string why = check_order_line_count(db);
               db.order_line.insert(k, saved);
               return why;
             });
    t.expect("stock >= 0", [&] { return check_stock_nonnegative(db); },
             [&] {
               auto* stock = db.stock.find(db::key_wi(1, 1));
               const auto saved = stock->quantity;
               stock->quantity = -1;
               std::string why = check_stock_nonnegative(db);
               stock->quantity = saved;
               return why;
             });
    t.expect("history rows = ids", [&] { return check_history_rows(db); },
             [&] {
               ++db.next_history_id;
               std::string why = check_history_rows(db);
               --db.next_history_id;
               return why;
             });
    t.expect("Little's law", [&] { return check_littles_law(p.cfg, r); },
             [&] {
               RunReport skewed = r;
               skewed.txn_rate *= 1.2;
               return check_littles_law(p.cfg, skewed);
             });
    t.expect("digest covers the registry",
             [&] { return digest(r) == digest(r) ? std::string{} : "unstable"; },
             [&] {
               RunReport bumped = r;
               auto& v = bumped.registry.metrics.front().value;
               v = std::nextafter(v, 1e300);
               return digest(bumped) == digest(r) ? std::string{}
                                                  : "digest moved by one ulp";
             });
  }
  t.expect("throughput falls with affinity", [&] { return check_throughput_falls(rates); },
           [&] {
             std::vector<double> reversed(rates.rbegin(), rates.rend());
             return check_throughput_falls(reversed);
           });

  // YCSB.
  const Workload ycsb = make_workload("ycsb-b-shift", seed);
  Cluster cluster(ycsb.points.front().cfg);
  const RunReport r = cluster.run();
  const YcsbSummary s = summarize_ycsb(cluster, r);
  auto broken = [&s](auto&& mutate, auto&& check) {
    return [&s, mutate, check] {
      YcsbSummary b = s;
      mutate(b);
      return check(b);
    };
  };
  t.expect("read share", [&] { return check_read_share(s); },
           broken(
               [](YcsbSummary& b) {
                 const std::uint64_t moved = b.reads / 20;
                 b.reads -= moved;
                 b.other_ops += moved;
               },
               check_read_share));
  t.expect("Poisson completions", [&] { return check_poisson_completions(s); },
           broken([](YcsbSummary& b) { b.completions *= 0.97; },
                  check_poisson_completions));
  t.expect("queue bounded", [&] { return check_queue_bounded(s); },
           broken([](YcsbSummary& b) { b.max_queue_depth = 18'500; },
                  check_queue_bounded));
  t.expect("row count", [&] { return check_row_count(s); },
           broken([](YcsbSummary& b) { ++b.rows; }, check_row_count));
  t.expect("busiest partitions", [&] { return check_busiest_partitions(s); },
           broken(
               [](YcsbSummary& b) {
                 double total = 0.0;
                 for (double v : b.node_ops) total += v;
                 b.node_ops.assign(b.node_ops.size(),
                                   total / static_cast<double>(b.node_ops.size()));
               },
               check_busiest_partitions));
  return t.bad;
}

}  // namespace e2ebench
