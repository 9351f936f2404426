#pragma once

/// \file checks.hpp
/// Output checks against properties the model must have (not against stored
/// output), the simulated-statistics digest, and operation accounting. Each
/// check returns an empty string when it holds and a one-line reason when it
/// does not, so the self-test can show every check failing on a broken input.

#include <cstdint>
#include <string>
#include <vector>

#include "core/cluster.hpp"

namespace e2ebench {

// --- TPC-C consistency conditions on the final database --------------------
std::string check_warehouse_ytd(dclue::db::TpccDatabase& db);
std::string check_next_order_id(dclue::db::TpccDatabase& db);
std::string check_order_line_count(dclue::db::TpccDatabase& db);
std::string check_stock_nonnegative(dclue::db::TpccDatabase& db);
std::string check_history_rows(dclue::db::TpccDatabase& db);

/// Closed-loop Little's law at affinity 1.0: terminals / (think time +
/// transaction time) matches the committed transaction rate within four
/// standard errors of the measured rate (relative error 1/sqrt(txns)). The
/// form is approximate: think time comes once per business transaction
/// (about 2.3 transactions) and client-side time per transaction is left
/// out, and the two largely cancel. Over 80 seeds at 8 nodes the ratio's
/// relative spread was 2.8 % at about 1,070 txns, close to 1/sqrt(txns).
std::string check_littles_law(const dclue::core::ClusterConfig& cfg,
                              const dclue::core::RunReport& r);
inline constexpr double kLittleStandardErrors = 4.0;

/// The affinity sweep: throughput falls as affinity falls (rates are listed
/// in order of falling affinity).
std::string check_throughput_falls(const std::vector<double>& txn_rates);

// --- YCSB ---------------------------------------------------------------------

/// What the YCSB checks read from one finished run.
struct YcsbSummary {
  double read_share_expected = 0.0;
  std::uint64_t reads = 0;
  std::uint64_t other_ops = 0;       ///< updates, inserts, scans, rmw
  double completions = 0.0;          ///< measure window
  double completions_expected = 0.0; ///< Poisson mean for rate x window
  double max_queue_depth = 0.0;
  std::uint64_t rows = 0;
  std::uint64_t records = 0;
  std::vector<double> node_ops;      ///< measure window, by node
  int shifts = 0;
};

YcsbSummary summarize_ycsb(dclue::core::Cluster& cluster,
                           const dclue::core::RunReport& r);
std::string check_read_share(const YcsbSummary& s);
std::string check_poisson_completions(const YcsbSummary& s);
std::string check_queue_bounded(const YcsbSummary& s);
std::string check_row_count(const YcsbSummary& s);
std::string check_busiest_partitions(const YcsbSummary& s);

/// Every check that applies to one finished point, in a fixed order.
std::vector<std::string> check_point(dclue::core::Cluster& cluster,
                                     const dclue::core::RunReport& r);

// --- determinism and accounting -------------------------------------------

/// FNV-1a over every RunReport field and every registry metric (all
/// statistics of the snapshot), skipping the wall-clock-dependent "shard."
/// window-protocol gauges.
std::uint64_t digest(const dclue::core::RunReport& r);
std::uint64_t digest_combine(std::uint64_t acc, std::uint64_t d);

struct Ops {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};
/// TPC-C: business transactions issued (completed plus lost to client
/// connection failures), failed = the connection failures. YCSB: arrivals,
/// failed = admission drops plus connection failures. Whole run.
Ops count_ops(dclue::core::Cluster& cluster);

/// Shows each check above passing on a real run and failing on a broken
/// copy of its input. Returns the number of checks that misbehaved.
int selftest(std::uint64_t seed);

}  // namespace e2ebench
