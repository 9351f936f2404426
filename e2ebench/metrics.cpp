#include "metrics.hpp"

#include <cstdio>

namespace e2ebench {

using dclue::core::ClusterConfig;
using dclue::core::RunReport;

namespace {

double sum_node(const RunReport& r, std::string_view suffix) {
  double total = 0.0;
  for (const auto& m : r.registry.metrics) {
    if (is_node_metric(m.name, suffix)) total += m.value;
  }
  return total;
}

/// Count-weighted mean of the tallies whose names match.
template <typename Match>
double tally_mean(const RunReport& r, Match&& match) {
  double sum = 0.0, count = 0.0;
  for (const auto& m : r.registry.metrics) {
    if (!match(std::string_view(m.name))) continue;
    sum += m.mean * static_cast<double>(m.count);
    count += static_cast<double>(m.count);
  }
  return count > 0 ? sum / count : 0.0;
}

}  // namespace

std::vector<Metric> simulated_metrics(const RunReport& r, const ClusterConfig& cfg) {
  const double txns = std::max(r.txns, 1.0);
  const double to_ms = 1e3 / cfg.scale;  // scaled seconds -> unscaled ms
  const double router_delay = tally_mean(r, [](std::string_view n) {
    return n.starts_with("fabric.router.") && n.ends_with(".forwarding_delay");
  });
  const double log_latency = tally_mean(
      r, [](std::string_view n) { return is_node_metric(n, ".disk.log.latency"); });
  return {
      {"workload.txn_rate", r.txn_rate, "txn/sim-s"},
      {"workload.tpmc", r.tpmc, "tpmC"},
      {"workload.txn_ms", r.txn_ms, "sim-ms"},
      {"workload.ycsb_op_rate", r.ycsb_op_rate, "ops/sim-s"},
      {"workload.sojourn_p50_ms", r.sojourn_p50_ms, "sim-ms"},
      {"workload.sojourn_p99_ms", r.sojourn_p99_ms, "sim-ms"},
      {"cpu.utilization", r.cpu_utilization, "ratio"},
      {"cpu.cpi", r.avg_cpi, "cycles/instr"},
      {"cpu.context_switch_cycles", r.avg_context_switch_cycles, "cycles"},
      {"cpu.active_threads", r.avg_active_threads, "threads"},
      {"db.buffer_hit_ratio", r.buffer_hit_ratio, "ratio"},
      {"db.lock_waits_per_txn", r.lock_waits_per_txn, "waits/txn"},
      {"db.lock_wait_ms", r.lock_wait_time_ms, "sim-ms"},
      {"db.abort_rate", r.abort_rate, "ratio"},
      {"db.disk_reads_per_txn", r.disk_reads_per_txn, "reads/txn"},
      {"cluster.ipc_control_per_txn", r.ipc_control_per_txn, "msgs/txn"},
      {"cluster.ipc_data_per_txn", r.ipc_data_per_txn, "msgs/txn"},
      {"cluster.remote_fetch_per_txn", r.remote_fetch_per_txn, "fetches/txn"},
      {"cluster.control_msg_delay_ms", r.control_msg_delay_ms, "sim-ms"},
      {"net.tcp_segments_per_txn", sum_node(r, ".tcp.segments_sent") / txns, "segments/txn"},
      {"net.tcp_retransmits", sum_node(r, ".tcp.retransmits"), "count"},
      {"net.tcp_rto_fires", sum_node(r, ".tcp.rto_fires"), "count"},
      {"net.router_delay_ms", router_delay * to_ms, "sim-ms"},
      {"net.fabric_drops", static_cast<double>(r.fabric_drops), "count"},
      {"storage.iscsi_reads_per_txn", sum_node(r, ".disk.iscsi_reads") / txns, "reads/txn"},
      {"storage.log_latency_ms", log_latency * to_ms, "sim-ms"},
  };
}

std::string result_json(bool correct, std::uint64_t attempted, std::uint64_t failed,
                        const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", metrics[i].value);
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + value + ", \"unit\": \"" +
           metrics[i].unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace e2ebench
