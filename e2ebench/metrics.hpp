#pragma once

/// \file metrics.hpp
/// Named metric values, the result line every benchmark run ends with, and
/// the simulated per-layer statistics read from a RunReport.

#include <algorithm>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/report.hpp"

namespace e2ebench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// True for "node<digits><suffix>".
inline bool is_node_metric(std::string_view name, std::string_view suffix) {
  if (!name.starts_with("node") || name.size() <= 4 + suffix.size() ||
      !name.ends_with(suffix)) {
    return false;
  }
  const std::string_view mid = name.substr(4, name.size() - 4 - suffix.size());
  return std::all_of(mid.begin(), mid.end(), [](char c) { return c >= '0' && c <= '9'; });
}

/// The simulated statistics of one point over its measure window, by layer
/// (workload, cpu, db, cluster, net, storage). Times are the model's
/// unscaled milliseconds ("sim-ms"), not host time.
std::vector<Metric> simulated_metrics(const dclue::core::RunReport& r,
                                      const dclue::core::ClusterConfig& cfg);

/// One line of JSON: {"correct", "attempted", "failed", "metrics"}.
std::string result_json(bool correct, std::uint64_t attempted, std::uint64_t failed,
                        const std::vector<Metric>& metrics);

}  // namespace e2ebench
