#pragma once

/// \file workloads.hpp
/// The benchmark's named workloads. Each is a fixed list of cluster
/// configurations ("points") run serially in one process; only the
/// simulation seed comes from the command line.

#include <cstdint>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/config.hpp"

namespace e2ebench {

struct Point {
  std::string label;
  dclue::core::ClusterConfig cfg;
};

struct Workload {
  std::string name;
  std::vector<Point> points;
  /// Index of the point whose simulated statistics the traced run reports
  /// under the un-suffixed per-layer names (the sweep's lowest affinity).
  [[nodiscard]] const Point& reference() const { return points.back(); }
};

/// Warmup long enough that closed-loop TPC-C throughput has stopped falling
/// (see README: 8 nodes read 148.8 txn/sim-s after 2 s but ~103 after 8 s).
inline constexpr double kTpccWarmup = 8.0;
inline constexpr double kTpccMeasure = 10.0;

inline dclue::core::ClusterConfig tpcc_point(int nodes, double affinity,
                                             std::uint64_t seed) {
  dclue::core::ClusterConfig cfg;
  cfg.nodes = nodes;
  cfg.affinity = affinity;
  cfg.warmup = kTpccWarmup;
  cfg.measure = kTpccMeasure;
  cfg.seed = seed;
  return cfg;
}

inline dclue::core::ClusterConfig ycsb_b_shift_point(std::uint64_t seed) {
  dclue::core::ClusterConfig cfg;
  cfg.nodes = 8;
  cfg.affinity = 1.0;
  cfg.workload_spec = "ycsb-b";
  cfg.ycsb_theta = 0.99;
  cfg.ycsb_records = 1'000'000;
  // 15 ops per node per scaled second is carried without backlog; the
  // default poisson:400 collapses the cluster (README, "Findings").
  cfg.ycsb_arrival = "poisson:15";
  cfg.ycsb_shift = 4;
  cfg.warmup = 8.0;
  cfg.measure = 600.0;
  cfg.seed = seed;
  return cfg;
}

inline const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"tpcc-24n", "tpcc-8n-affinity",
                                                 "ycsb-b-shift"};
  return names;
}

inline Workload make_workload(const std::string& name, std::uint64_t seed) {
  Workload w;
  w.name = name;
  if (name == "tpcc-24n") {
    w.points.push_back({"a1.00", tpcc_point(24, 1.0, seed)});
  } else if (name == "tpcc-8n-affinity") {
    for (double a : {1.0, 0.75, 0.5}) {
      char label[16];
      std::snprintf(label, sizeof label, "a%.2f", a);
      w.points.push_back({label, tpcc_point(8, a, seed)});
    }
  } else if (name == "ycsb-b-shift") {
    w.points.push_back({"ycsb-b", ycsb_b_shift_point(seed)});
  } else {
    throw std::invalid_argument("unknown workload: " + name);
  }
  return w;
}

}  // namespace e2ebench
