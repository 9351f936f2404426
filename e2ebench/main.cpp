// End-to-end simulator benchmark: runs one named workload at one seed,
// times the public calls that build and run a cluster, checks the outputs
// and prints one JSON result line last.
//
//   e2ebench --workload tpcc-24n --seed 1
//       one untraced round of the workload: its end-to-end metrics (wall_s,
//       setup_s, sim_rate) and the process's peak RSS. run.py repeats
//       rounds, one process each, and reports the medians.
//   e2ebench_traced --workload tpcc-24n --seed 1 --trace-out spans.json
//       one traced round (spans + allocation counts), then the per-layer
//       extras; the spans are written to --trace-out at the end.
//   e2ebench --selftest
//       shows every output check failing on a deliberately broken input.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "alloc_hook.hpp"
#include "checks.hpp"
#include "core/cluster.hpp"
#include "metrics.hpp"
#include "workload/ycsb.hpp"
#include "workloads.hpp"

namespace e2ebench {
namespace {

using Clock = std::chrono::steady_clock;
using dclue::core::Cluster;
using dclue::core::ClusterConfig;
using dclue::core::RunReport;

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

/// Spans recorded around the benchmark's calls into the program, kept in
/// memory and written out as a Chrome trace at the end of the run.
class SpanLog {
 public:
  struct Span {
    std::string name;
    double start_us = 0.0;
    double end_us = 0.0;
    int parent = -1;
  };

  int open(std::string name, int parent) {
    spans_.push_back({std::move(name), now_us(), 0.0, parent});
    return static_cast<int>(spans_.size()) - 1;
  }
  /// Closes span \p id and returns its duration in seconds.
  double close(int id) {
    Span& s = spans_[static_cast<std::size_t>(id)];
    s.end_us = now_us();
    return (s.end_us - s.start_us) * 1e-6;
  }

  bool write(const std::string& path, const std::string& extra_json) const {
    std::ofstream out(path);
    out << "{\"traceEvents\": [\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      char line[512];
      std::snprintf(line, sizeof line,
                    "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, "
                    "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %zu, \"parent\": %d}}",
                    i > 0 ? ",\n" : "", s.name.c_str(), s.start_us,
                    s.end_us - s.start_us, i, s.parent);
      out << line;
    }
    out << "\n],\n\"displayTimeUnit\": \"ms\",\n" << extra_json << "}\n";
    return static_cast<bool>(out);
  }

 private:
  double now_us() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - origin_).count();
  }
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
};

/// Times one call; records a span too when a log is given.
class Timed {
 public:
  Timed(SpanLog* log, std::string name, int parent)
      : log_(log), t0_(Clock::now()), id_(log ? log->open(std::move(name), parent) : -1) {}
  double stop() {
    if (log_ != nullptr) return log_->close(id_);
    return std::chrono::duration<double>(Clock::now() - t0_).count();
  }
  [[nodiscard]] int id() const { return id_; }

 private:
  SpanLog* log_;
  Clock::time_point t0_;
  int id_;
};

struct PointResult {
  double setup_s = 0.0;
  double run_s = 0.0;
  double sim_s = 0.0;
  std::uint64_t events = 0;
  std::uint64_t allocs_setup = 0;
  std::uint64_t allocs_run = 0;
  RunReport report;
  Ops ops;
  std::vector<std::string> failures;
};

PointResult run_point(const Point& p, SpanLog* log, int parent) {
  PointResult out;
  const std::uint64_t a0 = allocations();
  Timed build(log, "core.Cluster::Cluster " + p.label, parent);
  Cluster cluster(p.cfg);
  out.setup_s = build.stop();
  const std::uint64_t a1 = allocations();
  Timed run(log, "core.Cluster::run " + p.label, parent);
  out.report = cluster.run();
  out.run_s = run.stop();
  out.allocs_setup = a1 - a0;
  out.allocs_run = allocations() - a1;
  out.sim_s = p.cfg.warmup + p.cfg.measure;
  out.events = cluster.engine().events_executed();
  out.failures = check_point(cluster, out.report);
  out.ops = count_ops(cluster);
  return out;
}

struct RoundResult {
  double setup_s = 0.0;
  double run_s = 0.0;
  double sim_s = 0.0;
  std::uint64_t events = 0;
  std::uint64_t allocs_setup = 0;
  std::uint64_t digest = 0;
  Ops ops;
  std::vector<std::string> failures;
  std::vector<PointResult> points;

  [[nodiscard]] double wall_s() const { return setup_s + run_s; }
  [[nodiscard]] double sim_rate() const { return sim_s / run_s; }
};

/// One round: every point of the workload in order. \p around runs right
/// before each point's construction and again right after its run, outside
/// the point's timed calls.
RoundResult run_round(const Workload& w, SpanLog* log,
                      const std::function<void(const Point&, int)>& around = {}) {
  RoundResult out;
  Timed round(log, "round " + w.name, -1);
  std::vector<double> rates;
  for (const Point& p : w.points) {
    if (around) around(p, round.id());
    PointResult r = run_point(p, log, round.id());
    if (around) around(p, round.id());
    out.setup_s += r.setup_s;
    out.run_s += r.run_s;
    out.sim_s += r.sim_s;
    out.events += r.events;
    out.allocs_setup += r.allocs_setup;
    out.digest = digest_combine(out.digest, digest(r.report));
    out.ops.attempted += r.ops.attempted;
    out.ops.failed += r.ops.failed;
    for (auto& f : r.failures) out.failures.push_back(p.label + ": " + f);
    rates.push_back(r.report.txn_rate);
    out.points.push_back(std::move(r));
  }
  if (w.points.size() > 1) {
    if (std::string why = check_throughput_falls(rates); !why.empty()) {
      out.failures.push_back(why);
    }
  }
  round.stop();
  return out;
}

void print_round(const RoundResult& r) {
  std::printf("round: setup %.3f s, run %.3f s, wall %.3f s, %.3f sim-s/s, "
              "%llu events, digest %016llx\n",
              r.setup_s, r.run_s, r.wall_s(), r.sim_rate(),
              static_cast<unsigned long long>(r.events),
              static_cast<unsigned long long>(r.digest));
}

void print_points(const Workload& w, const RoundResult& r) {
  for (std::size_t i = 0; i < w.points.size(); ++i) {
    const RunReport& rep = r.points[i].report;
    std::printf("  point %s: txn_rate %.2f txn/sim-s, txn %.2f ms, tpmC %.0f, "
                "ycsb %.0f ops, sojourn p50/p99 %.2f/%.2f ms, cpu %.3f\n",
                w.points[i].label.c_str(), rep.txn_rate, rep.txn_ms, rep.tpmc,
                rep.ycsb_ops, rep.sojourn_p50_ms, rep.sojourn_p99_ms,
                rep.cpu_utilization);
  }
}

std::vector<Metric> end_to_end(const RoundResult& r, double rss_mb) {
  return {{"wall_s", r.wall_s(), "s"},
          {"setup_s", r.setup_s, "s"},
          {"sim_rate", r.sim_rate(), "sim-s/s"},
          {"peak_rss_mb", rss_mb, "MB"}};
}

/// Untraced measurement of one round. Each round runs in a fresh process, so
/// peak RSS and allocator state belong to that round alone; run.py repeats
/// rounds and reports medians.
[[maybe_unused]] int measure(const Workload& w) {
  const RoundResult round = run_round(w, nullptr);
  print_round(round);
  print_points(w, round);
  for (const auto& f : round.failures) std::printf("CHECK FAILED: %s\n", f.c_str());
  std::printf("digest %016llx\n", static_cast<unsigned long long>(round.digest));
  const bool correct = round.failures.empty();
  std::printf("%s\n", result_json(correct, round.ops.attempted, round.ops.failed,
                                  end_to_end(round, peak_rss_mb()))
                          .c_str());
  return correct ? 0 : 1;
}

dclue::db::TpccScale scale_of(const ClusterConfig& cfg) {
  dclue::db::TpccScale scale;
  scale.warehouses = cfg.warehouses();
  scale.customers_per_district = cfg.customers_per_district;
  scale.items = cfg.items;
  scale.district_subpage_override = cfg.district_subpage_bytes;
  return scale;
}

/// Traced run: one round with spans and allocation counts, each point
/// bracketed by standalone replicas of the database calls its construction
/// makes; then a longer-window run of the reference point for steady-state
/// allocations, and the first point at 4 shards stepped serially and in
/// parallel.
[[maybe_unused]] int traced(const Workload& w, const std::string& trace_out) {
  SpanLog log;
  std::vector<std::string> failures;
  // The database layer outside construction: right before each point is
  // built and again right after it has run, the same calls with the same
  // scale and RNG stream as Cluster::Cluster makes them, on a standalone
  // database. Each call counts with the smaller of its two timings, so a
  // slow moment of the host on one side does not land in the difference
  // that gives construction self time.
  struct DbTimes {
    double populate = 0.0, build_ycsb = 0.0, pages = 0.0;
  };
  DbTimes db_s;
  std::optional<DbTimes> first;
  auto replicas = [&](const Point& p, int parent) {
    DbTimes t;
    const int layers = log.open("db replicas " + p.label, parent);
    dclue::db::TpccDatabase db(scale_of(p.cfg));
    dclue::sim::Rng rng = dclue::sim::RngFactory(p.cfg.seed).stream("populate");
    Timed populate(&log, "db.TpccDatabase::populate", layers);
    db.populate(rng);
    t.populate = populate.stop();
    if (dclue::workload::is_ycsb(p.cfg.workload_spec)) {
      Timed ycsb(&log, "db.TpccDatabase::build_ycsb", layers);
      db.build_ycsb(p.cfg.ycsb_records);
      t.build_ycsb = ycsb.stop();
    }
    // Node construction sizes each node's cache from this call.
    Timed pages(&log, "db.TpccDatabase::total_data_pages x nodes", layers);
    std::uint64_t sink = 0;
    for (int n = 0; n < p.cfg.nodes; ++n) sink += db.total_data_pages();
    t.pages = pages.stop();
    if (sink == 0) failures.push_back("total_data_pages returned 0");
    log.close(layers);
    if (!first) {
      first = t;
      return;
    }
    db_s.populate += std::min(first->populate, t.populate);
    db_s.build_ycsb += std::min(first->build_ycsb, t.build_ycsb);
    db_s.pages += std::min(first->pages, t.pages);
    first.reset();
  };
  const RoundResult round = run_round(w, &log, replicas);
  const double rss = peak_rss_mb();
  print_round(round);
  print_points(w, round);
  failures.insert(failures.end(), round.failures.begin(), round.failures.end());
  // Construction self time: the construction spans minus the database
  // builds Cluster::Cluster calls directly. TPC-C workloads never call
  // build_ycsb, so db.build_ycsb_s is 0 there.
  const double cluster_self = round.setup_s - db_s.populate - db_s.build_ycsb;

  // Steady-state allocations per committed txn: the reference point with a
  // doubled measure window, differenced against the traced round.
  const Point& ref = w.reference();
  const PointResult& ref_round = round.points.back();
  Point longer = ref;
  longer.cfg.measure *= 2.0;
  longer.label += " measure x2";
  const int alloc_span = log.open("alloc window", -1);
  const PointResult long_run = run_point(longer, &log, alloc_span);
  log.close(alloc_span);
  const double alloc_per_txn =
      static_cast<double>(long_run.allocs_run - ref_round.allocs_run) /
      std::max(long_run.report.txns - ref_round.report.txns, 1.0);
  for (const auto& f : long_run.failures) failures.push_back(longer.label + ": " + f);

  // Sharded reference: the first point at 4 shards, serial then parallel.
  double shard_s[2] = {0.0, 0.0};
  std::uint64_t shard_digest[2] = {0, 0};
  const int shard_span = log.open("shards=4", -1);
  for (int parallel = 0; parallel < 2; ++parallel) {
    Point sp = w.points.front();
    sp.cfg.affinity = 1.0;
    sp.cfg.shards = 4;
    sp.cfg.shard_parallel = parallel == 1;
    sp.label += parallel == 1 ? " shards=4 parallel" : " shards=4 serial";
    const PointResult r = run_point(sp, &log, shard_span);
    shard_s[parallel] = r.run_s;
    shard_digest[parallel] = digest(r.report);
    for (const auto& f : r.failures) failures.push_back(sp.label + ": " + f);
  }
  log.close(shard_span);
  if (shard_digest[0] != shard_digest[1]) {
    failures.push_back("shards=4 parallel digest differs from serial stepping");
  }

  std::vector<Metric> metrics = end_to_end(round, rss);
  const std::vector<Metric> host = {
      {"db.populate_s", db_s.populate, "s"},
      {"db.build_ycsb_s", db_s.build_ycsb, "s"},
      {"db.total_data_pages_s", db_s.pages, "s"},
      {"core.cluster_build_s", cluster_self, "s"},
      {"sim.events_per_wall_s", static_cast<double>(round.events) / round.run_s, "events/s"},
      {"sim.events_per_sim_s", static_cast<double>(round.events) / round.sim_s, "events/sim-s"},
      {"alloc.setup", static_cast<double>(round.allocs_setup), "allocs"},
      {"alloc.per_txn", alloc_per_txn, "allocs/txn"},
      {"shard.run_serial_s", shard_s[0], "s"},
      {"shard.run_parallel_s", shard_s[1], "s"},
  };
  metrics.insert(metrics.end(), host.begin(), host.end());
  const std::vector<Metric> sim = simulated_metrics(ref_round.report, ref.cfg);
  metrics.insert(metrics.end(), sim.begin(), sim.end());

  // Every point's simulated statistics go into the trace file.
  std::string extra = "\"points\": [\n";
  for (std::size_t i = 0; i < w.points.size(); ++i) {
    extra += i > 0 ? ",\n" : "";
    extra += "{\"label\": \"" + w.points[i].label + "\", \"result\": " +
             result_json(true, 0, 0, simulated_metrics(round.points[i].report,
                                                       w.points[i].cfg)) + "}";
  }
  extra += "\n]\n";
  if (!trace_out.empty() && !log.write(trace_out, extra)) {
    failures.push_back("cannot write " + trace_out);
  }
  for (std::size_t i = 0; i < w.points.size(); ++i) {
    for (const Metric& m : simulated_metrics(round.points[i].report, w.points[i].cfg)) {
      std::printf("  %s %s = %.6g %s\n", w.points[i].label.c_str(), m.name.c_str(),
                  m.value, m.unit.c_str());
    }
  }
  for (const auto& f : failures) std::printf("CHECK FAILED: %s\n", f.c_str());
  std::printf("digest %016llx\n", static_cast<unsigned long long>(round.digest));
  std::printf("%s\n", result_json(failures.empty(), round.ops.attempted, round.ops.failed,
                                  metrics)
                          .c_str());
  return failures.empty() ? 0 : 1;
}

int usage() {
  std::fprintf(stderr,
               "usage: e2ebench --workload NAME --seed N"
               " [--trace-out PATH]\n       e2ebench --selftest [--seed N]\n"
               "workloads:");
  for (const auto& n : workload_names()) std::fprintf(stderr, " %s", n.c_str());
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace
}  // namespace e2ebench

int main(int argc, char** argv) {
  using namespace e2ebench;
  std::string workload, trace_out;
  std::uint64_t seed = 1;
  bool self = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--selftest") {
      self = true;
    } else if (a == "--workload" && has_value) {
      workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--trace-out" && has_value) {
      trace_out = argv[++i];
    } else {
      return usage();
    }
  }
  if (self) {
    const int bad = selftest(seed);
    std::printf("selftest: %s\n", bad == 0 ? "every check fails on its broken input"
                                           : "some checks misbehaved");
    return bad == 0 ? 0 : 1;
  }
  if (workload.empty()) return usage();
  const Workload w = make_workload(workload, seed);
#if E2EBENCH_TRACED
  return traced(w, trace_out);
#else
  (void)trace_out;
  return measure(w);
#endif
}
