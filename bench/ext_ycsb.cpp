/// Extension: the YCSB workload family on the clustered-DBMS model. The
/// paper's TPC-C results fix the access pattern; this bench asks how the
/// cluster behaves when the workload's *shape* is the variable — read-heavy
/// vs write-heavy mixes, uniform vs zipfian-skewed keys, short scans, and a
/// dynamically migrating hotspot — all served by open-loop keyed-op clients
/// with queued admission and sojourn-quantile reporting.
///
/// Two parts:
///   1. allocation probes on the keyed hot path (sampler draw, op
///      generation, per-row access), written to BENCH_ycsb.json and gated at
///      exactly zero by scripts/bench_compare.py --tolerance 0, and
///   2. a Scenario sweep across the workload family (A-F, plus a uniform
///      twin of B and a dynamic-shift twin of B), emitting the standard
///      RunReport JSON for scripts/check_report.py.
///
/// The binary overrides global operator new for the probes, so it must not
/// link google-benchmark (see micro_datapath.cpp).

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <string>

#include "bench/alloc_hook.hpp"
#include "bench/bench_util.hpp"
#include "db/buffer_cache.hpp"
#include "db/mvcc.hpp"
#include "db/tpcc_schema.hpp"
#include "sim/key_chooser.hpp"
#include "workload/ycsb.hpp"

namespace {

using namespace dclue;

double cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

struct ProbeResult {
  double ops_per_sec = 0.0;
  double allocs_per_op = 0.0;
};

/// Sampler probe: steady-state zipfian draws (the per-arrival client cost).
ProbeResult probe_chooser(std::uint64_t ops) {
  sim::RngFactory rngs(7);
  sim::KeyChooser chooser(sim::KeyDist::kZipfian, 100'000, 0.99,
                          rngs.stream("ycsb-key", 0));
  std::int64_t sink = 0;
  const std::uint64_t warm = ops / 8;
  std::uint64_t a0 = 0;
  double t0 = 0.0;
  for (std::uint64_t i = 0; i < ops; ++i) {
    if (i == warm) {
      a0 = bench::alloc_calls();
      t0 = cpu_seconds();
    }
    sink += chooser.next();
  }
  const double secs = cpu_seconds() - t0;
  if (sink < 0) std::exit(1);  // defeat optimizer; never taken
  ProbeResult r;
  r.ops_per_sec = static_cast<double>(ops - warm) / secs;
  r.allocs_per_op =
      static_cast<double>(bench::alloc_calls() - a0) / static_cast<double>(ops - warm);
  return r;
}

/// Generator probe: full op draws (type + key + scan length + shift offset)
/// with an advancing clock, exactly what YcsbFleet does per arrival.
ProbeResult probe_opgen(std::uint64_t ops) {
  core::ClusterConfig cfg;
  cfg.workload_spec = "ycsb-e";  // scans exercise the extra length draw
  cfg.ycsb_shift = 3;            // and the shift-offset path
  workload::YcsbSpec spec = workload::make_ycsb_spec(cfg);
  sim::RngFactory rngs(7);
  workload::YcsbOpGenerator gen(spec, rngs.stream("ycsb-op", 0),
                                rngs.stream("ycsb-key", 0));
  std::int64_t sink = 0;
  sim::Time now = 0.0;
  const std::uint64_t warm = ops / 8;
  std::uint64_t a0 = 0;
  double t0 = 0.0;
  for (std::uint64_t i = 0; i < ops; ++i) {
    if (i == warm) {
      a0 = bench::alloc_calls();
      t0 = cpu_seconds();
    }
    now += 1e-4;
    const workload::YcsbOp op = gen.next(now);
    sink += op.key + op.scan_len;
  }
  const double secs = cpu_seconds() - t0;
  if (sink < 0) std::exit(1);
  ProbeResult r;
  r.ops_per_sec = static_cast<double>(ops - warm) / secs;
  r.allocs_per_op =
      static_cast<double>(bench::alloc_calls() - a0) / static_cast<double>(ops - warm);
  return r;
}

/// Server-side row probe: the per-key work a keyed op performs once pages
/// are resident — index/data page derivation, B+-tree row lookup, buffer
/// residency touches, and MVCC chain traversal — in a steady-state loop.
ProbeResult probe_row_path(std::uint64_t ops) {
  constexpr std::int64_t kRecords = 20'000;
  db::TpccScale scale;
  scale.warehouses = 1;
  scale.customers_per_district = 10;
  scale.items = 50;
  db::TpccDatabase db(scale);
  sim::Rng pop(1);
  db.populate(pop);
  db.build_ycsb(kRecords);

  sim::Engine engine;
  db::BufferCache cache(8192);
  db::VersionManager versions(engine, sim::megabytes(16), cache);

  sim::RngFactory rngs(7);
  sim::KeyChooser chooser(sim::KeyDist::kZipfian, kRecords, 0.99,
                          rngs.stream("ycsb-key", 1));
  // Resident working set + a few versions on the hot pages, as after warmup.
  for (std::int64_t k = 0; k < kRecords; ++k) {
    const db::Key key = db::key_ycsb(k);
    cache.insert(db.ycsb->data_page_of_key(key), db::PageMode::kShared);
    cache.insert(db.ycsb->index_page_of(key), db::PageMode::kShared);
  }
  db::Timestamp ts = 1;
  for (std::int64_t k = 0; k < 512; ++k) {
    const db::Key key = db::key_ycsb(k);
    versions.create_version(db.ycsb->data_page_of_key(key),
                            db.ycsb->subpage_of_key(key), ++ts, 256);
  }

  std::uint64_t sink = 0;
  const std::uint64_t warm = ops / 8;
  std::uint64_t a0 = 0;
  double t0 = 0.0;
  for (std::uint64_t i = 0; i < ops; ++i) {
    if (i == warm) {
      a0 = bench::alloc_calls();
      t0 = cpu_seconds();
    }
    const db::Key key = db::key_ycsb(chooser.next());
    const db::PageId data = db.ycsb->data_page_of_key(key);
    cache.touch(db.ycsb->index_page_of(key));
    cache.touch(data);
    sink += static_cast<std::uint64_t>(
        versions.chain_hops(data, db.ycsb->subpage_of_key(key), ts / 2));
    if (const db::YcsbRow* row = db.ycsb->find(key)) sink += row->writes;
  }
  const double secs = cpu_seconds() - t0;
  if (sink == static_cast<std::uint64_t>(-1)) std::exit(1);
  ProbeResult r;
  r.ops_per_sec = static_cast<double>(ops - warm) / secs;
  r.allocs_per_op =
      static_cast<double>(bench::alloc_calls() - a0) / static_cast<double>(ops - warm);
  return r;
}

core::ClusterConfig ycsb_base() {
  core::ClusterConfig cfg = bench::base_config();
  cfg.nodes = 3;
  // The TPC-C tables ride along only for database plumbing on ycsb runs;
  // keep them small so populate and cache warmup stay cheap.
  cfg.warehouses_override = 3;
  cfg.customers_per_district = 60;
  cfg.items = 200;
  cfg.ycsb_records = 60'000;
  // Below the ~17 keyed ops/s/node service capacity at these path lengths:
  // an open-loop bench must not saturate, or completions lag arrivals so far
  // that sojourns measure only queue growth (and late-run effects like the
  // dynamic hotspot shift never reach execution).
  cfg.ycsb_arrival = "poisson:10";
  cfg.warmup = bench::fast_mode() ? 2.0 : 6.0;
  cfg.measure = bench::fast_mode() ? 6.0 : 20.0;
  return cfg;
}

}  // namespace

int main(int argc, char** argv) {
  const bool fast = bench::fast_mode();

  // --- part 1: keyed hot-path allocation probes (single-threaded) ---------
  const std::uint64_t probe_ops = fast ? 400'000 : 4'000'000;
  const ProbeResult chooser = probe_chooser(probe_ops);
  const ProbeResult opgen = probe_opgen(probe_ops);
  const ProbeResult row = probe_row_path(probe_ops);
  std::printf("ycsb keyed hot-path probes (%llu ops each):\n",
              static_cast<unsigned long long>(probe_ops));
  std::printf("  chooser : %.3g draws/sec, %.4f heap allocs/op\n",
              chooser.ops_per_sec, chooser.allocs_per_op);
  std::printf("  opgen   : %.3g ops/sec,   %.4f heap allocs/op\n",
              opgen.ops_per_sec, opgen.allocs_per_op);
  std::printf("  row path: %.3g rows/sec,  %.4f heap allocs/op\n",
              row.ops_per_sec, row.allocs_per_op);

  FILE* f = std::fopen("BENCH_ycsb.json", "w");
  if (f != nullptr) {
    std::fprintf(f,
                 "{\n"
                 "  \"benchmark\": \"ycsb_keyed_hot_path\",\n"
                 "  \"probe_ops\": %llu,\n"
                 "  \"chooser_draws_per_sec\": %.1f,\n"
                 "  \"ycsb_chooser_allocs_per_op_after\": %.4f,\n"
                 "  \"opgen_ops_per_sec\": %.1f,\n"
                 "  \"ycsb_opgen_allocs_per_op_after\": %.4f,\n"
                 "  \"row_path_ops_per_sec\": %.1f,\n"
                 "  \"ycsb_row_allocs_per_op_after\": %.4f\n"
                 "}\n",
                 static_cast<unsigned long long>(probe_ops),
                 chooser.ops_per_sec, chooser.allocs_per_op, opgen.ops_per_sec,
                 opgen.allocs_per_op, row.ops_per_sec, row.allocs_per_op);
    std::fclose(f);
    std::printf("  wrote BENCH_ycsb.json\n");
  }

  // --- part 2: the workload-family sweep -----------------------------------
  bench::Scenario sc("ext_ycsb", "EXT YCSB",
                     "workload family: mixes, skew, scans, dynamic shift",
                     "mix", argc, argv);
  struct Point {
    const char* label;
    const char* workload;
    const char* dist;     ///< "" = mix default
    int shift;
    const char* arrival;  ///< nullptr = base rate; scans need a lower one
  };
  // E's scans average ~25 rows, so its per-op service demand is an order of
  // magnitude above the keyed mixes; it gets a matching lower offered rate.
  const std::vector<Point> points =
      fast ? std::vector<Point>{{"ycsb-a (50r/50u zipf)", "ycsb-a", "", 0, nullptr},
                                {"ycsb-b (95r/5u zipf)", "ycsb-b", "", 0, nullptr},
                                {"ycsb-e (95scan/5i)", "ycsb-e", "", 0, "poisson:1"},
                                {"ycsb-b shift=3", "ycsb-b", "", 3, nullptr}}
           : std::vector<Point>{{"ycsb-a (50r/50u zipf)", "ycsb-a", "", 0, nullptr},
                                {"ycsb-b (95r/5u zipf)", "ycsb-b", "", 0, nullptr},
                                {"ycsb-c (100r zipf)", "ycsb-c", "", 0, nullptr},
                                {"ycsb-d (95r/5i latest)", "ycsb-d", "", 0, nullptr},
                                {"ycsb-e (95scan/5i)", "ycsb-e", "", 0, "poisson:1"},
                                {"ycsb-f (50r/50rmw)", "ycsb-f", "", 0, nullptr},
                                {"ycsb-b uniform", "ycsb-b", "uniform", 0, nullptr},
                                {"ycsb-b shift=3", "ycsb-b", "", 3, nullptr}};
  for (std::size_t i = 0; i < points.size(); ++i) {
    core::ClusterConfig cfg = ycsb_base();
    cfg.workload_spec = points[i].workload;
    cfg.ycsb_dist = points[i].dist;
    cfg.ycsb_shift = points[i].shift;
    if (points[i].arrival != nullptr) cfg.ycsb_arrival = points[i].arrival;
    sc.add(static_cast<double>(i), cfg);
  }
  sc.run();

  std::printf("\n%-24s %10s %10s %12s %12s %10s\n", "mix", "ops/s", "ops",
              "p50 ms", "p99 ms", "abort%");
  for (std::size_t i = 0; i < points.size(); ++i) {
    const core::RunReport& r = sc[i];
    std::printf("%-24s %10.1f %10.0f %12.3f %12.3f %9.2f%%\n", points[i].label,
                r.ycsb_op_rate, r.ycsb_ops, r.sojourn_p50_ms, r.sojourn_p99_ms,
                r.abort_rate * 100.0);
  }
  return 0;
}
