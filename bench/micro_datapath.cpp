/// Segment-level datapath microbenchmark: how fast does the simulator push
/// TCP segments end to end (NIC deliver → TCP rx → app handler, plus the
/// reverse ack path) once protocol CPU costs are zeroed out? Two workloads:
///
///   - bulk: one connection streaming a large transfer between two hosts —
///     the steady-state fast path (window growth, delayed acks, transmit
///     pump, link serialization),
///   - churn: many short-lived connections opened/used/closed concurrently —
///     the handshake/teardown path plus connection table pressure.
///
/// The binary also carries an allocation-counting hook (global operator
/// new/delete tallies) and reports heap allocations per segment over the
/// steady-state middle of the bulk transfer; the pooled-frame datapath must
/// show 0.00 there (acceptance criterion for the zero-allocation overhaul).
///
/// "before" numbers were measured at commit 2eee48f (the pre-overhaul
/// datapath: heap-allocated coroutine frames per segment, std::function
/// dispatch, std::deque queues, std::map hole tracking) on the same machine
/// that produced the committed BENCH_datapath.json; the bench recomputes
/// "after" on every run and reports the speedup against that baseline.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>

#include "bench/alloc_hook.hpp"
#include "net/tcp.hpp"
#include "net/topology.hpp"
#include "sim/task.hpp"

namespace {

using namespace dclue;

net::CpuCharge free_cpu() {
  return [](sim::PathLength, cpu::JobClass) -> sim::Task<void> { co_return; };
}

/// Process CPU time: the engine is single-threaded and this box may be
/// time-shared, so wall-clock measures the neighbours as much as the
/// simulator. CPU time is stable under preemption.
double cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// Two servers in one LATA, TCP stacks with zeroed protocol costs: wall time
/// measures the simulator's datapath, not the modeled CPU.
struct Harness {
  sim::Engine engine;
  std::unique_ptr<net::Topology> topo;
  std::unique_ptr<net::TcpStack> a;
  std::unique_ptr<net::TcpStack> b;

  Harness() {
    net::TopologyParams tp;
    tp.servers_per_lata = 2;
    topo = std::make_unique<net::Topology>(engine, tp);
    a = std::make_unique<net::TcpStack>(engine, topo->server_nic(0),
                                        net::TcpParams{}, net::TcpCostModel{},
                                        free_cpu());
    b = std::make_unique<net::TcpStack>(engine, topo->server_nic(1),
                                        net::TcpParams{}, net::TcpCostModel{},
                                        free_cpu());
  }

  [[nodiscard]] std::uint64_t segments() const {
    return a->segments_received() + b->segments_received();
  }
};

struct BulkResult {
  double segments_per_sec = 0.0;
  double allocs_per_segment = 0.0;  ///< steady-state window (25%..95%)
  double events_per_segment = 0.0;  ///< engine events per delivered segment
};

BulkResult run_bulk(sim::Bytes total) {
  Harness h;
  auto& listener = h.b->listen(5000);
  sim::Bytes received = 0;
  std::uint64_t win_alloc0 = 0, win_seg0 = 0, win_alloc1 = 0, win_seg1 = 0;
  sim::spawn([](Harness& h, net::TcpListener& l, sim::Bytes& got,
                sim::Bytes total, std::uint64_t& a0, std::uint64_t& s0,
                std::uint64_t& a1, std::uint64_t& s1) -> sim::Task<void> {
    auto conn = co_await l.accept();
    conn->set_rx_handler([&, total](sim::Bytes n) {
      got += n;
      if (s0 == 0 && got >= total / 4) {
        a0 = bench::alloc_calls();
        s0 = h.segments();
      } else if (s1 == 0 && got >= total - total / 20) {
        a1 = bench::alloc_calls();
        s1 = h.segments();
      }
    });
  }(h, listener, received, total, win_alloc0, win_seg0, win_alloc1, win_seg1));
  auto conn = h.a->connect(h.b->address(), 5000);
  conn->send(total);

  const double t0 = cpu_seconds();
  h.engine.run();
  const double secs = cpu_seconds() - t0;

  if (received != total) {
    std::fprintf(stderr, "bulk transfer incomplete: %lld/%lld\n",
                 static_cast<long long>(received), static_cast<long long>(total));
    std::exit(1);
  }
  BulkResult r;
  r.segments_per_sec = static_cast<double>(h.segments()) / secs;
  r.events_per_segment = static_cast<double>(h.engine.events_executed()) /
                         static_cast<double>(h.segments());
  if (win_seg1 > win_seg0) {
    r.allocs_per_segment = static_cast<double>(win_alloc1 - win_alloc0) /
                           static_cast<double>(win_seg1 - win_seg0);
  }
  return r;
}

struct ChurnResult {
  double segments_per_sec = 0.0;
  double conns_per_sec = 0.0;
};

ChurnResult run_churn(int clients, int conns_each) {
  Harness h;
  auto& listener = h.b->listen(21);
  sim::spawn([](net::TcpListener& l) -> sim::Task<void> {
    for (;;) {
      auto conn = co_await l.accept();
      conn->set_rx_handler([](sim::Bytes) {});
      conn->set_eof_handler([conn] { conn->close(); });
    }
  }(listener));
  int completed = 0;
  for (int c = 0; c < clients; ++c) {
    sim::spawn([](Harness& h, int conns, int& completed) -> sim::Task<void> {
      for (int i = 0; i < conns; ++i) {
        auto conn = h.a->connect(h.b->address(), 21);
        co_await conn->established().wait();
        if (conn->state() != net::TcpConnection::State::kEstablished) continue;
        conn->send(10'000);
        co_await conn->wait_all_acked();
        conn->close();
        ++completed;
      }
    }(h, conns_each, completed));
  }

  const double t0 = cpu_seconds();
  h.engine.run();
  const double secs = cpu_seconds() - t0;

  if (completed != clients * conns_each) {
    std::fprintf(stderr, "churn incomplete: %d/%d\n", completed,
                 clients * conns_each);
    std::exit(1);
  }
  ChurnResult r;
  r.segments_per_sec = static_cast<double>(h.segments()) / secs;
  r.conns_per_sec = static_cast<double>(completed) / secs;
  return r;
}

/// Pre-overhaul numbers, measured at commit 2eee48f with this same binary
/// (REPRO_FAST=0) on the machine that produced the committed baseline JSON;
/// before/after invocations were interleaved in the same window and the best
/// of three taken for each, mirroring the in-process best-of-N policy.
constexpr double kBulkSegPerSecBefore = 2090000.0;
constexpr double kChurnSegPerSecBefore = 1090000.0;
constexpr double kBulkAllocsPerSegBefore = 4.90;

}  // namespace

int main() {
  const char* fast = std::getenv("REPRO_FAST");
  const bool is_fast = fast && fast[0] == '1';
  // REPRO_DP_SCALE=<n> lengthens the measured passes n-fold (profiling runs
  // want several seconds of steady state; the default is sized for CI).
  const char* scale_env = std::getenv("REPRO_DP_SCALE");
  const sim::Bytes scale = scale_env ? std::atoll(scale_env) : 1;
  const sim::Bytes bulk_bytes = (is_fast ? 16'000'000 : 256'000'000) * scale;
  const int churn_clients = 16;
  const int churn_conns = static_cast<int>((is_fast ? 40 : 400) * scale);
  const int reps = is_fast ? 2 : 5;

  std::printf("datapath microbenchmark: NIC deliver -> TCP rx -> app handler\n");

  // Warmup pass faults in allocator/arena state before the timed passes.
  run_bulk(bulk_bytes / 8);

  // Best-of-N: one pass is ~100 ms of wall time, so scheduler noise and CPU
  // frequency ramp dominate any single sample; the fastest repetition is the
  // closest to the machine's true throughput. The simulation itself is
  // deterministic, so every rep executes the identical event sequence and the
  // allocation count is rep-invariant.
  BulkResult bulk;
  for (int i = 0; i < reps; ++i) {
    const BulkResult r = run_bulk(bulk_bytes);
    if (r.segments_per_sec > bulk.segments_per_sec) bulk = r;
  }
  std::printf("  bulk  : %.3g segments/sec, %.2f heap allocs/segment (steady state), "
              "%.2f events/segment\n",
              bulk.segments_per_sec, bulk.allocs_per_segment,
              bulk.events_per_segment);

  ChurnResult churn;
  for (int i = 0; i < reps; ++i) {
    const ChurnResult r = run_churn(churn_clients, churn_conns);
    if (r.segments_per_sec > churn.segments_per_sec) churn = r;
  }
  std::printf("  churn : %.3g segments/sec, %.3g conns/sec\n",
              churn.segments_per_sec, churn.conns_per_sec);

  const double bulk_speedup =
      kBulkSegPerSecBefore > 0.0 ? bulk.segments_per_sec / kBulkSegPerSecBefore : 1.0;
  const double churn_speedup =
      kChurnSegPerSecBefore > 0.0 ? churn.segments_per_sec / kChurnSegPerSecBefore
                                  : 1.0;
  std::printf("  speedup vs pre-overhaul datapath: bulk %.2fx, churn %.2fx\n",
              bulk_speedup, churn_speedup);

  FILE* f = std::fopen("BENCH_datapath.json", "w");
  if (f != nullptr) {
    std::fprintf(f,
                 "{\n"
                 "  \"benchmark\": \"datapath_bulk_and_churn\",\n"
                 "  \"bulk_bytes\": %lld,\n"
                 "  \"churn_connections\": %d,\n"
                 "  \"bulk_segments_per_sec_before\": %.1f,\n"
                 "  \"bulk_segments_per_sec_after\": %.1f,\n"
                 "  \"bulk_speedup\": %.3f,\n"
                 "  \"churn_segments_per_sec_before\": %.1f,\n"
                 "  \"churn_segments_per_sec_after\": %.1f,\n"
                 "  \"churn_speedup\": %.3f,\n"
                 "  \"bulk_allocs_per_segment_before\": %.3f,\n"
                 "  \"bulk_allocs_per_segment_after\": %.3f,\n"
                 "  \"bulk_events_per_segment\": %.3f\n"
                 "}\n",
                 static_cast<long long>(bulk_bytes), churn_clients * churn_conns,
                 kBulkSegPerSecBefore, bulk.segments_per_sec, bulk_speedup,
                 kChurnSegPerSecBefore, churn.segments_per_sec, churn_speedup,
                 kBulkAllocsPerSegBefore, bulk.allocs_per_segment,
                 bulk.events_per_segment);
    std::fclose(f);
    std::printf("  wrote BENCH_datapath.json\n");
  }
  return 0;
}
