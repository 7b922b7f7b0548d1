// perfbench: the benchmark of record's workload runner.  One process runs
// one workload (README.md):
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--rounds R] [--conns N] [--break CHECK] [--spans PATH]
//
// It prints a readable report, then as its last line one JSON object with
// `correct`, `attempted`, `failed` and `metrics` (the end-to-end metrics,
// or with --trace 1 the per-layer ones).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <string>
#include <vector>

#include "bench.hpp"
#include "common/logging.hpp"

namespace {

using namespace perfbench;

struct Metric {
  std::string name;
  std::string unit;
  double value;
};

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

std::vector<Metric> end_to_end(const Outcome& o) {
  const Phase& p = o.plain;
  return {
      {"setup_s", "s", median(o.setup_s)},
      {"frames_per_s", "1/s", p.cycle_rate(&RoundSample::frames, o.cycle)},
      {"app_bytes_per_s", "B/s", p.cycle_rate(&RoundSample::app_bytes, o.cycle)},
      {"peak_rss_MB", "MB", static_cast<double>(peak_rss_bytes()) / 1e6},
  };
}

std::vector<Metric> per_layer(const Outcome& o) {
  const Phase& p = o.plain;
  const Counts& c = p.delta;
  const double rounds = p.rounds;
  auto per_round = [&](const char* name) { return ratio(get(c, name), rounds); };
  auto gauge = [&](const char* name) {
    auto it = o.gauges.find(name);
    return it == o.gauges.end() ? 0.0 : it->second;
  };
  const std::vector<SpanTotals> spans = span_totals();
  auto mean_ns = [&](SpanKind kind) {
    const SpanTotals& t = spans[static_cast<std::size_t>(kind)];
    return ratio(t.total_ns, static_cast<double>(t.count));
  };
  const SpanTotals& run_for_spans =
      spans[static_cast<std::size_t>(SpanKind::run_for)];

  double max_shard = 0;
  double sum_shard = 0;
  std::size_t shards = 0;
  for (; c.count("sim.shard_events." + std::to_string(shards)) != 0; ++shards) {
    const double e = get(c, "sim.shard_events." + std::to_string(shards));
    max_shard = std::max(max_shard, e);
    sum_shard += e;
  }
  const double imbalance =
      sum_shard > 0 ? max_shard / (sum_shard / static_cast<double>(shards)) : 1.0;

  const ReplayTimes replayed = replay(o.frames);
  const double fps_plain = p.cycle_rate(&RoundSample::frames, o.cycle);
  const double fps_traced = o.traced.cycle_rate(&RoundSample::frames, o.cycle);

  return {
      {"sim.events", "count", per_round("sim.events")},
      {"sim.ns_per_event", "ns",
       ratio(run_for_spans.self_ns, get(o.traced.delta, "sim.events"))},
      {"sim.wheel_inserts", "count", per_round("sim.wheel_inserts")},
      {"sim.wheel_cascades", "count", per_round("sim.wheel_cascades")},
      {"sim.pending_events", "count", gauge("sim.pending_events")},
      {"sim.batch_packets_per_burst", "ratio",
       ratio(get(c, "batch.packets"), get(c, "batch.bursts"))},
      {"sim.shard_epochs", "count", per_round("sim.shard_epochs")},
      {"sim.shard_mailbox_posted", "count", per_round("sim.shard_mailbox_posted")},
      {"sim.shard_mailbox_overflows", "count",
       per_round("sim.shard_mailbox_overflows")},
      {"sim.shard_event_imbalance", "ratio", imbalance},
      {"common.pool_hits", "count", per_round("common.pool_hits")},
      {"common.pool_misses", "count", per_round("common.pool_misses")},
      {"common.allocations", "count", per_round("common.allocations")},
      {"common.copied_bytes", "B", per_round("common.copied_bytes")},
      {"common.inline_fn_heap_allocs", "count",
       per_round("common.inline_fn_heap_allocs")},
      {"common.checksum_ns_per_KiB", "ns", replayed.checksum_ns_per_KiB},
      {"common.pool_cycle_ns", "ns", replayed.pool_cycle_ns},
      {"common.slab_bytes_per_conn", "B", gauge("common.slab_bytes_per_conn")},
      {"common.rss_bytes_per_conn", "B", gauge("common.rss_bytes_per_conn")},
      {"link.frames", "count", per_round("link.frames")},
      {"link.queue_drops", "count", per_round("link.queue_drops")},
      {"link.queue_depth_p99", "packets", queue_depth_p99(c)},
      {"net.parse_tcp_ns", "ns", replayed.parse_tcp_ns},
      {"net.decap_ns", "ns", replayed.decap_ns},
      {"ip.forwarded", "count", per_round("ip.forwarded")},
      {"ip.fragments_sent", "count", per_round("ip.fragments_sent")},
      {"ip.reassembled", "count", per_round("ip.reassembled")},
      {"udp.send_to_ns", "ns", mean_ns(SpanKind::udp_send_to)},
      {"tcp.segments_out", "count", per_round("tcp.segments_out")},
      {"tcp.fastpath_hits", "count", per_round("tcp.fastpath_hits")},
      {"tcp.fastpath_misses", "count", per_round("tcp.fastpath_misses")},
      {"tcp.retransmits", "count", per_round("tcp.retransmits")},
      {"tcp.send_ns", "ns", mean_ns(SpanKind::tcp_send)},
      {"tcp.keepalives_sent", "count", per_round("tcp.keepalives_sent")},
      {"tcp.connect_ns", "ns", mean_ns(SpanKind::tcp_connect)},
      {"ftcp.deposit_gate_stalls", "count", per_round("ftcp.deposit_gate_stalls")},
      {"ftcp.send_gate_stalls", "count", per_round("ftcp.send_gate_stalls")},
      {"ftcp.ack_channel_sent", "count", per_round("ftcp.ack_channel_sent")},
      {"ftcp.gate_cached_checks", "count", per_round("ftcp.gate_cached_checks")},
      {"ftcp.segments_swallowed", "count", per_round("ftcp.segments_swallowed")},
      {"redirector.copies_sent", "count", per_round("redirector.copies_sent")},
      {"redirector.inner_serializations", "count",
       per_round("redirector.inner_serializations")},
      {"redirector.passed_through", "count", per_round("redirector.passed_through")},
      {"mgmt.detect_ms", "ms", gauge("mgmt.detect_ms")},
      {"mgmt.promote_ms", "ms", gauge("mgmt.promote_ms")},
      {"mgmt.failover_resume_ms", "ms", gauge("mgmt.failover_resume_ms")},
      {"mgmt.replicas_eliminated", "count", per_round("mgmt.replicas_eliminated")},
      {"apps.rx_ns", "ns", mean_ns(SpanKind::app_rx)},
      {"apps.sim_goodput_kBps", "kB/s", gauge("apps.sim_goodput_kBps")},
      {"trace.overhead_pct", "%", ratio(fps_plain - fps_traced, fps_plain) * 100},
  };
}

void print_json(const Outcome& o, const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              o.correct ? "true" : "false",
              static_cast<unsigned long long>(o.attempted),
              static_cast<unsigned long long>(o.failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), v,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload ft_ttcp_failover|udp_fanout_small|"
               "connscale_2shard --seed N --seconds S --trace 0|1 "
               "[--rounds R] [--conns N] [--break CHECK] [--spans PATH]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  hydranet::set_log_level(hydranet::LogLevel::off);
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage(argv[0]);
    const std::string value = argv[++i];
    if (arg == "--workload") {
      options.workload = value;
    } else if (arg == "--seed") {
      options.seed = std::stoull(value);
    } else if (arg == "--seconds") {
      options.seconds = std::stod(value);
    } else if (arg == "--trace") {
      options.trace = value == "1";
    } else if (arg == "--rounds") {
      options.rounds = std::stoi(value);
    } else if (arg == "--conns") {
      options.conns = std::stoull(value);
    } else if (arg == "--break") {
      options.break_check = value;
    } else if (arg == "--spans") {
      options.spans_path = value;
    } else {
      return usage(argv[0]);
    }
  }

  Outcome outcome;
  try {
    if (options.workload == "ft_ttcp_failover") {
      outcome = run_ft_ttcp_failover(options);
    } else if (options.workload == "udp_fanout_small") {
      outcome = run_udp_fanout_small(options);
    } else if (options.workload == "connscale_2shard") {
      outcome = run_connscale_2shard(options);
    } else {
      return usage(argv[0]);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }

  const std::vector<Metric> metrics =
      options.trace ? per_layer(outcome) : end_to_end(outcome);
  if (options.trace && !options.spans_path.empty() &&
      !write_spans(options.spans_path)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n",
                 options.spans_path.c_str());
  }

  std::printf("workload %s seed %llu: %d rounds in %.3f s%s\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed),
              outcome.plain.rounds, outcome.plain.wall_s,
              options.trace ? " untraced" : "");
  {
    std::vector<double> rates;
    for (const RoundSample& r : outcome.plain.samples) {
      rates.push_back(r.frames / r.wall_s);
    }
    std::sort(rates.begin(), rates.end());
    if (!rates.empty()) {
      std::printf("  frames/s by round: min %.0f p25 %.0f p50 %.0f p75 %.0f max %.0f\n",
                  rates.front(), rates[rates.size() / 4], rates[rates.size() / 2],
                  rates[rates.size() * 3 / 4], rates.back());
    }
  }
  if (options.trace) {
    std::printf("  traced phase: %d rounds in %.3f s, %zu frames captured\n",
                outcome.traced.rounds, outcome.traced.wall_s,
                outcome.frames.size());
  }
  std::printf("fingerprint %016llx\n",
              static_cast<unsigned long long>(outcome.fingerprint));
  for (const std::string& e : outcome.errors) std::printf("CHECK FAILED: %s\n", e.c_str());
  std::printf("operations: %llu attempted, %llu failed\n",
              static_cast<unsigned long long>(outcome.attempted),
              static_cast<unsigned long long>(outcome.failed));
  for (const Metric& m : metrics) {
    std::printf("  %-34s %16.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  print_json(outcome, metrics);
  return outcome.correct ? 0 : 1;
}
