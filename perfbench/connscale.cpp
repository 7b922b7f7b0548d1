// connscale_2shard: a fleet of TCP connections from four client hosts to
// one server on a 2-shard engine, with coalesced timers and 5 s
// keepalives.  Set-up ramps the fleet; each measured round is one 6 s
// window in which every tenth connection writes 1 KiB while every
// connection idles on keepalive.
#include <memory>
#include <unordered_map>

#include "bench.hpp"
#include "common/slab.hpp"

namespace perfbench {

namespace {

using namespace hydranet;

constexpr std::size_t kDefaultConns = 100000;
constexpr std::size_t kClientHosts = 4;
constexpr std::size_t kShards = 2;
constexpr std::size_t kWave = 2048;        ///< connects per 5 ms burst
constexpr std::size_t kWriterStride = 10;  ///< every tenth connection writes
constexpr std::size_t kWriteBytes = 1024;
constexpr sim::Duration kWindow = sim::seconds(6);
constexpr sim::Duration kKeepalive = sim::seconds(5);
const net::Endpoint kService{net::Ipv4Address(192, 20, 225, 20), 80};
constexpr int kSetupReps = 3;

class Fleet {
 public:
  Fleet(const Options& options, std::size_t conns)
      : options_(options), conns_(conns), net_(42, kShards) {
    tcp_options_.keepalive_interval = kKeepalive;
    tcp_options_.coalesce_timers = true;
    server_ = &net_.add_host("server", 0);
    server_->v_host(kService.address);
    link::Link::Config config;
    config.bandwidth_bps = 10e9;
    config.queue_capacity_packets = 4096;
    config.batch_frames = 8;
    for (std::size_t i = 0; i < kClientHosts; ++i) {
      // Two steps: gcc 12 warns falsely (-Wrestrict) on "c" + to_string(i).
      std::string name = "c";
      name += std::to_string(i);
      host::Host& client = net_.add_host(name, i % kShards);
      const auto subnet = static_cast<std::uint8_t>(i + 1);
      links_.push_back(&net_.connect(client, net::Ipv4Address(10, subnet, 0, 2),
                                     *server_, net::Ipv4Address(10, subnet, 0, 1),
                                     24, config));
      client.ip().add_default_route(net::Ipv4Address(10, subnet, 0, 1), nullptr);
      clients_.push_back(&client);
    }
    hosts_ = clients_;
    hosts_.push_back(server_);
    auto listener = server_->tcp().listen(
        net::Ipv4Address(), kService.port,
        [this](std::shared_ptr<tcp::TcpConnection> conn) { on_accept(std::move(conn)); },
        tcp_options_);
    if (!listener.ok()) throw std::runtime_error("listen failed");
  }

  /// Establishes the fleet in paced waves; true when every connection is
  /// accepted.
  bool ramp() {
    const std::size_t per_host = (conns_ + kClientHosts - 1) / kClientHosts;
    const sim::TimePoint deadline = net_.now() + sim::seconds(600);
    while (server_sides_.size() < conns_ && net_.now() < deadline) {
      for (std::size_t wave = 0; client_conns_.size() < conns_ && wave < kWave;
           ++wave) {
        host::Host& client = *clients_[client_conns_.size() / per_host];
        Span span(SpanKind::tcp_connect);
        auto conn = client.tcp().connect(net::Ipv4Address(), kService, tcp_options_);
        if (!conn.ok()) return false;
        client_conns_.push_back(conn.value());
      }
      run_for(net_, sim::milliseconds(5));
    }
    return server_sides_.size() == conns_;
  }

  /// Every connection established on both sides, client and server ends
  /// paired by endpoint.
  void check_established(Outcome& out) {
    if (options_.break_check == "connection") client_conns_[7]->abort();
    std::size_t bad = 0;
    writer_sides_.clear();
    for (std::size_t i = 0; i < client_conns_.size(); ++i) {
      const tcp::TcpConnection& c = *client_conns_[i];
      auto it = by_remote_.find(c.key().local);
      const bool paired =
          c.state() == tcp::TcpState::established && it != by_remote_.end() &&
          server_sides_[it->second].conn->state() == tcp::TcpState::established;
      if (!paired) bad++;
      if (i % kWriterStride == 0) {
        writer_sides_.push_back(paired ? it->second : kUnpaired);
      }
    }
    if (bad > 0 || server_sides_.size() != conns_) {
      out.fail(std::to_string(bad) + " of " + std::to_string(conns_) +
               " connections not established on both sides (" +
               std::to_string(server_sides_.size()) + " accepted)");
    }
  }

  /// One 6 s window.  On the first, every client connection's keepalive
  /// round and every write is one operation (README "Workloads").
  void round(Outcome& out, Fingerprint& fp) {
    const bool first = window_ == 0;
    std::vector<std::uint64_t> probes_before;
    if (first) {
      probes_before.reserve(client_conns_.size());
      for (const auto& c : client_conns_) {
        probes_before.push_back(c->stats().keepalives_sent);
      }
    }
    const std::uint64_t frames_before = frames();
    std::vector<std::uint64_t> expected;
    Bytes payload(kWriteBytes);
    std::size_t w = 0;
    for (std::size_t i = 0; i < client_conns_.size(); i += kWriterStride, ++w) {
      const std::uint64_t key =
          splitmix64(options_.seed ^ splitmix64(window_ * 0x10000000ull + i));
      fill_content(key, 0, payload.data(), payload.size());
      StreamDigest digest;
      digest.update(BytesView(payload));
      expected.push_back(digest.value());
      if (writer_sides_[w] != kUnpaired) {
        server_sides_[writer_sides_[w]].digest = StreamDigest();
      }
      Span span(SpanKind::tcp_send);
      auto sent = client_conns_[i]->send(BytesView(payload));
      if (!sent.ok() || sent.value() != payload.size()) send_failures_++;
    }
    const std::size_t events = run_for(net_, kWindow);

    std::size_t bad_writes = 0;
    Fingerprint digests;
    for (std::size_t k = 0; k < expected.size(); ++k) {
      const StreamDigest* got = writer_sides_[k] != kUnpaired
                                    ? &server_sides_[writer_sides_[k]].digest
                                    : nullptr;
      if (got == nullptr || got->bytes() != kWriteBytes ||
          got->value() != expected[k]) {
        bad_writes++;
      }
      digests.add(got == nullptr ? 0 : got->value());
    }
    if (bad_writes > 0) {
      out.fail("window " + std::to_string(window_) + ": " +
               std::to_string(bad_writes) + " of " +
               std::to_string(expected.size()) + " 1 KiB writes did not arrive whole");
    }
    if (first) {
      std::uint64_t silent = 0;
      for (std::size_t i = 0; i < client_conns_.size(); ++i) {
        if (client_conns_[i]->stats().keepalives_sent == probes_before[i]) silent++;
      }
      own_["attempted"] += static_cast<double>(client_conns_.size() + expected.size());
      own_["failed"] += static_cast<double>(silent + bad_writes);
    }
    own_["app_bytes"] +=
        static_cast<double>((expected.size() - bad_writes) * kWriteBytes);
    own_["sim_ns"] += static_cast<double>(kWindow.ns);
    fp.add(digests.value());
    fp.add(frames() - frames_before);
    fp.add(events);
    fp.add(keepalives());
    window_++;
  }

  Counts counts() {
    Counts c = own_;
    add_process_counts(c);
    add_network_counts(c, net_, hosts_, links_);
    return c;
  }

  std::uint64_t keepalives() const {
    std::uint64_t total = 0;
    for (host::Host* h : hosts_) total += h->tcp().aggregate_stats().keepalives_sent;
    return total;
  }

  host::Network& net() { return net_; }
  const std::vector<link::Link*>& links() const { return links_; }

  std::uint64_t send_failures() const { return send_failures_; }

 private:
  struct ServerSide {
    std::shared_ptr<tcp::TcpConnection> conn;
    StreamDigest digest;
  };

  void on_accept(std::shared_ptr<tcp::TcpConnection> conn) {
    const std::size_t index = server_sides_.size();
    tcp::TcpConnection* raw = conn.get();
    by_remote_.emplace(raw->key().remote, index);
    server_sides_.push_back(ServerSide{std::move(conn), StreamDigest()});
    raw->set_on_readable([this, raw, index] {
      Span span(SpanKind::app_rx);
      for (;;) {
        Span recv_span(SpanKind::tcp_recv);
        auto data = raw->recv(64 * 1024);
        if (!data || data.value().empty()) return;
        server_sides_[index].digest.update(BytesView(data.value()));
      }
    });
  }

  std::uint64_t frames() const {
    std::uint64_t total = 0;
    for (const link::Link* l : links_) total += l->stats().delivered;
    return total;
  }

  const Options& options_;
  std::size_t conns_;
  host::Network net_;
  tcp::TcpOptions tcp_options_;
  host::Host* server_ = nullptr;
  std::vector<host::Host*> clients_;
  std::vector<host::Host*> hosts_;
  std::vector<link::Link*> links_;
  std::vector<std::shared_ptr<tcp::TcpConnection>> client_conns_;
  std::vector<ServerSide> server_sides_;
  std::unordered_map<net::Endpoint, std::size_t> by_remote_;
  /// Server end of each writer (every kWriterStride-th connection).
  static constexpr std::size_t kUnpaired = SIZE_MAX;
  std::vector<std::size_t> writer_sides_;
  std::uint64_t window_ = 0;
  std::uint64_t send_failures_ = 0;
  Counts own_;
};

}  // namespace

Outcome run_connscale_2shard(const Options& options) {
  Outcome out;
  FrameCapture capture;
  const std::size_t conns = options.conns > 0 ? options.conns : kDefaultConns;
  std::unique_ptr<Fleet> fleet;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    fleet.reset();
    // The traced mode times TcpStack::connect on the last ramp.
    set_tracing(options.trace && rep == kSetupReps - 1);
    const auto t0 = Clock::now();
    fleet = std::make_unique<Fleet>(options, conns);
    const std::uint64_t rss_before = rss_bytes();
    const std::uint64_t slab_before = slab_totals().bytes;
    const bool ramped = fleet->ramp();
    out.setup_s.push_back(seconds_since(t0));
    set_tracing(false);
    if (!ramped) out.fail("ramp stalled before every connection was accepted");
    if (rep == 0) {
      // Memory per connection (both ends live in this process) from the
      // first ramp, while the process has not yet recycled freed pages.
      const double rss = static_cast<double>(rss_bytes() - rss_before) /
                         static_cast<double>(conns);
      const double slab = static_cast<double>(slab_totals().bytes - slab_before) /
                          static_cast<double>(conns);
      out.gauges["common.rss_bytes_per_conn"] = rss;
      out.gauges["common.slab_bytes_per_conn"] = slab;
      if (rss < slab) {
        out.fail("resident growth per connection (" + std::to_string(rss) +
                 " B) is below the slab bytes per connection (" +
                 std::to_string(slab) + " B)");
      }
    }
  }
  fleet->check_established(out);
  out.gauges["sim.pending_events"] = static_cast<double>(pending_events(fleet->net()));

  Fingerprint fp;
  if (options.trace) {
    for (link::Link* l : fleet->links()) capture.attach(*l);
  }
  run_phases(
      options, capture, out, [&] { fleet->round(out, fp); },
      [&] { return fleet->counts(); });
  if (fleet->send_failures() > 0) {
    out.fail(std::to_string(fleet->send_failures()) + " writes were not accepted");
  }
  const Counts& c = out.plain.delta;
  out.gauges["apps.sim_goodput_kBps"] =
      get(c, "app_bytes") / 1000.0 / (get(c, "sim_ns") / 1e9);
  out.fingerprint = fp.value();
  return out;
}

}  // namespace perfbench
