// udp_fanout_small: one client sends small UDP datagrams open-loop in
// simulated time through a redirector.  Most go to a fault-tolerant
// service (primary + 3 backups, one tunnelled copy each); the rest go to
// an unreplicated host the redirector only forwards.  Every datagram
// carries a sequence number and seeded content; each destination checks
// it arrived exactly once and intact.
#include <memory>

#include "bench.hpp"
#include "redirector/redirector.hpp"

namespace perfbench {

namespace {

using namespace hydranet;

constexpr std::size_t kReplicas = 4;
constexpr std::size_t kDatagramsPerRound = 4096;
/// 50k datagrams per simulated second: well under the 1 Gb/s links, so
/// the drop-tail queues stay nearly empty.
constexpr sim::Duration kSendInterval = sim::microseconds(20);
constexpr std::size_t kHeader = 8;  ///< sequence number
constexpr int kSetupReps = 5;
/// Rounds cycle through this many seeded inputs (README "Workloads").
constexpr std::uint64_t kCycle = 8;

const net::Endpoint kService{net::Ipv4Address(192, 20, 225, 20), 7000};
const net::Endpoint kPlain{net::Ipv4Address(10, 0, 9, 2), 7001};

struct Planned {
  std::uint32_t size = 0;
  bool replicated = false;
  std::uint64_t key = 0;
};

net::Ipv4Address ip(std::uint8_t a, std::uint8_t b, std::uint8_t c,
                    std::uint8_t d) {
  return net::Ipv4Address(a, b, c, d);
}

class FanoutNet {
 public:
  explicit FanoutNet(const Options& options)
      : options_(options), net_(options.seed) {
    client_ = &net_.add_host("client");
    router_ = &net_.add_host("redirector");
    link::Link::Config config;
    config.bandwidth_bps = 1e9;
    config.propagation = sim::microseconds(50);
    config.queue_capacity_packets = 64;
    links_.push_back(&net_.connect(*client_, ip(10, 0, 1, 2), *router_,
                                   ip(10, 0, 1, 1), 24, config));
    client_->ip().add_default_route(ip(10, 0, 1, 1), nullptr);
    for (std::size_t i = 0; i < kReplicas + 1; ++i) {
      const bool plain = i == kReplicas;
      host::Host& h = net_.add_host(plain ? "plain" : "server" + std::to_string(i + 1));
      const auto subnet = static_cast<std::uint8_t>(plain ? 9 : 2 + i);
      links_.push_back(&net_.connect(*router_, ip(10, 0, subnet, 1), h,
                                     ip(10, 0, subnet, 2), 24, config));
      h.ip().add_default_route(ip(10, 0, subnet, 1), nullptr);
      if (!plain) h.v_host(kService.address);
      const net::Endpoint bind_at = plain ? kPlain : kService;
      auto socket = h.udp().bind(bind_at.address, bind_at.port);
      if (!socket.ok()) throw std::runtime_error("udp bind failed");
      socket.value()->set_rx_handler(
          [this, i](const net::Endpoint&, CowBytes data) { on_datagram(i, data); });
      destinations_.push_back(&h);
    }
    router_->ip().add_route(kService.address, 32, ip(10, 0, 2, 2), nullptr);
    redirector_ = std::make_unique<redirector::Redirector>(*router_);
    redirector_->install_service(kService, redirector::ServiceMode::fault_tolerant,
                                 ip(10, 0, 2, 2));
    for (std::size_t i = 1; i < kReplicas; ++i) {
      if (!redirector_->add_backup(kService,
                                   ip(10, 0, static_cast<std::uint8_t>(2 + i), 2))
               .ok()) {
        throw std::runtime_error("add_backup failed");
      }
    }
    auto socket = client_->udp().bind(net::Ipv4Address(), 0);
    if (!socket.ok()) throw std::runtime_error("client bind failed");
    sender_ = socket.value();
    hosts_ = {client_, router_};
    hosts_.insert(hosts_.end(), destinations_.begin(), destinations_.end());
  }

  /// One round: kDatagramsPerRound seeded datagrams, sent every
  /// kSendInterval of simulated time, then every delivery checked.
  void round(Outcome& out, Fingerprint& fp) {
    Rng rng(splitmix64(options_.seed) ^ splitmix64(round_ % kCycle + 1));
    plan_.assign(kDatagramsPerRound, Planned{});
    for (Planned& p : plan_) {
      p.size = static_cast<std::uint32_t>(rng.unit() < 0.9 ? rng.range(16, 128)
                                                           : rng.range(129, 512));
      p.replicated = rng.unit() < 0.8;
      p.key = rng.next();
    }
    seen_.assign(kDatagramsPerRound * (kReplicas + 1), 0);
    round_digest_ = Fingerprint();
    next_ = 0;
    skip_ = options_.break_check == "datagram" && round_ == 0 ? 17 : SIZE_MAX;
    client_->scheduler().schedule_after(sim::Duration{0}, [this] { send_next(); });
    const std::uint64_t frames_before = frames();
    const std::size_t events = run_for(
        net_, kSendInterval * static_cast<std::int64_t>(kDatagramsPerRound) +
                  sim::milliseconds(5));

    std::uint64_t delivered_bytes = 0;
    for (std::size_t i = 0; i < kDatagramsPerRound; ++i) {
      const Planned& p = plan_[i];
      bool whole = true;
      for (std::size_t d = 0; d < kReplicas + 1; ++d) {
        const bool expected = (d == kReplicas) != p.replicated;
        const std::uint8_t count = seen_[i * (kReplicas + 1) + d];
        if (count != (expected ? 1 : 0)) {
          whole = false;
          out.fail("round " + std::to_string(round_) + " datagram " +
                   std::to_string(i) + ": destination " + std::to_string(d) +
                   " received it " + std::to_string(count) + " times");
        }
      }
      own_["attempted"] += 1;
      if (whole) {
        delivered_bytes += p.size;
      } else {
        own_["failed"] += 1;
      }
    }
    own_["app_bytes"] += static_cast<double>(delivered_bytes);
    own_["sim_ns"] += static_cast<double>(
        (kSendInterval * static_cast<std::int64_t>(kDatagramsPerRound)).ns);
    fp.add(round_digest_.value());
    fp.add(frames() - frames_before);
    fp.add(events);
    round_++;
  }

  Counts counts() {
    Counts c = own_;
    add_process_counts(c);
    add_network_counts(c, net_, hosts_, links_);
    add_redirector_counts(c, *redirector_);
    return c;
  }

  host::Network& net() { return net_; }
  const std::vector<link::Link*>& links() const { return links_; }
  std::uint64_t corrupt() const { return corrupt_; }
  std::uint64_t send_failures() const { return send_failures_; }

 private:
  std::uint64_t frames() const {
    std::uint64_t total = 0;
    for (const link::Link* l : links_) total += l->stats().delivered;
    return total;
  }

  void send_next() {
    if (next_ >= kDatagramsPerRound) return;
    const std::size_t i = next_++;
    if (next_ < kDatagramsPerRound) {
      client_->scheduler().schedule_after(kSendInterval, [this] { send_next(); });
    }
    if (i == skip_) return;  // self-test: a datagram that is never sent
    const Planned& p = plan_[i];
    buffer_.resize(p.size);
    const std::uint64_t seq = i;
    for (std::size_t b = 0; b < kHeader; ++b) {
      buffer_[b] = static_cast<std::uint8_t>(seq >> (8 * b));
    }
    fill_content(p.key, 0, buffer_.data() + kHeader, p.size - kHeader);
    Span span(SpanKind::udp_send_to);
    if (!sender_->send_to(p.replicated ? kService : kPlain, BytesView(buffer_)).ok()) {
      send_failures_++;
    }
  }

  void on_datagram(std::size_t destination, const CowBytes& data) {
    Span span(SpanKind::app_rx);
    const BytesView view = data.view();
    if (view.size() < kHeader) return note_corrupt(destination, SIZE_MAX);
    std::uint64_t seq = 0;
    for (std::size_t b = 0; b < kHeader; ++b) {
      seq |= static_cast<std::uint64_t>(view[b]) << (8 * b);
    }
    if (seq >= kDatagramsPerRound) return note_corrupt(destination, seq);
    const Planned& p = plan_[seq];
    if (view.size() != p.size) return note_corrupt(destination, seq);
    for (std::size_t b = kHeader; b < view.size(); ++b) {
      if (view[b] != content_byte(p.key, b - kHeader)) {
        return note_corrupt(destination, seq);
      }
    }
    std::uint8_t& count = seen_[seq * (kReplicas + 1) + destination];
    if (count < 255) count++;
    round_digest_.add(seq * 8 + destination);
  }

  void note_corrupt(std::size_t destination, std::uint64_t seq) {
    corrupt_++;
    round_digest_.add(~(seq * 8 + destination));
  }

  const Options& options_;
  host::Network net_;
  host::Host* client_ = nullptr;
  host::Host* router_ = nullptr;
  std::vector<host::Host*> destinations_;
  std::vector<host::Host*> hosts_;
  std::vector<link::Link*> links_;
  std::unique_ptr<redirector::Redirector> redirector_;
  udp::UdpSocket* sender_ = nullptr;
  std::vector<Planned> plan_;
  std::vector<std::uint8_t> seen_;
  Bytes buffer_;
  std::size_t next_ = 0;
  std::size_t skip_ = SIZE_MAX;
  std::uint64_t round_ = 0;
  Fingerprint round_digest_;
  std::uint64_t corrupt_ = 0;
  std::uint64_t send_failures_ = 0;
  Counts own_;
};

}  // namespace

Outcome run_udp_fanout_small(const Options& options) {
  Outcome out;
  out.cycle = kCycle;
  FrameCapture capture;
  std::unique_ptr<FanoutNet> bed;
  Fingerprint fp;
  // Set-up: the topology plus one warm-up round on it (pools and caches
  // fill before timing); the last one built is measured.
  for (int rep = 0; rep < kSetupReps; ++rep) {
    bed.reset();
    const auto t0 = Clock::now();
    bed = std::make_unique<FanoutNet>(options);
    bed->round(out, fp);
    out.setup_s.push_back(seconds_since(t0));
  }
  if (options.trace) {
    for (link::Link* l : bed->links()) capture.attach(*l);
  }
  run_phases(
      options, capture, out, [&] { bed->round(out, fp); },
      [&] { return bed->counts(); });
  if (bed->corrupt() > 0) {
    out.fail(std::to_string(bed->corrupt()) + " datagrams arrived corrupted");
  }
  if (bed->send_failures() > 0) {
    out.fail(std::to_string(bed->send_failures()) + " send_to calls failed");
  }
  const Counts& c = out.plain.delta;
  out.gauges["sim.pending_events"] =
      static_cast<double>(pending_events(bed->net()));
  out.gauges["apps.sim_goodput_kBps"] =
      get(c, "app_bytes") / 1000.0 / (get(c, "sim_ns") / 1e9);
  out.fingerprint = fp.value();
  return out;
}

}  // namespace perfbench
