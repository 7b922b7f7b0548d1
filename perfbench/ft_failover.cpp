// ft_ttcp_failover: the paper's §5 testbed with a primary and two backups.
// Each round stands up a fresh testbed and runs, through the replicated
// service, three ttcp-style uploads one after another (a small write size,
// 1 KiB, and one past the 1500 B MTU so IP fragments carry the load) beside
// one service->client stream.  Partway through the 1 KiB upload the primary
// crashes and the chain fails over.  Every stream is checked against the
// benchmark's own digest of the bytes it asked to send.
#include <memory>

#include "apps/ttcp.hpp"
#include "bench.hpp"
#include "net/tcp_header.hpp"
#include "stats/export.hpp"
#include "testbed/testbed.hpp"

namespace perfbench {

namespace {

using namespace hydranet;

constexpr int kBackups = 2;
constexpr std::size_t kRequestBytes = 24;  ///< kind, length, content key
constexpr std::uint8_t kUpload = 'U';
constexpr std::uint8_t kDownload = 'D';
constexpr std::size_t kDownloadChunk = 1400;
constexpr int kSetupReps = 5;
/// Rounds cycle through this many seeded inputs (README "Workloads").
constexpr std::uint64_t kCycle = 32;

tcp::TcpOptions stream_options() {
  tcp::TcpOptions options = apps::period_tcp_options();
  options.mss = 4096;  // writes past the MTU leave as one segment IP fragments
  return options;
}

Bytes request(std::uint8_t kind, std::uint64_t length, std::uint64_t key) {
  Bytes out(kRequestBytes, 0);
  out[0] = kind;
  for (int b = 0; b < 8; ++b) {
    out[8 + b] = static_cast<std::uint8_t>(length >> (8 * b));
    out[16 + b] = static_cast<std::uint8_t>(key >> (8 * b));
  }
  return out;
}

std::uint64_t read_u64(const Bytes& in, std::size_t at) {
  std::uint64_t v = 0;
  for (int b = 0; b < 8; ++b) v |= static_cast<std::uint64_t>(in[at + b]) << (8 * b);
  return v;
}

/// The replicated application: every replica runs the same deterministic
/// code.  An upload request is followed by data the replica digests until
/// EOF; a download request makes the replica write the requested content.
class ReplicaApp {
 public:
  struct Session {
    std::shared_ptr<tcp::TcpConnection> conn;
    Bytes request;
    std::uint8_t kind = 0;
    std::uint64_t length = 0;
    std::uint64_t key = 0;
    std::uint64_t written = 0;
    StreamDigest digest;
    bool closing = false;
    bool eof = false;
    sim::TimePoint first_byte{};
    sim::TimePoint eof_at{};
  };

  ReplicaApp(host::Host& host, const net::Endpoint& service) : host_(host) {
    auto listener = host.tcp().listen(
        service.address, service.port,
        [this](std::shared_ptr<tcp::TcpConnection> conn) { accept(std::move(conn)); },
        stream_options());
    if (!listener.ok()) throw std::runtime_error("replica listen failed");
  }

  const Session* find(std::uint64_t key) const {
    for (const auto& s : sessions_) {
      if (s->key == key && s->request.size() == kRequestBytes) return s.get();
    }
    return nullptr;
  }

 private:
  void accept(std::shared_ptr<tcp::TcpConnection> conn) {
    sessions_.push_back(std::make_unique<Session>());
    Session* s = sessions_.back().get();
    s->conn = std::move(conn);
    s->conn->set_on_readable([this, s] { readable(*s); });
    s->conn->set_on_writable([this, s] { pump(*s); });
  }

  void readable(Session& s) {
    Span span(SpanKind::app_rx);
    for (;;) {
      Result<Bytes> data = [&] {
        Span recv_span(SpanKind::tcp_recv);
        return s.conn->recv(64 * 1024);
      }();
      if (!data) return;
      const Bytes& bytes = data.value();
      if (bytes.empty()) {
        s.eof = true;
        s.eof_at = host_.scheduler().now();
        s.conn->close();
        return;
      }
      std::size_t used = 0;
      if (s.request.size() < kRequestBytes) {
        used = std::min(bytes.size(), kRequestBytes - s.request.size());
        s.request.insert(s.request.end(), bytes.begin(), bytes.begin() + used);
        if (s.request.size() == kRequestBytes) {
          s.kind = s.request[0];
          s.length = read_u64(s.request, 8);
          s.key = read_u64(s.request, 16);
          if (s.kind == kDownload) pump(s);
        }
      }
      if (used < bytes.size()) {
        if (s.digest.bytes() == 0) s.first_byte = host_.scheduler().now();
        s.digest.update(BytesView(bytes).subspan(used));
      }
    }
  }

  void pump(Session& s) {
    if (s.kind != kDownload || s.closing) return;
    Bytes chunk;
    while (s.written < s.length) {
      const std::size_t n = static_cast<std::size_t>(
          std::min<std::uint64_t>(kDownloadChunk, s.length - s.written));
      chunk.resize(n);
      fill_content(s.key, s.written, chunk.data(), n);
      Span span(SpanKind::tcp_send);
      auto sent = s.conn->send(BytesView(chunk));
      if (!sent.ok() || sent.value() == 0) return;
      s.written += sent.value();
    }
    if (!s.closing) {
      s.closing = true;
      s.conn->close();
    }
  }

  host::Host& host_;
  std::vector<std::unique_ptr<Session>> sessions_;
};

/// Client end of one stream.  Uploads send the request, then `length`
/// bytes of content in `write_size` writes, and finish when the service
/// closes after EOF; downloads send the request and digest what arrives.
class ClientStream {
 public:
  ClientStream(host::Host& client, const net::Endpoint& service,
               std::uint8_t kind, std::uint64_t length, std::uint64_t key,
               std::size_t write_size)
      : client_(client),
        service_(service),
        kind_(kind),
        length_(length),
        key_(key),
        write_size_(write_size) {}

  void start() {
    Span span(SpanKind::tcp_connect);
    auto conn = client_.tcp().connect(net::Ipv4Address(), service_, stream_options());
    if (!conn.ok()) {
      closed_ = true;
      close_reason_ = conn.error();
      return;
    }
    conn_ = conn.value();
    started_ = true;
    conn_->set_on_established([this] { pump(); });
    conn_->set_on_writable([this] { pump(); });
    conn_->set_on_readable([this] { readable(); });
    conn_->set_on_closed([this](Errc reason) {
      closed_ = true;
      close_reason_ = reason;
    });
  }

  bool started() const { return started_; }
  /// Upload: the service saw EOF and closed.  Download: EOF received.
  bool done() const { return eof_; }
  bool closed() const { return closed_; }
  Errc close_reason() const { return close_reason_; }
  std::uint64_t length() const { return length_; }
  std::uint64_t key() const { return key_; }
  std::uint64_t written() const { return written_; }
  const StreamDigest& sent() const { return sent_; }
  const StreamDigest& received() const { return received_; }
  tcp::TcpConnection* conn() { return conn_.get(); }

 private:
  void pump() {
    if (conn_->state() != tcp::TcpState::established) return;
    if (!request_sent_) {
      const Bytes req = request(kind_, length_, key_);
      Span span(SpanKind::tcp_send);
      auto sent = conn_->send(BytesView(req));
      if (!sent.ok() || sent.value() != req.size()) return;
      request_sent_ = true;
    }
    if (kind_ != kUpload) return;
    Bytes chunk;
    while (written_ < length_) {
      const std::size_t n = static_cast<std::size_t>(
          std::min<std::uint64_t>(write_size_, length_ - written_));
      chunk.resize(n);
      fill_content(key_, written_, chunk.data(), n);
      Span span(SpanKind::tcp_send);
      auto sent = conn_->send(BytesView(chunk));
      if (!sent.ok() || sent.value() == 0) return;
      sent_.update(BytesView(chunk).first(sent.value()));
      written_ += sent.value();
    }
    if (!close_sent_) {
      close_sent_ = true;
      conn_->close();
    }
  }

  void readable() {
    Span span(SpanKind::app_rx);
    for (;;) {
      Result<Bytes> data = [&] {
        Span recv_span(SpanKind::tcp_recv);
        return conn_->recv(64 * 1024);
      }();
      if (!data) return;
      if (data.value().empty()) {
        eof_ = true;
        if (!close_sent_) {
          close_sent_ = true;
          conn_->close();
        }
        return;
      }
      received_.update(BytesView(data.value()));
    }
  }

  host::Host& client_;
  net::Endpoint service_;
  std::uint8_t kind_;
  std::uint64_t length_;
  std::uint64_t key_;
  std::size_t write_size_;
  std::shared_ptr<tcp::TcpConnection> conn_;
  bool started_ = false;
  bool request_sent_ = false;
  bool close_sent_ = false;
  bool eof_ = false;
  bool closed_ = false;
  Errc close_reason_ = Errc::ok;
  std::uint64_t written_ = 0;
  StreamDigest sent_;
  StreamDigest received_;
};

class FailoverRounds {
 public:
  FailoverRounds(const Options& options, FrameCapture& capture)
      : options_(options), capture_(capture) {}

  static testbed::TestbedConfig config(std::uint64_t seed) {
    testbed::TestbedConfig config;
    config.setup = testbed::Setup::primary_backup;
    config.backups = kBackups;
    config.seed = seed;
    // Two client retransmissions without progress signal a failure (the
    // CLI's default), so a failover completes within a few seconds.
    config.detector.retransmission_threshold = 2;
    return config;
  }

  void round(Outcome& out, Fingerprint& fp) {
    const std::uint64_t round_seed =
        splitmix64(options_.seed) ^ splitmix64(round_ % kCycle + 1);
    Rng rng(round_seed);
    testbed::Testbed bed(config(round_seed));
    const net::Endpoint service = bed.config().service;
    if (tracing()) {
      capture_.attach(bed.client_link());
      for (std::size_t i = 0; i < bed.server_count(); ++i) {
        capture_.attach(bed.server_link(i));
      }
    }
    std::vector<std::unique_ptr<ReplicaApp>> replicas;
    for (std::size_t i = 0; i < bed.server_count(); ++i) {
      replicas.push_back(std::make_unique<ReplicaApp>(bed.server(i), service));
    }

    // Input make-up (README "Workloads").
    const std::size_t small = rng.range(64, 256);
    const std::size_t past_mtu = rng.range(1501, 2048);
    std::vector<std::unique_ptr<ClientStream>> uploads;
    uploads.push_back(std::make_unique<ClientStream>(
        bed.client(), service, kUpload, small * 256, rng.next(), small));
    uploads.push_back(std::make_unique<ClientStream>(
        bed.client(), service, kUpload, 1024 * rng.range(160, 224), rng.next(), 1024));
    uploads.push_back(std::make_unique<ClientStream>(
        bed.client(), service, kUpload, past_mtu * 96, rng.next(), past_mtu));
    ClientStream download(bed.client(), service, kDownload,
                          rng.range(192, 320) * 1024, rng.next(), 0);
    const double crash_fraction = 0.25 + 0.5 * rng.unit();

    std::size_t events = 0;
    const sim::TimePoint start = bed.net().now();
    const sim::TimePoint deadline = start + sim::seconds(300);
    auto step = [&](sim::Duration d) { events += run_for(bed.net(), d); };
    auto advance_uploads = [&] {
      for (std::size_t i = 0; i < uploads.size(); ++i) {
        if (!uploads[i]->started()) {
          if (i == 0 || uploads[i - 1]->done()) uploads[i]->start();
          return;
        }
        if (!uploads[i]->done()) return;
      }
    };
    download.start();
    advance_uploads();

    // Run until the 1 KiB upload is partway, then crash the primary.
    ClientStream& victim = *uploads[1];
    while (bed.net().now() < deadline &&
           !(victim.started() &&
             static_cast<double>(victim.written()) >=
                 crash_fraction * static_cast<double>(victim.length()))) {
      step(sim::milliseconds(5));
      advance_uploads();
    }
    if (!victim.started()) {
      out.fail("round " + std::to_string(round_) +
               ": the 1 KiB upload never started (the first upload did not finish)");
      own_["attempted"] += 5;
      own_["failed"] += 5;
      round_++;
      return;
    }
    const sim::TimePoint crash_at = bed.net().now();
    const std::uint32_t una_at_crash = victim.conn()->snd_una_wire();
    const std::uint32_t frontier = victim.conn()->snd_nxt_wire();
    {
      Span span(SpanKind::crash_server);
      bed.crash_server(0);
    }
    // Resume: the client's acks pass the crash-time frontier.
    double resume_ms = -1;
    while (bed.net().now() < deadline && resume_ms < 0) {
      step(sim::milliseconds(1));
      const std::uint32_t una = victim.conn()->snd_una_wire();
      if (net::seq::geq(una, frontier) && net::seq::gt(una, una_at_crash)) {
        resume_ms = (bed.net().now() - crash_at).millis();
      }
    }
    auto all_closed = [&] {
      if (!download.closed()) return false;
      for (const auto& u : uploads) {
        if (!u->closed()) return false;
      }
      return true;
    };
    while (bed.net().now() < deadline && !all_closed()) {
      step(sim::milliseconds(50));
      advance_uploads();
    }

    std::size_t promoted = 0;
    for (std::size_t i = 0; i < bed.server_count(); ++i) {
      if (bed.agent(i).stats().promotions > 0) promoted = i;
    }
    check(out, bed, replicas, uploads, download, resume_ms, promoted);

    // Receiver-side sustained throughput of the uploads the crash did not
    // interrupt, at the replica that was primary when each ended.
    const ReplicaApp::Session* first = replicas[0]->find(uploads[0]->key());
    const ReplicaApp::Session* last = replicas[promoted]->find(uploads[2]->key());
    for (const ReplicaApp::Session* s : {first, last}) {
      if (s != nullptr && s->eof) {
        own_["goodput_bytes"] += static_cast<double>(s->digest.bytes());
        own_["goodput_ns"] += static_cast<double>((s->eof_at - s->first_byte).ns);
      }
    }
    const stats::FailoverPhases phases =
        stats::failover_phases(bed.net().metrics().timeline());
    detect_ms_.push_back(phases.detection_ms);
    promote_ms_.push_back(phases.promote_ms);
    resume_ms_.push_back(resume_ms);

    std::uint64_t app_bytes = download.received().bytes();
    for (const auto& u : uploads) app_bytes += u->written();
    own_["app_bytes"] += static_cast<double>(app_bytes);
    add_counts(bed);

    fp.add(events);
    fp.add(static_cast<std::uint64_t>(get(finished_, "link.frames")));
    fp.add(static_cast<std::uint64_t>(get(finished_, "tcp.segments_out")));
    fp.add(download.received().value());
    for (const auto& u : uploads) fp.add(u->sent().value());
    fp.add(static_cast<std::uint64_t>((crash_at - start).ns));
    fp.add(static_cast<std::uint64_t>(static_cast<std::int64_t>(resume_ms * 1e6)));
    round_++;
  }

  Counts counts() {
    Counts c = own_;
    add_to(c, finished_);
    add_process_counts(c);
    return c;
  }

  std::vector<double> detect_ms_;
  std::vector<double> promote_ms_;
  std::vector<double> resume_ms_;

 private:
  void check(Outcome& out, testbed::Testbed& bed,
             const std::vector<std::unique_ptr<ReplicaApp>>& replicas,
             const std::vector<std::unique_ptr<ClientStream>>& uploads,
             const ClientStream& download, double resume_ms,
             std::size_t promoted) {
    const std::string where = "round " + std::to_string(round_) + ": ";
    std::uint64_t failed = 0;
    for (std::size_t i = 0; i < uploads.size(); ++i) {
      const ClientStream& u = *uploads[i];
      std::uint64_t want = expected_digest(u.key(), u.length());
      if (options_.break_check == "digest" && round_ == 0 && i == 1) want ^= 1;
      bool whole = u.closed() && u.close_reason() == Errc::ok &&
                   u.sent().value() == want;
      // Every replica still up holds the whole upload.
      for (std::size_t r = 1; r < replicas.size(); ++r) {
        const ReplicaApp::Session* s = replicas[r]->find(u.key());
        if (s == nullptr || !s->eof || s->digest.bytes() != u.length() ||
            s->digest.value() != want) {
          whole = false;
        }
      }
      if (!whole) {
        failed++;
        out.fail(where + "upload " + std::to_string(i) +
                 " did not arrive whole at every surviving replica (client close: " +
                 to_string(u.close_reason()) + ")");
      }
    }
    const std::uint64_t want = expected_digest(download.key(), download.length());
    if (!download.closed() || download.close_reason() != Errc::ok ||
        download.received().bytes() != download.length() ||
        download.received().value() != want) {
      failed++;
      out.fail(where + "service->client stream did not arrive whole (" +
               to_string(download.close_reason()) + ", " +
               std::to_string(download.received().bytes()) + " of " +
               std::to_string(download.length()) + " bytes)");
    }
    // Exactly one elimination and one promotion, and the stream resumed.
    std::uint64_t promotions = 0;
    for (std::size_t i = 0; i < bed.server_count(); ++i) {
      promotions += bed.agent(i).stats().promotions;
    }
    const auto& agent = bed.redirector_agent().stats();
    if (agent.replicas_eliminated != 1 || promotions != 1 || resume_ms < 0) {
      failed++;
      out.fail(where + std::to_string(agent.replicas_eliminated) +
               " eliminations, " + std::to_string(promotions) +
               " promotions, resume " + std::to_string(resume_ms) + " ms");
    }
    // Only the primary's segments reach the client: a replica that never
    // was primary puts no TCP segment on the wire.
    for (std::size_t i = 1; i < bed.server_count(); ++i) {
      if (i == promoted) continue;
      const tcp::TcpConnection::Stats s = bed.server(i).tcp().aggregate_stats();
      if (s.segments_sent != s.segments_swallowed) {
        out.fail(where + "backup server" + std::to_string(i + 1) + " sent " +
                 std::to_string(s.segments_sent - s.segments_swallowed) +
                 " segments toward the client");
      }
    }
    own_["attempted"] += static_cast<double>(uploads.size() + 2);
    own_["failed"] += static_cast<double>(failed);
  }

  void add_counts(testbed::Testbed& bed) {
    std::vector<host::Host*> hosts{&bed.client(), &bed.redirector_host()};
    std::vector<link::Link*> links{&bed.client_link()};
    for (std::size_t i = 0; i < bed.server_count(); ++i) {
      hosts.push_back(&bed.server(i));
      links.push_back(&bed.server_link(i));
    }
    add_network_counts(finished_, bed.net(), hosts, links);
    add_redirector_counts(finished_, bed.redirector());
    const stats::Registry& registry = bed.stats();
    for (const char* name : {"ftcp.deposit_gate_stalls", "ftcp.send_gate_stalls",
                             "ftcp.ack_channel_sent"}) {
      finished_[name] += static_cast<double>(registry.total(name));
    }
    finished_["ftcp.gate_cached_checks"] +=
        static_cast<double>(registry.total("ftcp.gate.cached_checks"));
    finished_["mgmt.replicas_eliminated"] +=
        static_cast<double>(bed.redirector_agent().stats().replicas_eliminated);
  }

  const Options& options_;
  FrameCapture& capture_;
  std::uint64_t round_ = 0;
  Counts own_;
  Counts finished_;
};

}  // namespace

Outcome run_ft_ttcp_failover(const Options& options) {
  Outcome out;
  out.cycle = kCycle;
  FrameCapture capture;
  FailoverRounds rounds(options, capture);
  Fingerprint fp;
  // Set-up: warm-up rounds, each standing up its own testbed and running
  // the whole scenario once (pools and caches fill before timing).
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const auto t0 = Clock::now();
    rounds.round(out, fp);
    out.setup_s.push_back(seconds_since(t0));
  }
  run_phases(
      options, capture, out, [&] { rounds.round(out, fp); },
      [&] { return rounds.counts(); });
  const Counts& c = out.plain.delta;
  out.gauges["mgmt.detect_ms"] = median(rounds.detect_ms_);
  out.gauges["mgmt.promote_ms"] = median(rounds.promote_ms_);
  out.gauges["mgmt.failover_resume_ms"] = median(rounds.resume_ms_);
  out.gauges["apps.sim_goodput_kBps"] =
      get(c, "goodput_bytes") / 1000.0 / (get(c, "goodput_ns") / 1e9);
  out.fingerprint = fp.value();
  return out;
}

}  // namespace perfbench
