#include "bench.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "common/packet_buffer.hpp"
#include "net/ipv4.hpp"
#include "net/tcp_header.hpp"
#include "net/tunnel.hpp"
#include "stats/metrics.hpp"

namespace perfbench {

using namespace hydranet;

// ---- inputs and digests --------------------------------------------------------

void fill_content(std::uint64_t key, std::uint64_t offset, std::uint8_t* out,
                  std::size_t len) {
  for (std::size_t i = 0; i < len; ++i) out[i] = content_byte(key, offset + i);
}

std::uint64_t expected_digest(std::uint64_t key, std::uint64_t length) {
  StreamDigest digest;
  std::uint8_t chunk[4096];
  for (std::uint64_t off = 0; off < length; off += sizeof chunk) {
    const std::size_t n =
        static_cast<std::size_t>(std::min<std::uint64_t>(sizeof chunk, length - off));
    fill_content(key, off, chunk, n);
    digest.update(BytesView(chunk, n));
  }
  return digest.value();
}

// ---- process memory ------------------------------------------------------------

std::uint64_t proc_status_bytes(const char* field) {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f != nullptr) {
    char line[256];
    const std::size_t n = std::strlen(field);
    while (std::fgets(line, sizeof line, f) != nullptr) {
      if (std::strncmp(line, field, n) == 0) {
        std::fclose(f);
        return std::strtoull(line + n, nullptr, 10) * 1024;
      }
    }
    std::fclose(f);
  }
  if (std::strcmp(field, "VmHWM:") == 0) {
    rusage usage{};
    if (getrusage(RUSAGE_SELF, &usage) == 0) {
      return static_cast<std::uint64_t>(usage.ru_maxrss) * 1024;
    }
  }
  return 0;
}

// ---- counters ------------------------------------------------------------------

namespace {
std::uint64_t g_run_for_events = 0;
}

Counts operator-(const Counts& after, const Counts& before) {
  Counts out = after;
  for (const auto& [name, value] : before) out[name] -= value;
  return out;
}

double get(const Counts& counts, const std::string& name) {
  auto it = counts.find(name);
  return it == counts.end() ? 0 : it->second;
}

void add_to(Counts& into, const Counts& from) {
  for (const auto& [name, value] : from) into[name] += value;
}

void add_process_counts(Counts& into) {
  const DatapathCounters dp = datapath_totals();
  into["common.pool_hits"] += static_cast<double>(dp.pool_hits);
  into["common.pool_misses"] += static_cast<double>(dp.pool_misses);
  into["common.allocations"] += static_cast<double>(dp.allocations);
  into["common.copied_bytes"] += static_cast<double>(dp.copied_bytes);
  into["common.inline_fn_heap_allocs"] +=
      static_cast<double>(inline_function_heap_allocs_total());
  const link::BatchCounters batch = link::batch_counters_total();
  into["batch.bursts"] += static_cast<double>(batch.bursts);
  into["batch.packets"] += static_cast<double>(batch.packets);
  into["sim.events"] += static_cast<double>(g_run_for_events);
}

void add_network_counts(Counts& into, host::Network& net,
                        const std::vector<host::Host*>& hosts,
                        const std::vector<link::Link*>& links) {
  for (const link::Link* l : links) {
    const link::Link::Stats s = l->stats();
    into["link.frames"] += static_cast<double>(s.delivered);
    into["link.queue_drops"] += static_cast<double>(s.queue_drops);
    const stats::Histogram depth = l->queue_depth();
    const std::vector<std::uint64_t>& buckets = depth.bucket_counts();
    for (std::size_t i = 0; i < buckets.size(); ++i) {
      into["link.qd." + std::to_string(i)] += static_cast<double>(buckets[i]);
    }
  }
  for (host::Host* h : hosts) {
    const ip::IpStack::Stats& ip = h->ip().stats();
    into["ip.forwarded"] += static_cast<double>(ip.forwarded);
    into["ip.fragments_sent"] += static_cast<double>(ip.fragments_sent);
    into["ip.reassembled"] += static_cast<double>(ip.reassembled);
    const tcp::TcpConnection::Stats tcp = h->tcp().aggregate_stats();
    into["tcp.segments_out"] += static_cast<double>(tcp.segments_sent);
    into["tcp.fastpath_hits"] += static_cast<double>(tcp.fastpath_hits);
    into["tcp.fastpath_misses"] += static_cast<double>(tcp.fastpath_misses);
    into["tcp.retransmits"] += static_cast<double>(tcp.retransmits);
    into["tcp.keepalives_sent"] += static_cast<double>(tcp.keepalives_sent);
    into["ftcp.segments_swallowed"] +=
        static_cast<double>(tcp.segments_swallowed);
  }
  sim::ShardEngine& engine = net.engine();
  for (std::size_t s = 0; s < engine.shards(); ++s) {
    into["sim.wheel_inserts"] +=
        static_cast<double>(engine.scheduler(s).wheel_inserts());
    into["sim.wheel_cascades"] +=
        static_cast<double>(engine.scheduler(s).wheel_cascades());
    const sim::ShardEngine::Counters& c = engine.counters(s);
    into["sim.shard_events." + std::to_string(s)] +=
        static_cast<double>(c.events);
    into["sim.shard_epochs"] += static_cast<double>(c.epochs);
    into["sim.shard_mailbox_posted"] += static_cast<double>(c.mailbox_posted);
    into["sim.shard_mailbox_overflows"] +=
        static_cast<double>(c.mailbox_overflows);
  }
}

void add_redirector_counts(Counts& into, const redirector::Redirector& r) {
  const redirector::Redirector::Stats& s = r.stats();
  into["redirector.copies_sent"] += static_cast<double>(s.copies_sent);
  into["redirector.inner_serializations"] +=
      static_cast<double>(s.inner_serializations);
  into["redirector.passed_through"] += static_cast<double>(s.passed_through);
}

std::uint64_t pending_events(host::Network& net) {
  std::uint64_t total = 0;
  for (std::size_t s = 0; s < net.engine().shards(); ++s) {
    total += net.engine().scheduler(s).pending();
  }
  return total;
}

double queue_depth_p99(const Counts& counts) {
  const std::vector<double>& bounds = stats::queue_depth_buckets();
  std::vector<double> buckets(bounds.size() + 1, 0);
  double total = 0;
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    auto it = counts.find("link.qd." + std::to_string(i));
    if (it != counts.end()) buckets[i] = it->second;
    total += buckets[i];
  }
  if (total <= 0) return 0;
  double cumulative = 0;
  for (std::size_t i = 0; i < bounds.size(); ++i) {
    cumulative += buckets[i];
    if (cumulative >= 0.99 * total) return bounds[i];
  }
  return bounds.back();
}

// ---- spans ---------------------------------------------------------------------

namespace {

constexpr std::size_t kKinds = static_cast<std::size_t>(SpanKind::kCount);
constexpr std::size_t kMaxKeptSpans = 100000;

struct SpanRecord {
  SpanKind kind;
  std::uint32_t parent;  ///< 1-based index in the same thread's records
  std::int64_t start_ns;
  std::int64_t end_ns;
};

struct OpenSpan {
  SpanKind kind;
  std::uint32_t index;  ///< 1-based record index, 0 when not kept
  std::int64_t start_ns;
  double child_ns;
};

struct ThreadSpans {
  std::size_t tid = 0;
  std::vector<SpanRecord> kept;
  std::vector<OpenSpan> open;
  SpanTotals totals[kKinds];
};

std::atomic<bool> g_tracing{false};
std::atomic<std::size_t> g_kept{0};
std::mutex g_threads_mu;
std::vector<std::unique_ptr<ThreadSpans>> g_threads;

ThreadSpans& local_spans() {
  thread_local ThreadSpans* mine = [] {
    std::lock_guard<std::mutex> lock(g_threads_mu);
    g_threads.push_back(std::make_unique<ThreadSpans>());
    g_threads.back()->tid = g_threads.size();
    return g_threads.back().get();
  }();
  return *mine;
}

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

}  // namespace

const char* span_name(SpanKind kind) {
  switch (kind) {
    case SpanKind::run_for: return "Network::run_for";
    case SpanKind::udp_send_to: return "UdpSocket::send_to";
    case SpanKind::tcp_send: return "TcpConnection::send";
    case SpanKind::tcp_recv: return "TcpConnection::recv";
    case SpanKind::tcp_connect: return "TcpStack::connect";
    case SpanKind::crash_server: return "Testbed::crash_server";
    case SpanKind::app_rx: return "app rx callback";
    case SpanKind::kCount: break;
  }
  return "?";
}

void set_tracing(bool on) { g_tracing.store(on); }
bool tracing() { return g_tracing.load(std::memory_order_relaxed); }

Span::Span(SpanKind kind) {
  if (!tracing()) return;
  active_ = true;
  ThreadSpans& t = local_spans();
  std::uint32_t index = 0;
  const std::int64_t start = now_ns();
  if (g_kept.fetch_add(1, std::memory_order_relaxed) < kMaxKeptSpans) {
    const std::uint32_t parent = t.open.empty() ? 0 : t.open.back().index;
    t.kept.push_back(SpanRecord{kind, parent, start, start});
    index = static_cast<std::uint32_t>(t.kept.size());
  }
  t.open.push_back(OpenSpan{kind, index, start, 0});
}

Span::~Span() {
  if (!active_) return;
  ThreadSpans& t = local_spans();
  const OpenSpan span = t.open.back();
  t.open.pop_back();
  const std::int64_t end = now_ns();
  const double duration = static_cast<double>(end - span.start_ns);
  SpanTotals& totals = t.totals[static_cast<std::size_t>(span.kind)];
  totals.count++;
  totals.total_ns += duration;
  totals.self_ns += duration - span.child_ns;
  if (!t.open.empty()) t.open.back().child_ns += duration;
  if (span.index != 0) t.kept[span.index - 1].end_ns = end;
}

std::vector<SpanTotals> span_totals() {
  std::vector<SpanTotals> out(kKinds);
  std::lock_guard<std::mutex> lock(g_threads_mu);
  for (const auto& t : g_threads) {
    for (std::size_t k = 0; k < kKinds; ++k) {
      out[k].count += t->totals[k].count;
      out[k].total_ns += t->totals[k].total_ns;
      out[k].self_ns += t->totals[k].self_ns;
    }
  }
  return out;
}

bool write_spans(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::lock_guard<std::mutex> lock(g_threads_mu);
  std::int64_t origin = INT64_MAX;
  for (const auto& t : g_threads) {
    for (const SpanRecord& r : t->kept) origin = std::min(origin, r.start_ns);
  }
  std::fprintf(f, "{\"traceEvents\":[");
  bool first = true;
  for (const auto& t : g_threads) {
    for (std::size_t i = 0; i < t->kept.size(); ++i) {
      const SpanRecord& r = t->kept[i];
      std::fprintf(f,
                   "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%zu,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                   "\"parent\":%u}}",
                   first ? "" : ",", span_name(r.kind), t->tid,
                   static_cast<double>(r.start_ns - origin) / 1000.0,
                   static_cast<double>(r.end_ns - r.start_ns) / 1000.0, i + 1,
                   r.parent);
      first = false;
    }
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

std::size_t run_for(host::Network& net, sim::Duration d) {
  Span span(SpanKind::run_for);
  const std::size_t events = net.run_for(d);
  g_run_for_events += events;
  return events;
}

// ---- frame capture and replay -----------------------------------------------

void FrameCapture::attach(link::Link& link) {
  link.set_tap([this](const link::NetworkInterface&, const PacketBuffer& frame) {
    if (enabled_.load(std::memory_order_relaxed)) offer(frame);
  });
}

void FrameCapture::offer(const PacketBuffer& frame) {
  std::lock_guard<std::mutex> lock(mu_);
  const std::uint64_t n = seen_++;
  if (frames_.size() < kCapacity) {
    frames_.push_back(frame.flatten_copy());
    return;
  }
  const std::uint64_t slot = rng_.next() % (n + 1);
  if (slot < kCapacity) frames_[slot] = frame.flatten_copy();
}

std::vector<Bytes> FrameCapture::take() {
  std::lock_guard<std::mutex> lock(mu_);
  return std::move(frames_);
}

namespace {

volatile std::uint64_t g_sink = 0;

template <typename Fn>
double median_pass_ns(int passes, Fn&& pass) {
  std::vector<double> samples;
  for (int p = 0; p < passes; ++p) {
    const auto t0 = Clock::now();
    pass();
    samples.push_back(
        std::chrono::duration<double, std::nano>(Clock::now() - t0).count());
  }
  return median(samples);
}

}  // namespace

ReplayTimes replay(const std::vector<Bytes>& frames) {
  struct TcpInput {
    CowBytes payload;
    net::Ipv4Address src;
    net::Ipv4Address dst;
  };
  std::vector<net::Datagram> tunnelled;
  std::vector<TcpInput> segments;
  std::size_t total_bytes = 0;
  for (const Bytes& f : frames) {
    total_bytes += f.size();
    auto parsed = net::Datagram::parse(PacketBuffer(Bytes(f)));
    if (!parsed || parsed.value().header.is_fragment()) continue;
    net::Datagram& d = parsed.value();
    if (d.header.protocol == net::IpProto::ipip) {
      auto inner = net::decapsulate_ipip(d);
      tunnelled.push_back(d);
      if (inner && inner.value().header.protocol == net::IpProto::tcp &&
          !inner.value().header.is_fragment()) {
        const net::Datagram& in = inner.value();
        segments.push_back({in.payload, in.header.src, in.header.dst});
      }
    } else if (d.header.protocol == net::IpProto::tcp) {
      segments.push_back({d.payload, d.header.src, d.header.dst});
    }
  }

  constexpr int kPasses = 7;
  ReplayTimes out;
  if (!segments.empty()) {
    const double ns = median_pass_ns(kPasses, [&] {
      std::uint64_t ok = 0;
      for (const TcpInput& s : segments) {
        ok += net::parse_tcp(s.payload, s.src, s.dst).ok() ? 1 : 0;
      }
      g_sink = g_sink + ok;
    });
    out.parse_tcp_ns = ns / static_cast<double>(segments.size());
  }
  if (!tunnelled.empty()) {
    const double ns = median_pass_ns(kPasses, [&] {
      std::uint64_t ok = 0;
      for (const net::Datagram& d : tunnelled) {
        ok += net::decapsulate_ipip(d).ok() ? 1 : 0;
      }
      g_sink = g_sink + ok;
    });
    out.decap_ns = ns / static_cast<double>(tunnelled.size());
  }
  if (total_bytes > 0) {
    const double ns = median_pass_ns(kPasses, [&] {
      std::uint32_t acc = 0;
      for (const Bytes& f : frames) acc += checksum_accumulate(BytesView(f), 0);
      g_sink = g_sink + acc;
    });
    out.checksum_ns_per_KiB = ns / (static_cast<double>(total_bytes) / 1024.0);
    const double pool_ns = median_pass_ns(kPasses, [&] {
      for (const Bytes& f : frames) {
        Bytes b = acquire_pooled_bytes(f.size());
        g_sink = g_sink + b.capacity();
        detail::recycle_storage_bytes(std::move(b));
      }
    });
    out.pool_cycle_ns = pool_ns / static_cast<double>(frames.size());
  }
  return out;
}

// ---- results ---------------------------------------------------------------

double median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

double Phase::cycle_rate(double RoundSample::*count, int cycle) const {
  double units = 0;
  double wall = 0;
  for (int k = 0; k < cycle; ++k) {
    std::vector<double> counts;
    std::vector<double> walls;
    for (std::size_t r = static_cast<std::size_t>(k); r < samples.size();
         r += static_cast<std::size_t>(cycle)) {
      counts.push_back(samples[r].*count);
      walls.push_back(samples[r].wall_s);
    }
    if (walls.empty()) continue;
    units += median(counts);
    wall += median(walls);
  }
  return wall > 0 ? units / wall : 0;
}

void Outcome::fail(const std::string& what) {
  correct = false;
  if (errors.size() < 8) errors.push_back(what);
}

}  // namespace perfbench
