// Shared plumbing of the benchmark of record (README.md): options, seeded
// inputs and the benchmark's own stream hash, counters read from the
// libraries' public accessors, the span recorder of the traced mode, and
// the frame capture whose replay times single layers on a workload's own
// frames.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "host/network.hpp"
#include "link/link.hpp"
#include "redirector/redirector.hpp"

namespace perfbench {

using hydranet::Bytes;
using hydranet::BytesView;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// > 0: run exactly this many measured rounds instead of filling
  /// `seconds` (the self-test's short form).
  int rounds = 0;
  /// connscale_2shard only: connections in the fleet (0 = the default).
  std::size_t conns = 0;
  /// Names one correctness check to break on purpose (self-test).
  std::string break_check;
  /// Traced mode: where the recorded spans are written at exit.
  std::string spans_path;
};

// ---- seeded inputs and the benchmark's own hash ----------------------------

inline std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Small deterministic generator for input make-up (sizes, choices).
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() { return splitmix64(state_++); }
  /// Uniform in [lo, hi].
  std::uint64_t range(std::uint64_t lo, std::uint64_t hi) {
    return lo + next() % (hi - lo + 1);
  }
  double unit() { return static_cast<double>(next() >> 11) * 0x1p-53; }

 private:
  std::uint64_t state_;
};

/// Byte `offset` of the content stream named by `key`: what the benchmark
/// asks a sender to send, and regenerates to check what arrived.
inline std::uint8_t content_byte(std::uint64_t key, std::uint64_t offset) {
  const std::uint64_t word =
      splitmix64(key ^ ((offset >> 3) * 0x2545f4914f6cdd1dull));
  return static_cast<std::uint8_t>(word >> ((offset & 7) * 8));
}
void fill_content(std::uint64_t key, std::uint64_t offset, std::uint8_t* out,
                  std::size_t len);

/// The benchmark's own running digest over a byte stream (independent of
/// the library's hashing, so a fault shared by sender and receiver code in
/// the program cannot hide behind a matching digest).
class StreamDigest {
 public:
  void update(BytesView data) {
    for (std::uint8_t b : data) {
      h_ = ((h_ << 7) | (h_ >> 57)) ^ b;
      h_ *= 0x9e3779b97f4a7c15ull;
    }
    bytes_ += data.size();
  }
  std::uint64_t value() const { return h_ ^ bytes_; }
  std::uint64_t bytes() const { return bytes_; }

 private:
  std::uint64_t h_ = 0x6a09e667f3bcc909ull;
  std::uint64_t bytes_ = 0;
};

/// Digest of `length` bytes of content stream `key`, computed directly.
std::uint64_t expected_digest(std::uint64_t key, std::uint64_t length);

/// Order-sensitive fold of everything a workload simulated.
class Fingerprint {
 public:
  void add(std::uint64_t v) { h_ = splitmix64(h_ ^ v); }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0;
};

// ---- process memory ----------------------------------------------------------

/// A "Vm...:" field of /proc/self/status, in bytes (0 if unavailable).
std::uint64_t proc_status_bytes(const char* field);
inline std::uint64_t rss_bytes() { return proc_status_bytes("VmRSS:"); }
inline std::uint64_t peak_rss_bytes() { return proc_status_bytes("VmHWM:"); }

// ---- counters ----------------------------------------------------------------

/// Named cumulative counts; phases report the difference of two reads.
using Counts = std::map<std::string, double>;
Counts operator-(const Counts& after, const Counts& before);
/// The named count, 0 when absent.
double get(const Counts& counts, const std::string& name);
void add_to(Counts& into, const Counts& from);

/// Process-wide blocks (datapath pool, inline-callback fallbacks, rx
/// bursts) plus the events returned by every run_for() below.
void add_process_counts(Counts& into);
/// Per-network counters: link frames/drops/queue depth, ip, tcp, the
/// engine's schedulers and shards.
void add_network_counts(Counts& into, hydranet::host::Network& net,
                        const std::vector<hydranet::host::Host*>& hosts,
                        const std::vector<hydranet::link::Link*>& links);
void add_redirector_counts(Counts& into,
                           const hydranet::redirector::Redirector& r);
/// Pending events summed over every shard's scheduler.
std::uint64_t pending_events(hydranet::host::Network& net);
/// 99th percentile of the merged link queue-depth histogram held in
/// `counts` ("link.qd.<bucket>" keys).
double queue_depth_p99(const Counts& counts);

// ---- traced mode: spans --------------------------------------------------------

enum class SpanKind : std::uint8_t {
  run_for,       ///< Network::run_for
  udp_send_to,   ///< UdpSocket::send_to
  tcp_send,      ///< TcpConnection::send
  tcp_recv,      ///< TcpConnection::recv
  tcp_connect,   ///< TcpStack::connect
  crash_server,  ///< Testbed::crash_server
  app_rx,        ///< the benchmark's own application rx callbacks
  kCount,
};
const char* span_name(SpanKind kind);

struct SpanTotals {
  std::uint64_t count = 0;
  double total_ns = 0;  ///< inclusive
  double self_ns = 0;   ///< minus the time covered by child spans
};

/// Enables or disables span recording (process-wide).
void set_tracing(bool on);
bool tracing();
/// Per-kind totals summed over every thread that recorded spans.
std::vector<SpanTotals> span_totals();
/// Writes every kept span as Chrome trace-event JSON.
bool write_spans(const std::string& path);

/// RAII span around one call into a layer; free when tracing is off.
class Span {
 public:
  explicit Span(SpanKind kind);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  bool active_ = false;
};

/// Network::run_for inside a span, adding the executed events to the
/// process count `sim.events`.
std::size_t run_for(hydranet::host::Network& net, hydranet::sim::Duration d);

// ---- traced mode: frame capture and layer replay ---------------------------------

/// Keeps a uniform sample (reservoir) of the frames the attached links
/// carry while enabled, as private copies.  Taps may fire on several shard
/// threads at once.
class FrameCapture {
 public:
  void attach(hydranet::link::Link& link);
  void set_enabled(bool on) { enabled_.store(on); }
  std::vector<Bytes> take();

 private:
  void offer(const hydranet::PacketBuffer& frame);

  static constexpr std::size_t kCapacity = 20000;
  std::mutex mu_;
  std::atomic<bool> enabled_{false};
  std::uint64_t seen_ = 0;
  Rng rng_{0x5eed};
  std::vector<Bytes> frames_;
};

struct ReplayTimes {
  double parse_tcp_ns = 0;     ///< per segment (header + checksum verify)
  double decap_ns = 0;         ///< per IP-in-IP datagram
  double checksum_ns_per_KiB = 0;
  double pool_cycle_ns = 0;    ///< acquire_pooled_bytes + recycle, per frame
};
/// Times the layers on the captured frames (median of several passes).
ReplayTimes replay(const std::vector<Bytes>& frames);

// ---- results ---------------------------------------------------------------------

using Clock = std::chrono::steady_clock;
inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}
double median(std::vector<double> values);

/// One measured round: its wall time and the two counts the end-to-end
/// rates are made of.
struct RoundSample {
  double wall_s = 0;
  double frames = 0;
  double app_bytes = 0;
};

/// One measured phase: whole rounds until the time budget is spent.
struct Phase {
  int rounds = 0;
  double wall_s = 0;  ///< time spent inside the rounds
  Counts delta;       ///< counters over the phase
  std::vector<RoundSample> samples;

  /// Rate of a per-round count over wall time for a phase whose rounds
  /// repeat a cycle of `cycle` distinct inputs: the per-input medians of
  /// count and wall time are summed over the cycle, so a round that shared
  /// the machine with a burst of other work does not move the figure.
  double cycle_rate(double RoundSample::*count, int cycle) const;
};

/// What a workload hands back to main().
struct Outcome {
  bool correct = true;
  std::vector<std::string> errors;  ///< first few check failures
  std::vector<double> setup_s;      ///< one per set-up repetition
  Phase plain;                      ///< untraced phase
  Phase traced;                     ///< traced phase (trace mode only)
  int cycle = 1;                    ///< distinct round inputs, repeated
  std::vector<Bytes> frames;        ///< captured in the traced phase
  /// Operations attempted and failed, as each workload counts them
  /// (README "Workloads").
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t fingerprint = 0;
  /// Workload-level figures that are not deltas (gauges, medians).
  std::map<std::string, double> gauges;

  void fail(const std::string& what);
};

/// Runs `round` until `seconds` have passed (at least one round), or
/// exactly `fixed_rounds` when positive; `counts` reads the cumulative
/// counters around every round, outside the timed part.
template <typename RoundFn, typename CountsFn>
Phase measure(double seconds, int fixed_rounds, RoundFn&& round,
              CountsFn&& counts) {
  Phase phase;
  phase.samples.reserve(1 << 14);  // fixed bookkeeping, whatever the pace
  const Counts first = counts();
  Counts last = first;
  const auto start = Clock::now();
  while (fixed_rounds > 0 ? phase.rounds < fixed_rounds
                          : phase.rounds == 0 || seconds_since(start) < seconds) {
    const auto t0 = Clock::now();
    round();
    const double wall = seconds_since(t0);
    Counts now = counts();
    phase.samples.push_back(
        {wall, get(now, "link.frames") - get(last, "link.frames"),
         get(now, "app_bytes") - get(last, "app_bytes")});
    last = std::move(now);
    phase.wall_s += wall;
    phase.rounds++;
  }
  phase.delta = last - first;
  return phase;
}

/// The measured phases of a run: `seconds` untraced or, with --trace 1,
/// half untraced and half traced (spans recorded, frames captured).
/// Operations are summed over both.
template <typename RoundFn, typename CountsFn>
void run_phases(const Options& options, FrameCapture& capture, Outcome& out,
                RoundFn&& round, CountsFn&& counts) {
  const double budget = options.trace ? options.seconds / 2 : options.seconds;
  out.plain = measure(budget, options.rounds, round, counts);
  if (options.trace) {
    set_tracing(true);
    capture.set_enabled(true);
    out.traced = measure(budget, options.rounds, round, counts);
    capture.set_enabled(false);
    set_tracing(false);
    out.frames = capture.take();
  }
  for (const Phase* phase : {&out.plain, &out.traced}) {
    out.attempted += static_cast<std::uint64_t>(get(phase->delta, "attempted"));
    out.failed += static_cast<std::uint64_t>(get(phase->delta, "failed"));
  }
}

Outcome run_ft_ttcp_failover(const Options& options);
Outcome run_udp_fanout_small(const Options& options);
Outcome run_connscale_2shard(const Options& options);

}  // namespace perfbench
