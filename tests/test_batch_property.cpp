// Differential property tests for link rx batching (Link::Config
// batch_frames):
//   - batch_frames = 1 IS the legacy path: streams, event timeline, and
//     the full metrics snapshot must be byte-identical to a default-config
//     run, and the scheduler.batch.* counters must stay untouched;
//   - batch_frames > 1 trades arrival timing for event amortisation: the
//     application streams must still be byte-identical, while the batch
//     counters show multiple frames per dispatch;
//   - a deep backlog (thousands of frames queued behind one batch) is
//     delivered exactly once, in send order, at the documented instants,
//     including while burst handlers transmit re-entrantly and while new
//     frames join a backlog whose head is partly consumed.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "apps/ttcp.hpp"
#include "link/link.hpp"
#include "sim/scheduler.hpp"
#include "test_util.hpp"

namespace hydranet {
namespace {

using testutil::ByteSinkServer;
using testutil::DropNth;
using testutil::Pair;
using testutil::ip;

/// Everything observable about one echo transfer over a Pair link.
struct RunResult {
  std::uint64_t sink_checksum = 0;
  std::uint64_t echo_checksum = 0;
  std::size_t sink_bytes = 0;
  std::size_t echo_bytes = 0;
  std::vector<std::string> timeline;
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, std::string> histograms;
  std::uint64_t batch_bursts = 0;  ///< delta accumulated by this run
  std::uint64_t batch_packets = 0;
};

/// Process-global counters that accumulate across Networks in one test
/// binary and legitimately differ between runs.
bool excluded_metric(const std::string& node, const std::string& name) {
  if (node == "datapath" || node == "verify") return true;
  if (name == "scheduler.alloc_fallbacks") return true;
  if (name == "scheduler.batch.bursts" || name == "scheduler.batch.packets") {
    return true;  // compared via the explicit per-run delta instead
  }
  return false;
}

RunResult run_echo(link::Link::Config config, double drop_data_segments) {
  const link::BatchCounters before = link::batch_counters();
  RunResult result;
  {
    Pair pair(config);
    if (drop_data_segments > 0) {
      pair.link.set_loss_model(std::make_unique<DropNth>(
          std::vector<std::uint64_t>{3, 11, 12, 30}, 200));
    }
    tcp::TcpOptions server_options;
    server_options.send_buffer_capacity = 256 * 1024;
    ByteSinkServer sink(pair.b, ip(10, 0, 0, 2), 9000, /*echo_back=*/true,
                        server_options);
    auto client = pair.a.tcp()
                      .connect(net::Ipv4Address(),
                               net::Endpoint{ip(10, 0, 0, 2), 9000})
                      .value();
    Bytes echoed;
    client->set_on_readable([&] {
      for (;;) {
        auto data = client->recv(64 * 1024);
        if (!data || data.value().empty()) return;
        echoed.insert(echoed.end(), data.value().begin(), data.value().end());
      }
    });
    const Bytes payload = apps::ttcp_pattern(128 * 1024, 9);
    std::size_t sent = 0;
    auto pump = [&] {
      while (sent < payload.size()) {
        auto took = client->send(
            BytesView(payload.data() + sent, payload.size() - sent));
        if (!took || took.value() == 0) return;
        sent += took.value();
      }
    };
    client->set_on_established(pump);
    client->set_on_writable(pump);
    pair.net.run_for(sim::seconds(60));

    result.sink_checksum = apps::fnv1a(sink.received);
    result.sink_bytes = sink.received.size();
    result.echo_checksum = apps::fnv1a(echoed);
    result.echo_bytes = echoed.size();

    pair.net.publish_metrics();
    for (const auto& [node, metrics] : pair.net.metrics().nodes()) {
      for (const auto& [name, counter] : metrics.counters) {
        if (excluded_metric(node, name)) continue;
        result.counters[node + "/" + name] = counter.value();
      }
      for (const auto& [name, histogram] : metrics.histograms) {
        if (excluded_metric(node, name)) continue;
        std::ostringstream fold;
        fold << histogram.count() << ":" << histogram.sum();
        result.histograms[node + "/" + name] = fold.str();
      }
    }
    for (const auto& event : pair.net.metrics().timeline().events()) {
      result.timeline.push_back(event.to_string());
    }
  }
  const link::BatchCounters after = link::batch_counters();
  result.batch_bursts = after.bursts - before.bursts;
  result.batch_packets = after.packets - before.packets;
  return result;
}

void expect_streams_identical(const RunResult& a, const RunResult& b) {
  EXPECT_EQ(a.sink_bytes, b.sink_bytes);
  EXPECT_EQ(a.sink_checksum, b.sink_checksum);
  EXPECT_EQ(a.echo_bytes, b.echo_bytes);
  EXPECT_EQ(a.echo_checksum, b.echo_checksum);
}

TEST(BatchProperty, BatchOneIsByteIdenticalToLegacy) {
  for (double loss : {0.0, 1.0}) {
    RunResult legacy = run_echo(link::Link::Config{}, loss);
    link::Link::Config batched;
    batched.batch_frames = 1;
    RunResult one = run_echo(batched, loss);

    expect_streams_identical(legacy, one);
    ASSERT_EQ(legacy.timeline.size(), one.timeline.size());
    for (std::size_t i = 0; i < legacy.timeline.size(); ++i) {
      EXPECT_EQ(legacy.timeline[i], one.timeline[i]) << "timeline entry " << i;
    }
    EXPECT_EQ(legacy.counters, one.counters);
    EXPECT_EQ(legacy.histograms, one.histograms);
    // batch=1 takes the one-event-per-frame path: the batching machinery
    // must never have engaged.
    EXPECT_EQ(legacy.batch_bursts, 0u);
    EXPECT_EQ(one.batch_bursts, 0u);
    EXPECT_EQ(one.batch_packets, 0u);
    // Sanity: the transfer really ran (full round trip, lossy or not).
    EXPECT_EQ(one.sink_bytes, 128u * 1024u);
    EXPECT_EQ(one.echo_bytes, 128u * 1024u);
  }
}

TEST(BatchProperty, BatchedRunsPreserveStreams) {
  for (double loss : {0.0, 1.0}) {
    RunResult one = run_echo(link::Link::Config{}, loss);
    link::Link::Config batched;
    batched.batch_frames = 8;
    RunResult eight = run_echo(batched, loss);

    // Timing differs (full batches coalesce to the newest arrival), but
    // both directions of the application stream must be byte-identical.
    expect_streams_identical(one, eight);
    EXPECT_EQ(eight.sink_bytes, 128u * 1024u);
    // The batched run really amortised: fewer dispatches than frames.
    EXPECT_GT(eight.batch_bursts, 0u);
    EXPECT_GT(eight.batch_packets, eight.batch_bursts);
  }
}

// ---- deep backlogs on one batched link -------------------------------------

constexpr std::size_t kFrameBytes = 125;  // 1 us at 1 Gb/s
constexpr sim::Duration kTx = sim::microseconds(1);
constexpr sim::Duration kPropagation = sim::microseconds(50);

/// Frame `seq` of stream `tag`: the sequence number and tag ride in the
/// first five bytes, the rest is a fill derived from both.
Bytes make_frame(std::uint32_t seq, std::uint8_t tag) {
  Bytes frame(kFrameBytes, static_cast<std::uint8_t>(seq * 31 + tag));
  for (int i = 0; i < 4; ++i) {
    frame[static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(seq >> (8 * i));
  }
  frame[4] = tag;
  return frame;
}

struct Received {
  std::uint32_t seq;
  std::uint8_t tag;
  sim::TimePoint at;
};

/// A batched link between two bare interfaces whose queue is far deeper
/// than one batch: frames are 1 us apart on the wire, so a burst of sends
/// at one instant builds a backlog that drains one arrival at a time.
struct BatchedLinkPair {
  static constexpr std::size_t kBatch = 8;

  sim::Scheduler scheduler;
  link::NetworkInterface a{"a", net::Ipv4Address(10, 0, 0, 1), 24};
  link::NetworkInterface b{"b", net::Ipv4Address(10, 0, 0, 2), 24};
  link::Link link;
  std::vector<Received> at_b;
  std::vector<Received> at_a;
  std::vector<std::size_t> burst_sizes_at_b;
  /// Optional per-frame hook run by b's burst handler after it records a
  /// frame and before it reads the next one.
  std::function<void(const Received&)> on_b;

  static link::Link::Config config() {
    link::Link::Config c;
    c.bandwidth_bps = 1e9;
    c.propagation = kPropagation;
    c.queue_capacity_packets = 1 << 16;
    c.batch_frames = kBatch;
    return c;
  }

  BatchedLinkPair() : link(scheduler, config()) {
    link.attach(a, b);
    b.set_rx_burst_handler([this](PacketBuffer* frames, std::size_t count) {
      burst_sizes_at_b.push_back(count);
      for (std::size_t i = 0; i < count; ++i) {
        const Received r = decode(frames[i]);
        at_b.push_back(r);
        if (on_b) on_b(r);
      }
    });
    a.set_rx_burst_handler([this](PacketBuffer* frames, std::size_t count) {
      for (std::size_t i = 0; i < count; ++i) {
        at_a.push_back(decode(frames[i]));
      }
    });
  }

  Received decode(const PacketBuffer& frame) const {
    const Bytes bytes = frame.flatten_copy();
    EXPECT_EQ(bytes.size(), kFrameBytes);
    std::uint32_t seq = 0;
    for (int i = 0; i < 4; ++i) {
      seq |= static_cast<std::uint32_t>(bytes[static_cast<std::size_t>(i)])
             << (8 * i);
    }
    const std::uint8_t tag = bytes[4];
    EXPECT_EQ(bytes, make_frame(seq, tag)) << "frame " << seq << " corrupted";
    return Received{seq, tag, scheduler.now()};
  }
};

/// Arrival instant of the n-th frame (0-based) of a back-to-back train
/// whose transmitter went idle->busy at `start`.
sim::TimePoint train_arrival(sim::TimePoint start, std::size_t n) {
  return start + kTx * static_cast<std::int64_t>(n + 1) + kPropagation;
}

TEST(BatchProperty, DeepBacklogDeliversOnceInOrderAtArrival) {
  constexpr std::size_t kFrames = 5000;
  constexpr std::size_t B = BatchedLinkPair::kBatch;
  BatchedLinkPair pair;
  const link::BatchCounters before = link::batch_counters();
  for (std::uint32_t i = 0; i < kFrames; ++i) {
    ASSERT_TRUE(pair.a.send(make_frame(i, 0)).ok());
  }
  pair.scheduler.run();
  const link::BatchCounters after = link::batch_counters();

  ASSERT_EQ(pair.at_b.size(), kFrames);
  const sim::TimePoint start{};
  for (std::size_t i = 0; i < kFrames; ++i) {
    ASSERT_EQ(pair.at_b[i].seq, i) << "delivered out of order";
    // The first batch coalesces into one event at its newest member's
    // arrival; once the backlog passes one batch, each flush delivers only
    // what is due, so every later frame lands at its own arrival instant.
    const sim::TimePoint expected =
        i < B ? train_arrival(start, B - 1) : train_arrival(start, i);
    ASSERT_EQ(pair.at_b[i].at.ns, expected.ns) << "frame " << i;
  }
  ASSERT_EQ(pair.burst_sizes_at_b.size(), 1 + (kFrames - B));
  EXPECT_EQ(pair.burst_sizes_at_b.front(), B);
  for (std::size_t k = 1; k < pair.burst_sizes_at_b.size(); ++k) {
    ASSERT_EQ(pair.burst_sizes_at_b[k], 1u) << "burst " << k;
  }
  EXPECT_EQ(after.bursts - before.bursts, pair.burst_sizes_at_b.size());
  EXPECT_EQ(after.packets - before.packets, kFrames);
  EXPECT_EQ(pair.link.stats().delivered, kFrames);
  EXPECT_EQ(pair.link.stats().queue_drops, 0u);
  EXPECT_EQ(pair.scheduler.pending(), 0u);
}

TEST(BatchProperty, BatchFillingBehindFrameInFlightWaitsForItsNewestMember) {
  // One frame is on the wire (serialised, still propagating) when a train
  // of seven more fills the batch: the flush moves to the seventh's
  // arrival, so the first frame waits seven serialisation times plus the
  // part of the propagation delay it had left behind it — more than
  // batch_frames serialisation times, within the documented bound.
  BatchedLinkPair pair;
  ASSERT_TRUE(pair.a.send(make_frame(0, 0)).ok());
  const sim::TimePoint first_arrival = train_arrival(sim::TimePoint{}, 0);
  pair.scheduler.run_until(sim::TimePoint{} + kTx + kPropagation / 2);
  const sim::TimePoint train_start = pair.scheduler.now();
  for (std::uint32_t i = 1; i <= BatchedLinkPair::kBatch; ++i) {
    ASSERT_TRUE(pair.a.send(make_frame(i, 0)).ok());
  }
  pair.scheduler.run();

  ASSERT_EQ(pair.at_b.size(), BatchedLinkPair::kBatch + 1);
  const sim::TimePoint coalesced =
      train_arrival(train_start, BatchedLinkPair::kBatch - 2);
  ASSERT_EQ(pair.burst_sizes_at_b.size(), 2u);
  EXPECT_EQ(pair.burst_sizes_at_b[0], BatchedLinkPair::kBatch);
  for (std::size_t i = 0; i < BatchedLinkPair::kBatch; ++i) {
    EXPECT_EQ(pair.at_b[i].seq, i);
    EXPECT_EQ(pair.at_b[i].at.ns, coalesced.ns) << "frame " << i;
  }
  EXPECT_EQ(pair.at_b.back().at.ns,
            train_arrival(train_start, BatchedLinkPair::kBatch - 1).ns);
  const sim::Duration lag = sim::Duration{coalesced.ns - first_arrival.ns};
  EXPECT_GT(lag, kTx * BatchedLinkPair::kBatch);
  EXPECT_LE(lag, kTx * BatchedLinkPair::kBatch + kPropagation);
}

TEST(BatchProperty, BurstHandlerMayTransmitBothWaysMidBurst) {
  // b's handler answers every 3rd frame on the reverse link and, every 5th
  // frame, pushes one more frame onto the very direction it is being
  // flushed from — a new frame appended while the head cursor sits in the
  // middle of the backlog and the burst span is still being read.
  constexpr std::uint32_t kFrames = 6000;
  BatchedLinkPair pair;
  std::uint32_t replies = 0;
  std::uint32_t extras = 0;
  pair.on_b = [&](const Received& r) {
    if (r.tag != 0) return;
    if (r.seq % 3 == 1) {
      ASSERT_TRUE(pair.b.send(make_frame(replies++, 1)).ok());
    }
    if (r.seq % 5 == 2) {
      ASSERT_TRUE(pair.a.send(make_frame(extras++, 2)).ok());
    }
  };
  const link::BatchCounters before = link::batch_counters();
  for (std::uint32_t i = 0; i < kFrames; ++i) {
    ASSERT_TRUE(pair.a.send(make_frame(i, 0)).ok());
  }
  pair.scheduler.run();
  const link::BatchCounters after = link::batch_counters();

  // Toward b: the original train in order, then every extra in the order it
  // was sent (each joined the tail of the backlog).
  ASSERT_EQ(pair.at_b.size(), kFrames + extras);
  for (std::uint32_t i = 0; i < kFrames; ++i) {
    ASSERT_EQ(pair.at_b[i].tag, 0);
    ASSERT_EQ(pair.at_b[i].seq, i);
  }
  for (std::uint32_t i = 0; i < extras; ++i) {
    ASSERT_EQ(pair.at_b[kFrames + i].tag, 2);
    ASSERT_EQ(pair.at_b[kFrames + i].seq, i);
  }
  // The first burst carried replies and extras from its own middle.
  EXPECT_EQ(pair.burst_sizes_at_b.front(), BatchedLinkPair::kBatch);
  // Toward a: every reply exactly once, in order.
  ASSERT_EQ(pair.at_a.size(), replies);
  EXPECT_EQ(replies, kFrames / 3);
  for (std::uint32_t i = 0; i < replies; ++i) {
    ASSERT_EQ(pair.at_a[i].tag, 1);
    ASSERT_EQ(pair.at_a[i].seq, i);
  }
  // Both directions' deliveries are accounted as batched packets.
  EXPECT_EQ(after.packets - before.packets, kFrames + extras + replies);
  EXPECT_EQ(pair.link.stats().delivered, kFrames + extras + replies);
  EXPECT_GE(after.bursts - before.bursts, pair.burst_sizes_at_b.size());
}

TEST(BatchProperty, TrainJoiningDrainedBacklogCoalescesAtFillTransition) {
  // A backlog drains until three frames are left, its head deep into the
  // storage; a new train then joins behind it.  The fill transition counts
  // the frames still pending (3 + 5 = one batch), not storage positions,
  // so the flush moves to the fifth new frame's arrival and the rest of
  // the train lands at its own arrivals.
  constexpr std::size_t kFirst = 125;
  constexpr std::size_t kTrain = 10;
  constexpr std::size_t B = BatchedLinkPair::kBatch;
  BatchedLinkPair pair;
  for (std::uint32_t i = 0; i < kFirst; ++i) {
    ASSERT_TRUE(pair.a.send(make_frame(i, 0)).ok());
  }
  pair.scheduler.run_until(train_arrival(sim::TimePoint{}, kFirst - 4));
  ASSERT_EQ(pair.at_b.size(), kFirst - 3);
  const sim::TimePoint train_start = pair.scheduler.now();
  for (std::uint32_t i = 0; i < kTrain; ++i) {
    ASSERT_TRUE(pair.a.send(make_frame(static_cast<std::uint32_t>(kFirst) + i,
                                       0))
                    .ok());
  }
  pair.scheduler.run();

  ASSERT_EQ(pair.at_b.size(), kFirst + kTrain);
  const std::size_t joined = B - 3;  // train frames that fill the batch
  const sim::TimePoint coalesced = train_arrival(train_start, joined - 1);
  for (std::size_t i = 0; i < kFirst + kTrain; ++i) {
    ASSERT_EQ(pair.at_b[i].seq, i) << "delivered out of order";
    sim::TimePoint expected;
    if (i < B) {
      expected = train_arrival(sim::TimePoint{}, B - 1);
    } else if (i < kFirst - 3) {
      expected = train_arrival(sim::TimePoint{}, i);
    } else if (i < kFirst + joined) {
      expected = coalesced;
    } else {
      expected = train_arrival(train_start, i - kFirst);
    }
    ASSERT_EQ(pair.at_b[i].at.ns, expected.ns) << "frame " << i;
  }
}

TEST(BatchProperty, BacklogRefilledWhileHeadIsMidBuffer) {
  // Waves of sends of varied size, each followed by a partial drain, so new
  // frames keep joining a backlog whose head is partway through its
  // storage: the tail wraps past the end, and the backlog outgrows its
  // storage while wrapped.
  const std::vector<std::size_t> waves = {5,  40, 3,    300, 1,   1500,
                                          2,  9,  3000, 64,  700, 4100,
                                          17, 1,  2048, 333};
  BatchedLinkPair pair;
  std::vector<sim::TimePoint> arrival;  // by sequence number
  sim::TimePoint transmitter_free{};
  std::uint32_t seq = 0;
  const link::BatchCounters before = link::batch_counters();
  for (std::size_t w = 0; w < waves.size(); ++w) {
    for (std::size_t k = 0; k < waves[w]; ++k) {
      ASSERT_TRUE(pair.a.send(make_frame(seq++, 0)).ok());
      transmitter_free = std::max(pair.scheduler.now(), transmitter_free) + kTx;
      arrival.push_back(transmitter_free + kPropagation);
    }
    // Drain roughly a third of what is outstanding, then send again.
    const std::size_t outstanding = seq - pair.at_b.size();
    pair.scheduler.run_for(kTx * static_cast<std::int64_t>(outstanding / 3 + 1));
  }
  pair.scheduler.run();
  const link::BatchCounters after = link::batch_counters();

  ASSERT_EQ(pair.at_b.size(), seq);
  // The documented bound (Link::Config::batch_frames).
  const sim::Duration max_lag =
      kTx * BatchedLinkPair::kBatch + kPropagation;
  for (std::uint32_t i = 0; i < seq; ++i) {
    const Received& r = pair.at_b[i];
    ASSERT_EQ(r.seq, i) << "delivered out of order";
    // Never early, and late by at most one batch's serialisation time
    // plus one propagation delay.
    ASSERT_GE(r.at.ns, arrival[i].ns) << "frame " << i;
    ASSERT_LE(r.at.ns - arrival[i].ns, max_lag.ns) << "frame " << i;
  }
  std::size_t total = 0;
  for (std::size_t n : pair.burst_sizes_at_b) total += n;
  EXPECT_EQ(total, seq);
  EXPECT_EQ(after.bursts - before.bursts, pair.burst_sizes_at_b.size());
  EXPECT_EQ(after.packets - before.packets, seq);
  EXPECT_EQ(pair.link.stats().delivered, seq);
}

}  // namespace
}  // namespace hydranet
