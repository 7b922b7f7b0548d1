// Discrete-event scheduler: the heart of the simulator.
//
// Everything in HydraNet-FT — link transmissions, TCP retransmission timers,
// management-daemon probes — is an event on this queue.  Events at equal
// times execute in scheduling order (FIFO), which keeps runs deterministic.
//
// The pending set is a hierarchical timing wheel (11 levels x 64 slots of
// 6 bits each, covering bit 62 — the full non-negative int64 nanosecond
// range).  schedule() and cancel() are O(1): an event lands in the bucket
// addressed by the highest 6-bit block in which its deadline differs from
// now, and cancellation is a generation bump on the event's slot — the
// stale bucket entry is dropped the next time its bucket is drained or
// cascaded.  This matters because the dominant workload is
// schedule-then-cancel (link serialisation timers, RTO timers cancelled by
// the next ACK): a binary heap pays O(log n) twice per such event, the
// wheel pays two integer writes.  When the clock crosses a bucket boundary
// the bucket's surviving entries cascade to their exact lower level; an
// entry cascades at most 10 times, and only events that outlive the
// staging buffer (below) ever enter a bucket at all, so the whole wheel
// stays a cache-friendly 22 KiB.  Slot occupancy is a bitmap per level
// plus a level-occupancy mask, so locating the next occupied bucket is a
// handful of bit-scans — and free when the wheel is empty.
//
// Determinism is preserved exactly: level-0 buckets drain in scheduling
// order (seq), and on candidate-time ties a higher-level bucket always
// cascades before a same-time level-0 event executes, so an event scheduled
// earlier can never be overtaken by one scheduled later at the same tick.
//
// A small staging buffer front-ends the wheel: new events park in a
// 64-entry contiguous vector and only flush into their wheel buckets when
// it fills.  Most simulator events are short-lived — a link serialisation
// timer fires (or an RTO is cancelled) long before 64 more events are
// scheduled — so the common case executes straight out of one or two
// cache lines and never touches wheel memory.  Ordering is unaffected:
// every wheel entry was scheduled before every staging entry (flush moves
// the whole buffer at once), so wheel seqs are strictly lower and
// same-time ties resolve wheel-first, which is exactly global FIFO.
//
// The hot path is allocation-free in steady state: callbacks are
// small-buffer-optimised (InlineFunction, no per-event malloc for typical
// captures) and live in a recycled slot pool; bucket vectors retain their
// capacity across drains, up to kBucketRetainEntries each.
#pragma once

#include <cstdint>
#include <vector>

#include "common/effect_annotations.hpp"
#include "common/inline_function.hpp"
#include "sim/time.hpp"

namespace hydranet::sim {

/// Handle for a scheduled event; cancel() revokes it if still pending.
/// Encodes (slot index + 1, slot generation); 0 is never produced.
using TimerId = std::uint64_t;
inline constexpr TimerId kInvalidTimer = 0;

class Scheduler {
 public:
  /// Inline capacity fits the datapath's largest common capture (a
  /// Datagram plus a couple of pointers); larger captures fall back to the
  /// heap and are counted in inline_function_heap_allocs().
  using Callback = InlineFunction<128>;

  Scheduler();

  /// Current simulated time.  Advances only when events execute.
  TimePoint now() const { return now_; }

  /// Schedules `cb` at absolute time `t` (must be >= now()).
  /// Hot-path effect root (DESIGN.md §12): allocation-free and lock-free in
  /// steady state; sanctioned cold paths (slot-pool grow, staging spill)
  /// carry HN_EFFECT_ESCAPE regions in the definition.
  TimerId schedule_at(TimePoint t, Callback cb) HN_NONBLOCKING;

  /// Schedules `cb` after delay `d` from now (d < 0 is clamped to now).
  TimerId schedule_after(Duration d, Callback cb) HN_NONBLOCKING;

  /// Revokes a pending event.  Cancelling an already-fired or invalid id is
  /// a harmless no-op (the common case when a timer raced its cancellation).
  void cancel(TimerId id) HN_NONBLOCKING;

  /// Executes the next pending event, advancing the clock.  Returns false
  /// if the queue is empty.  Effect contract covers the dispatch machinery
  /// only — the event callbacks themselves are outside it.
  bool run_next() HN_NONBLOCKING;

  /// Runs all events with time <= t, then advances the clock to exactly t.
  /// Returns the number of events executed.
  std::size_t run_until(TimePoint t) HN_NONBLOCKING;

  /// Runs events for the next `d` of simulated time.
  std::size_t run_for(Duration d) { return run_until(now_ + d); }

  /// Runs until the queue drains or `max_events` executed (a watchdog
  /// against livelock in protocol bugs).  Returns events executed.
  std::size_t run(std::size_t max_events = SIZE_MAX);

  /// Number of pending (uncancelled) events.
  std::size_t pending() const { return live_; }

  /// Lower bound on the time of the next event this scheduler would
  /// execute: the earliest of the staging head, a due level-0 bucket, or
  /// a higher-level bucket's cascade boundary.  A cascade boundary may
  /// precede the actual event inside it, so this is a bound, not the
  /// exact time — which is exactly what conservative-lookahead epoch
  /// advancement needs.  Returns kTimePointMax when nothing is pending.
  /// Non-const for the same reason as find_next_due (lazily pops
  /// cancelled staging heads).
  TimePoint next_due_lower_bound();

  /// Timing-wheel telemetry.  `wheel_inserts` counts every bucket
  /// placement (staging flushes plus cascade re-inserts); events that
  /// fire or are cancelled while still in the staging buffer never touch
  /// a bucket and are not counted.  `wheel_cascades` counts entries moved
  /// down a level when the clock crossed their bucket boundary.  inserts
  /// far below the number of scheduled events means most events lived and
  /// died in the staging buffer — the pattern the design is built for.
  std::uint64_t wheel_inserts() const { return wheel_inserts_; }
  std::uint64_t wheel_cascades() const { return wheel_cascades_; }

#if HYDRANET_INVARIANTS
  /// Execution-order invariant: every executed event's (time, seq) pair
  /// must be nondecreasing in time with FIFO (ascending-seq) ties.  Called
  /// from the drain paths; public so negative tests can feed a regressed
  /// pair directly.
  void check_execution(TimePoint t, std::uint64_t seq);
#endif

 private:
  static constexpr std::uint32_t kNoFreeSlot = 0xffffffffu;
  static constexpr int kLevelBits = 6;
  static constexpr int kWheelSlots = 1 << kLevelBits;  // 64 slots per level
  static constexpr std::uint64_t kSlotMask = kWheelSlots - 1;
  /// 11 levels of 6 bits cover bit 62 — any non-negative int64 deadline.
  static constexpr int kLevels = 11;
  static constexpr int kSlotWords = (kWheelSlots + 63) / 64;
  static constexpr std::size_t kStagingCap = 64;
  /// Capacity a bucket keeps across a reset.  A bucket that held more (a
  /// burst of timers landing in one slot) gives its storage back and
  /// regrows by doubling on its next fill, so the wheel retains at most
  /// kLevels x kWheelSlots x this many entries instead of every bucket's
  /// all-time peak.
  static constexpr std::size_t kBucketRetainEntries = 256;

  struct Slot {
    Callback cb;
    std::uint32_t generation = 0;
    std::uint32_t next_free = kNoFreeSlot;
    bool armed = false;
  };

  /// POD bucket entry; the callback stays in its slot until execution.
  struct QEntry {
    TimePoint time;
    std::uint64_t seq;  // tiebreaker: FIFO among equal times
    std::uint32_t slot;
    std::uint32_t generation;
  };

  /// One wheel bucket.  `drained` marks the consumed prefix of `entries`
  /// so draining never erases from the front; the vector keeps its
  /// capacity when reset.  `unsorted` is set when a cascade appends an
  /// entry out of seq order (level 0 only cares); the bucket is re-sorted
  /// by seq once, just before it drains.
  struct Bucket {
    std::vector<QEntry> entries;
    std::uint32_t drained = 0;
    bool unsorted = false;
  };

  /// Occupancy bitmap for one level: bit s of words[s / 64] is set when
  /// bucket s is non-empty; bit w of `summary` is set when words[w] is
  /// non-zero.  The two-tier shape keeps find_first_occupied O(1) for any
  /// slot count (with 64 slots per level it degenerates to a single word).
  struct LevelOccupancy {
    std::uint64_t summary = 0;
    std::uint64_t words[kSlotWords] = {};
  };

  /// The next event source the clock must visit: a staging-buffer entry
  /// (staging_index >= 0), a level-0 bucket whose events are due at
  /// `time`, or a higher-level bucket whose boundary is crossed at `time`
  /// and must cascade.  level < 0 means nothing pending.
  struct NextDue {
    std::int64_t time = 0;
    int level = -1;
    std::uint32_t slot = 0;
    int staging_index = -1;
  };

  std::uint32_t acquire_slot();
  void release_slot(std::uint32_t index);
  static TimerId make_id(std::uint32_t slot, std::uint32_t generation) {
    return (static_cast<TimerId>(slot) + 1) << 32 | generation;
  }

  /// Moves live staging entries into their wheel buckets; drops stale
  /// (cancelled) ones.
  void flush_staging();
  /// Executes the staging entry at `index`, advancing the clock.
  void execute_staging(std::size_t index);

  Bucket& bucket(int level, std::uint32_t slot_index) {
    return wheel_[static_cast<std::size_t>(level) * kWheelSlots + slot_index];
  }
  int level_for(std::uint64_t t) const;
  void wheel_insert(const QEntry& entry);
  void cascade(int level, std::uint32_t slot_index);
  void reset_bucket(int level, std::uint32_t slot_index);
  /// First occupied slot of `level` at or after `pos`, or -1.
  int find_first_occupied(int level, std::uint32_t pos) const;
  /// Non-const: lazily pops stale entries off the staging buffer's head.
  NextDue find_next_due();
  /// Drains due level-0 bucket `slot_index`, executing live entries in seq
  /// order.  Stops after one execution if `single_step` (run_next
  /// semantics).  Returns events executed.
  std::size_t drain_due_bucket(std::uint32_t slot_index, bool single_step);

  TimePoint now_{};
  std::uint64_t next_seq_ = 0;
  std::size_t live_ = 0;
  std::vector<Slot> slots_;
  std::uint32_t free_head_ = kNoFreeSlot;
  /// kLevels x kWheelSlots buckets, flattened row-major by level.
  /// Allocated lazily on the first staging overflow — simulations whose
  /// pending set never exceeds the staging buffer pay nothing for it.
  std::vector<Bucket> wheel_;
  LevelOccupancy occupied_[kLevels];
  /// Bit L set when level L has any occupied bucket; when the whole mask
  /// is zero (events living and dying in staging) find_next_due skips the
  /// wheel entirely.
  std::uint32_t level_mask_ = 0;
  /// Not-yet-bucketed recent schedules, sorted by (time, seq); entries
  /// before staging_head_ were consumed and await the next flush's clear.
  /// May contain stale (cancelled) entries, dropped lazily.
  std::vector<QEntry> staging_;
  std::size_t staging_head_ = 0;
  std::uint64_t wheel_inserts_ = 0;
  std::uint64_t wheel_cascades_ = 0;
#if HYDRANET_INVARIANTS
  TimePoint last_exec_time_{};
  std::uint64_t last_exec_seq_ = 0;
  bool any_executed_ = false;
#endif
};

}  // namespace hydranet::sim
