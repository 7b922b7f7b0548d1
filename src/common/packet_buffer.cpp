#include "common/packet_buffer.hpp"

#include <algorithm>

#include "common/inline_function.hpp"
#include "common/tls_counters.hpp"
#include "verify/invariant.hpp"

namespace hydranet {

namespace {
/// Leaked singletons (like the freelists below): the main thread's
/// thread-local holder deregisters during process teardown, after
/// function-local statics would already be gone.
struct InlineFnCounters {
  std::uint64_t heap_allocs = 0;
};

PerThreadCounters<InlineFnCounters>& inline_fn_registry() {
  static auto* registry = new PerThreadCounters<InlineFnCounters>();
  return *registry;
}

PerThreadCounters<DatapathCounters>& datapath_registry() {
  static auto* registry = new PerThreadCounters<DatapathCounters>();
  return *registry;
}
}  // namespace

std::uint64_t& inline_function_heap_allocs() {
  return inline_fn_registry().local().heap_allocs;
}

std::uint64_t inline_function_heap_allocs_total() {
  return inline_fn_registry().totals().heap_allocs;
}

namespace {

// ---- datapath freelists ---------------------------------------------------
//
// Two recycling layers cut the simulator's steady-state packet path to
// zero heap traffic:
//
//   * a Bytes-capacity pool — wire serialisers acquire their output
//     buffers here, and every retired Storage salvages its vector back
//     (detail::recycle_storage_bytes), so payload-sized capacity circulates;
//   * per-size block freelists behind a std::allocate_shared allocator —
//     the Storage control block and the chained-tail PacketBuffer node are
//     each one combined allocation that returns to its freelist when the
//     last reference drops.
//
// The pools are per-thread (each shard recycles its own buffers — no
// locking on the hot path; a frame freed on a different shard than it was
// allocated on simply lands in the freeing shard's pool) and intentionally
// leaked: frames can outlive every stack (deferred-destruction scheduler
// callbacks run at teardown), so a destruction-ordered pool would be
// use-after-free bait.  Both are bounded, keeping the retained memory
// small per thread.  The bound has a price under deep bursts: a burst that
// holds more buffers live at once than the caps below let a pool keep
// misses on the excess every time it recurs.  Cross-shard migration is not
// what makes the connection fleet miss (one shard misses as often as two);
// bursts deeper than the caps are a large part of it.

constexpr std::size_t kMaxPooledBytes = 1024;       ///< entries
constexpr std::size_t kMaxPooledCapacity = 256 * 1024;  ///< per entry
constexpr std::size_t kMinPooledCapacity = 16;
constexpr std::size_t kMaxPooledBlocks = 4096;      ///< per size class

std::vector<Bytes>& bytes_pool() {
  thread_local auto* pool = new std::vector<Bytes>();
  return *pool;
}

/// One-size block freelist; every allocate_shared rebinding gets its own.
template <typename T>
std::vector<void*>& block_pool() {
  thread_local auto* pool = new std::vector<void*>();
  return *pool;
}

/// Minimal allocator routing allocate_shared's single combined
/// (control block + object) allocation through a per-size freelist.
template <typename T>
struct PoolAlloc {
  using value_type = T;
  PoolAlloc() = default;
  template <typename U>
  PoolAlloc(const PoolAlloc<U>&) {}  // NOLINT: allocator rebind

  T* allocate(std::size_t n) {
    if (n == 1) {
      auto& pool = block_pool<T>();
      if (!pool.empty()) {
        void* p = pool.back();
        pool.pop_back();
        datapath_counters().pool_hits++;
        return static_cast<T*>(p);
      }
    }
    datapath_counters().pool_misses++;
    datapath_counters().allocations++;
    return static_cast<T*>(::operator new(n * sizeof(T)));
  }

  void deallocate(T* p, std::size_t n) {
    auto& pool = block_pool<T>();
    if (n == 1 && pool.size() < kMaxPooledBlocks) {
      pool.push_back(p);
      return;
    }
    ::operator delete(p);
  }

  template <typename U>
  friend bool operator==(const PoolAlloc&, const PoolAlloc<U>&) {
    return true;
  }
};

}  // namespace

std::shared_ptr<PacketBuffer::Storage> PacketBuffer::make_storage(
    Bytes data) {
  auto storage = std::allocate_shared<Storage>(PoolAlloc<Storage>{});
  storage->data = std::move(data);
  return storage;
}

DatapathCounters& datapath_counters() { return datapath_registry().local(); }

DatapathCounters datapath_totals() { return datapath_registry().totals(); }

void reset_datapath_counters() { datapath_registry().reset(); }

Bytes acquire_pooled_bytes(std::size_t reserve) HN_NONALLOCATING {
  auto& pool = bytes_pool();
  if (!pool.empty()) {
    Bytes out = std::move(pool.back());
    pool.pop_back();
    if (out.capacity() >= reserve) {
      datapath_counters().pool_hits++;
      return out;
    }
    HN_EFFECT_ESCAPE(
        "counted pool miss (datapath.pool.misses): an under-sized recycled "
        "capacity must grow — the bench gates bound how often")
    // Under-sized capacity: growing it is a real allocation, count it so.
    datapath_counters().pool_misses++;
    datapath_counters().allocations++;
    out.reserve(reserve);
    return out;
    HN_EFFECT_ESCAPE_END()
  }
  HN_EFFECT_ESCAPE(
      "counted pool miss (datapath.pool.misses): an empty freelist is the "
      "cold start the pool exists to amortise away")
  datapath_counters().pool_misses++;
  datapath_counters().allocations++;
  Bytes out;
  out.reserve(reserve);
  return out;
  HN_EFFECT_ESCAPE_END()
}

namespace detail {
void recycle_storage_bytes(Bytes&& data) HN_NONALLOCATING {
  auto& pool = bytes_pool();
  if (data.capacity() < kMinPooledCapacity ||
      data.capacity() > kMaxPooledCapacity ||
      pool.size() >= kMaxPooledBytes) {
    HN_EFFECT_ESCAPE(
        "out-of-policy capacity: freeing it here is the bounded cold path "
        "that keeps the retained pool small")
    return;  // the vector frees itself
    HN_EFFECT_ESCAPE_END()
  }
  data.clear();
  HN_EFFECT_ESCAPE(
      "freelist push: the pool vector is capped at kMaxPooledBytes "
      "entries, so its growth is bounded and one-time")
  pool.push_back(std::move(data));
  HN_EFFECT_ESCAPE_END()
}
}  // namespace detail

PacketBuffer::PacketBuffer(Bytes data) {
  len_ = data.size();
  if (len_ != 0) storage_ = make_storage(std::move(data));
}

PacketBuffer PacketBuffer::copy_of(BytesView data) {
  datapath_counters().copies++;
  datapath_counters().copied_bytes += data.size();
  Bytes copy = acquire_pooled_bytes(data.size());
  copy.assign(data.begin(), data.end());
  return PacketBuffer(std::move(copy));
}

PacketBuffer PacketBuffer::chain(Bytes header, PacketBuffer tail) {
  PacketBuffer head{std::move(header)};
  if (!tail.empty()) {
    head.tail_len_ = tail.size();
    head.tail_ = std::allocate_shared<const PacketBuffer>(
        PoolAlloc<const PacketBuffer>{}, std::move(tail));
  }
  return head;
}

BytesView PacketBuffer::head_view() const {
  if (storage_ == nullptr || len_ == 0) return {};
  return BytesView(storage_->data.data() + offset_, len_);
}

PacketBuffer PacketBuffer::slice(std::size_t offset, std::size_t len) const {
#if HYDRANET_INVARIANTS
  HN_INVARIANT(buffer_alias, contiguous(),
               "slice(%zu, %zu) of a chained buffer (head %zu + tail %zu)",
               offset, len, len_, tail_len_);
  HN_INVARIANT(buffer_alias, offset <= len_ && len <= len_ - offset,
               "slice(%zu, %zu) overruns the %zu-byte backing run", offset,
               len, len_);
  // After a non-fatal report, clamp rather than hand out a view past the
  // allocation.
  offset = std::min(offset, len_);
  len = std::min(len, len_ - offset);
#else
  assert(contiguous());
  assert(offset + len <= len_);
#endif
  if (len == 0) return {};
  return PacketBuffer(storage_, offset_ + offset, len);
}

Bytes PacketBuffer::flatten_copy() const {
  datapath_counters().copies++;
  datapath_counters().copied_bytes += size();
  Bytes out = acquire_pooled_bytes(size());
  for_each_segment(
      [&](BytesView seg) { out.insert(out.end(), seg.begin(), seg.end()); });
  return out;
}

PacketBuffer PacketBuffer::flattened() const {
  if (contiguous()) return *this;
  datapath_counters().flattens++;
  PacketBuffer flat(flatten_copy());
  flat.trace_ctx = trace_ctx;
  return flat;
}

void CowBytes::ensure_unique() {
  // Mutable access needs this payload to be the sole owner of a plain
  // full-range backing store; anything else (chained, sliced, or shared
  // with other frames/replicas) is copied out first.
  if (buffer_.storage_ != nullptr && buffer_.contiguous() &&
      buffer_.storage_.use_count() == 1 && buffer_.offset_ == 0 &&
      buffer_.len_ == buffer_.storage_->data.size()) {
    return;
  }
  if (buffer_.storage_ != nullptr && buffer_.storage_.use_count() > 1) {
    datapath_counters().cow_breaks++;
  }
  Bytes data =
      buffer_.storage_ == nullptr ? Bytes{} : buffer_.flatten_copy();
  buffer_.storage_ = PacketBuffer::make_storage(std::move(data));
  buffer_.offset_ = 0;
  buffer_.len_ = buffer_.storage_->data.size();
  buffer_.tail_.reset();
  buffer_.tail_len_ = 0;
  // Post-condition: mutation now cannot bleed into any other frame,
  // replica copy, or trace entry that shared the old storage.
  HN_INVARIANT(buffer_alias,
               buffer_.contiguous() && buffer_.storage_.use_count() == 1 &&
                   buffer_.offset_ == 0 &&
                   buffer_.len_ == buffer_.storage_->data.size(),
               "copy-on-write left the payload aliased (use_count %ld)",
               buffer_.storage_use_count());
}

}  // namespace hydranet
