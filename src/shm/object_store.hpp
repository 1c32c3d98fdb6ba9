#pragma once

#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <stdexcept>
#include <unordered_map>

#include "src/shm/object_key.hpp"
#include "src/sim/block_pool.hpp"
#include "src/sim/random.hpp"

namespace lifl::shm {

/// Usage statistics of a node's shared-memory object store.
struct ObjectStoreStats {
  std::uint64_t puts = 0;            ///< objects created
  std::uint64_t gets = 0;            ///< reads by key
  std::uint64_t releases = 0;        ///< reference drops
  std::uint64_t recycled_buffers = 0;///< allocations served from the pool
  std::size_t bytes_in_use = 0;      ///< live object bytes
  std::size_t peak_bytes = 0;        ///< high-water mark of live bytes
  std::size_t pool_bytes = 0;        ///< recycled-buffer pool size
};

/// Per-node shared-memory object store (§4.1).
///
/// Objects are immutable once written — the invariant LIFL relies on to share
/// model updates between aggregators without locks — and reference counted:
/// the producer `put`s an object with an initial reference count equal to the
/// number of expected consumers, each consumer `get`s it by key (zero copy)
/// and `release`s it when done. Fully released buffers are recycled into a
/// bounded pool, matching the agent's allocate/recycle/destroy role.
///
/// Values are held as `shared_ptr<const T>`: handing out a key copies
/// nothing, which is exactly the zero-copy discipline of the paper. The
/// `logical_bytes` of an object may exceed the bytes actually held in this
/// process (e.g. a ResNet-152 update is 240 MB logically but carries no real
/// tensor in pure system-level simulations).
///
/// The store's recycle pool accounts *logical* bytes; its physical
/// counterpart for real tensor payloads is `ml::TensorPool` — a pooled
/// tensor `put` here recycles into that pool automatically when its last
/// shm lease drops (the shared_ptr deleter is the recycler), so the two
/// pools describe the same allocate/recycle/destroy lifecycle at the two
/// levels the platform models.
class ObjectStore {
 public:
  explicit ObjectStore(sim::Rng rng,
                       std::size_t pool_capacity_bytes = 2ull << 30)
      : rng_(rng), pool_capacity_(pool_capacity_bytes) {}

  ObjectStore(const ObjectStore&) = delete;
  ObjectStore& operator=(const ObjectStore&) = delete;

  /// Liveness token for deferred releases. A lease against this store may
  /// legally outlive it — e.g. a closure parked in a simulator queue when
  /// the world is torn down. Lease deleters lock the token and skip the
  /// release once the store is gone instead of touching freed memory.
  std::weak_ptr<ObjectStore*> liveness() const noexcept { return self_; }

  /// RAII reference on `key`: when the last copy drops, one reference is
  /// released (through the liveness token, so a lease outliving the store
  /// is a no-op). The key, the token and the shared_ptr control block share
  /// one block from the calling thread's `sim::BlockPool`, so issuing and
  /// dropping leases in steady state never reaches the global allocator.
  std::shared_ptr<const void> lease(const ObjectKey& key) const {
    return std::allocate_shared<Lease>(sim::PooledAllocator<Lease>{}, key,
                                       self_);
  }

  /// Store an immutable object; returns its freshly generated key.
  /// `refs` is the number of consumers expected to release it.
  template <typename T>
  ObjectKey put(std::shared_ptr<const T> value, std::size_t logical_bytes,
                std::uint32_t refs = 1) {
    if (refs == 0) throw std::invalid_argument("ObjectStore::put: refs == 0");
    ObjectKey key = ObjectKey::generate(rng_);
    while (objects_.count(key) != 0) key = ObjectKey::generate(rng_);
    Entry e;
    e.data = std::static_pointer_cast<const void>(std::move(value));
    e.bytes = logical_bytes;
    e.refs = refs;
    objects_.emplace(key, std::move(e));
    ++stats_.puts;
    if (stats_.pool_bytes >= logical_bytes) {
      stats_.pool_bytes -= logical_bytes;
      ++stats_.recycled_buffers;
    }
    stats_.bytes_in_use += logical_bytes;
    stats_.peak_bytes = std::max(stats_.peak_bytes, stats_.bytes_in_use);
    return key;
  }

  /// Store a size-only object (no real payload behind it).
  ObjectKey put_logical(std::size_t logical_bytes, std::uint32_t refs = 1) {
    return put<int>(nullptr, logical_bytes, refs);
  }

  /// True if the key addresses a live object.
  bool contains(const ObjectKey& key) const noexcept {
    return objects_.count(key) != 0;
  }

  /// Read an object (zero copy). Throws if the key is unknown.
  template <typename T>
  std::shared_ptr<const T> get(const ObjectKey& key) {
    auto it = objects_.find(key);
    if (it == objects_.end()) {
      throw std::out_of_range("ObjectStore::get: unknown key " + key.to_hex());
    }
    ++stats_.gets;
    return std::static_pointer_cast<const T>(it->second.data);
  }

  /// Logical size of an object in bytes. Throws if the key is unknown.
  std::size_t size_of(const ObjectKey& key) const {
    auto it = objects_.find(key);
    if (it == objects_.end()) {
      throw std::out_of_range("ObjectStore::size_of: unknown key");
    }
    return it->second.bytes;
  }

  /// Add consumers to an existing object (e.g. fan-out routing).
  void add_refs(const ObjectKey& key, std::uint32_t extra) {
    auto it = objects_.find(key);
    if (it == objects_.end()) {
      throw std::out_of_range("ObjectStore::add_refs: unknown key");
    }
    it->second.refs += extra;
  }

  /// Drop one reference; when the count reaches zero the buffer is recycled
  /// into the pool (up to the pool capacity). Throws on unknown key.
  void release(const ObjectKey& key) {
    auto it = objects_.find(key);
    if (it == objects_.end()) {
      throw std::out_of_range("ObjectStore::release: unknown key");
    }
    ++stats_.releases;
    if (--it->second.refs == 0) {
      stats_.bytes_in_use -= it->second.bytes;
      stats_.pool_bytes =
          std::min(pool_capacity_, stats_.pool_bytes + it->second.bytes);
      objects_.erase(it);
    }
  }

  /// Number of live objects.
  std::size_t size() const noexcept { return objects_.size(); }

  const ObjectStoreStats& stats() const noexcept { return stats_; }

  /// Key-generator state, for checkpointing.
  sim::Rng::State rng_state() const noexcept { return rng_.state(); }

  /// Restore a checkpointed generator + statistics onto a *quiescent* store
  /// (no live objects — every lease released); throws std::logic_error
  /// otherwise. Live entries hold process-local shared_ptrs and cannot
  /// survive a process boundary, which is exactly why snapshots are taken
  /// at quiescent points.
  void restore(const sim::Rng::State& rng, const ObjectStoreStats& stats) {
    if (!objects_.empty()) {
      throw std::logic_error(
          "ObjectStore::restore: store holds live objects");
    }
    rng_.restore(rng);
    stats_ = stats;
  }

 private:
  struct Entry {
    std::shared_ptr<const void> data;
    std::size_t bytes = 0;
    std::uint32_t refs = 0;
  };

  struct Lease {
    Lease(const ObjectKey& k, std::weak_ptr<ObjectStore*> t)
        : key(k), token(std::move(t)) {}
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;
    ~Lease() {
      if (const auto store = token.lock()) (*store)->release(key);
    }
    ObjectKey key;
    std::weak_ptr<ObjectStore*> token;
  };

  using NodeAlloc = sim::PooledAllocator<std::pair<const ObjectKey, Entry>>;
  using Map = std::unordered_map<ObjectKey, Entry, ObjectKeyHash,
                                 std::equal_to<ObjectKey>, NodeAlloc>;

  sim::Rng rng_;
  std::size_t pool_capacity_;
  /// Nodes come from the thread's block pool: a put/release pair in steady
  /// state recycles the node the previous release returned.
  Map objects_;
  ObjectStoreStats stats_;
  std::shared_ptr<ObjectStore*> self_{
      std::make_shared<ObjectStore*>(this)};
};

}  // namespace lifl::shm
