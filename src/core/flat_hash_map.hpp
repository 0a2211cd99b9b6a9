// Open-addressing hash map with robin-hood probing, built for the flow
// classifier's hot path: one try_emplace per packet against a table of
// active flows. Compared to std::unordered_map it stores key/value pairs
// inline (no per-node allocation, no bucket pointer chase) and keeps probe
// sequences short by displacement ("rich" entries close to home give way to
// "poor" ones far from home). Erase backward-shifts, so deleted slots are
// immediately reusable — no tombstones to accumulate, no periodic purge.
//
// Layout choices that matter for throughput (measured against
// std::unordered_map on the synthetic Sprint traces when the table was
// adopted; tests/core/test_flat_hash_map.cpp keeps it equal to that map):
//  - probe distances live in their own contiguous array, so a probe scans
//    compact 4-byte entries (a cache line covers 16 probes) and the wide
//    key/value slot is only touched when a distance matches;
//  - the home slot comes from Fibonacci hashing (multiply the user hash by
//    2^64/phi, keep the HIGH bits) rather than masking the low bits: with
//    structured keys (e.g. /24 prefixes, whose low byte is always zero)
//    FNV-1a's low bits are nearly constant, and low-bit masking piles every
//    home bucket into one contiguous cluster (measured: average probe
//    distance 46 on the Sprint /24 key set; 1.4 after the multiply). The
//    single multiply is also ~15 cycles cheaper per lookup than the prime
//    modulo std::unordered_map pays for the same protection;
//  - try_emplace probes for an existing key first (the per-packet common
//    case) and only falls into the out-of-line insert path on a miss, so
//    the hit path stays small enough to inline.
//
// API: the subset of std::unordered_map the classifier uses (try_emplace,
// find, erase(iterator), clear, reserve, size, iteration), so the two are
// drop-in interchangeable for A/B benchmarking.
//
// Requirements on Key and T: default-constructible and move-assignable
// (empty slots hold default-constructed pairs; displacement and backward
// shift move pairs between slots).
//
// Iteration caveat (by design, matching the classifier's usage): erase(it)
// backward-shifts later elements toward the erased slot, so a full
// begin()..end() sweep that erases as it goes revisits shifted-in elements
// and — when a shift chain wraps past the end of the array — may visit an
// element twice. It never skips an element that was present when the sweep
// started. Callers' predicates must therefore be idempotent, which the
// classifier's idle-timeout check is.
//
// Iteration order is slot order, which depends on capacity and insertion
// history. No result depends on it: the classifier's emitted flows are
// summed order-free downstream, so a checkpoint stores the key set only and
// a restore simply re-inserts it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <type_traits>
#include <utility>
#include <vector>

namespace fbm::core {

template <typename Key, typename T, typename Hash = std::hash<Key>>
class FlatHashMap {
 public:
  using key_type = Key;
  using mapped_type = T;
  using value_type = std::pair<Key, T>;
  using size_type = std::size_t;

 private:
  template <bool Const>
  class Iter {
    using map_ptr =
        std::conditional_t<Const, const FlatHashMap*, FlatHashMap*>;

   public:
    using value_type = FlatHashMap::value_type;
    using reference =
        std::conditional_t<Const, const value_type&, value_type&>;
    using pointer = std::conditional_t<Const, const value_type*, value_type*>;

    Iter() = default;
    Iter(map_ptr map, size_type idx) : map_(map), idx_(idx) { skip_empty(); }

    reference operator*() const { return map_->kv_[idx_]; }
    pointer operator->() const { return &map_->kv_[idx_]; }

    Iter& operator++() {
      ++idx_;
      skip_empty();
      return *this;
    }

    friend bool operator==(const Iter& a, const Iter& b) {
      return a.idx_ == b.idx_;
    }
    friend bool operator!=(const Iter& a, const Iter& b) {
      return a.idx_ != b.idx_;
    }

    /// Conversion iterator -> const_iterator.
    operator Iter<true>() const { return Iter<true>(map_, idx_); }

   private:
    friend class FlatHashMap;
    void skip_empty() {
      while (map_ != nullptr && idx_ < map_->dist_.size() &&
             map_->dist_[idx_] == 0) {
        ++idx_;
      }
    }

    map_ptr map_ = nullptr;
    size_type idx_ = 0;
  };

 public:
  using iterator = Iter<false>;
  using const_iterator = Iter<true>;

  FlatHashMap() = default;
  explicit FlatHashMap(Hash hash) : hash_(std::move(hash)) {}

  [[nodiscard]] size_type size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  /// Slots allocated (power of two); 0 before the first insert.
  [[nodiscard]] size_type capacity() const { return dist_.size(); }

  /// Mean robin-hood probe distance over occupied slots (1.0 = every key in
  /// its home slot); 0 when empty. O(capacity) scan — telemetry cadence
  /// only, never the per-packet path.
  [[nodiscard]] double mean_probe_distance() const {
    if (size_ == 0) return 0.0;
    std::uint64_t total = 0;
    for (const std::uint32_t d : dist_) total += d;  // 0 for empty slots
    return static_cast<double>(total) / static_cast<double>(size_);
  }

  [[nodiscard]] iterator begin() { return iterator(this, 0); }
  [[nodiscard]] iterator end() { return iterator(this, dist_.size()); }
  [[nodiscard]] const_iterator begin() const {
    return const_iterator(this, 0);
  }
  [[nodiscard]] const_iterator end() const {
    return const_iterator(this, dist_.size());
  }

  /// Grows (never shrinks) so that `n` elements fit without rehashing.
  void reserve(size_type n) {
    size_type cap = dist_.empty() ? kMinCapacity : dist_.size();
    while (n * kLoadDen > cap * kLoadNum) cap *= 2;
    if (cap > dist_.size()) rehash(cap);
  }

  void clear() {
    for (size_type i = 0; i < dist_.size(); ++i) {
      if (dist_[i] != 0) {
        kv_[i] = value_type{};
        dist_[i] = 0;
      }
    }
    size_ = 0;
  }

  [[nodiscard]] iterator find(const Key& key) {
    return iterator(this, find_index(key));
  }
  [[nodiscard]] const_iterator find(const Key& key) const {
    return const_iterator(this, find_index(key));
  }
  [[nodiscard]] bool contains(const Key& key) const {
    return find_index(key) != dist_.size();
  }

  /// Inserts {key, T(args...)} if absent; returns {iterator, inserted}.
  /// The existing-key case (the classifier's per-packet common case) stays
  /// on the inlinable find path; only a miss pays the insert machinery.
  template <typename... Args>
  std::pair<iterator, bool> try_emplace(const Key& key, Args&&... args) {
    return try_emplace_hashed(hash_of(key), key, std::forward<Args>(args)...);
  }

  /// The raw user hash of `key`, before Fibonacci mixing. Batch callers
  /// compute all hashes up front, prefetch_hashed() a few slots ahead, and
  /// feed the hash back through try_emplace_hashed() — so the table is
  /// already in cache when the probe runs (hash-ahead).
  [[nodiscard]] std::uint64_t hash_of(const Key& key) const {
    return static_cast<std::uint64_t>(hash_(key));
  }

  /// Warms the probe-start cache lines (distance array + key/value slot)
  /// for a key whose hash_of() value is already known. Safe at any time;
  /// a no-op on an empty table.
  void prefetch_hashed(std::uint64_t hash) const {
    if (dist_.empty()) return;
    const size_type idx = home_of_hash(hash);
#if defined(__GNUC__) || defined(__clang__)
    __builtin_prefetch(&dist_[idx]);
    __builtin_prefetch(&kv_[idx]);
#endif
  }

  /// try_emplace with the user hash precomputed by hash_of(). `hash` MUST
  /// equal hash_of(key); batch callers hoist the hash computation out of
  /// the probe loop.
  template <typename... Args>
  std::pair<iterator, bool> try_emplace_hashed(std::uint64_t hash,
                                               const Key& key,
                                               Args&&... args) {
    const size_type idx = find_index_hashed(hash, key);
    if (idx != dist_.size()) return {iterator(this, idx), false};
    return {iterator(this,
                     insert_new(hash, key, T(std::forward<Args>(args)...))),
            true};
  }

  /// Erases the element at `pos` (must be valid). Backward-shifts the
  /// following chain, so the returned iterator points at the same slot and
  /// must be re-examined by sweep loops; see the header comment.
  iterator erase(iterator pos) {
    const size_type mask = dist_.size() - 1;
    size_type idx = pos.idx_;
    size_type next = (idx + 1) & mask;
    while (dist_[next] > 1) {
      kv_[idx] = std::move(kv_[next]);
      dist_[idx] = dist_[next] - 1;
      idx = next;
      next = (next + 1) & mask;
    }
    kv_[idx] = value_type{};
    dist_[idx] = 0;
    --size_;
    return iterator(this, pos.idx_);
  }

  /// Erases by key; returns the number of elements removed (0 or 1).
  size_type erase(const Key& key) {
    const size_type idx = find_index(key);
    if (idx == dist_.size()) return 0;
    (void)erase(iterator(this, idx));
    return 1;
  }

 private:
  static constexpr size_type kMinCapacity = 16;
  /// Max load factor 13/16 (0.8125): high enough that memory stays close
  /// to the element footprint, low enough that robin-hood probe chains
  /// stay short (~2 average at full load with the fmix64-finalized hash).
  static constexpr size_type kLoadNum = 13;
  static constexpr size_type kLoadDen = 16;

  /// Fibonacci hashing: one multiply by 2^64/phi, then keep the HIGH bits
  /// (see the header comment). shift_ is maintained as 64 - log2(capacity)
  /// so the result is already a valid slot index.
  [[nodiscard]] size_type home_of_hash(std::uint64_t hash) const {
    return static_cast<size_type>((hash * 0x9e3779b97f4a7c15ULL) >> shift_);
  }

  [[nodiscard]] size_type home_of(const Key& key) const {
    return home_of_hash(hash_of(key));
  }

  [[nodiscard]] size_type find_index(const Key& key) const {
    return find_index_hashed(hash_of(key), key);
  }

  [[nodiscard]] size_type find_index_hashed(std::uint64_t hash,
                                            const Key& key) const {
    if (dist_.empty()) return 0;  // == dist_.size(): not found
    const size_type mask = dist_.size() - 1;
    const std::uint32_t* dists = dist_.data();
    size_type idx = home_of_hash(hash);
    std::uint32_t dist = 1;
    while (true) {
      const std::uint32_t d = dists[idx];
      if (d < dist) return dist_.size();  // empty or richer: absent
      if (d == dist && kv_[idx].first == key) return idx;
      idx = (idx + 1) & mask;
      ++dist;
    }
  }

  /// Robin-hood insertion of a key known to be absent. Out of line so the
  /// try_emplace hit path stays small.
#if defined(__GNUC__) || defined(__clang__)
  __attribute__((noinline))
#endif
  size_type
  insert_new(std::uint64_t hash, const Key& key, T&& value) {
    if (dist_.empty() || (size_ + 1) * kLoadDen > dist_.size() * kLoadNum) {
      rehash(dist_.empty() ? kMinCapacity : dist_.size() * 2);
    }
    const size_type mask = dist_.size() - 1;
    size_type idx = home_of_hash(hash);
    std::uint32_t dist = 1;
    // Find the first slot that is empty or holds a richer resident.
    while (dist_[idx] >= dist) {
      idx = (idx + 1) & mask;
      ++dist;
    }
    const size_type home = idx;
    // Place the new element here; push the displaced chain forward.
    value_type carry(key, std::move(value));
    std::uint32_t carry_dist = dist;
    while (true) {
      if (dist_[idx] == 0) {
        kv_[idx] = std::move(carry);
        dist_[idx] = carry_dist;
        ++size_;
        return home;
      }
      if (dist_[idx] < carry_dist) {
        std::swap(kv_[idx], carry);
        std::swap(dist_[idx], carry_dist);
      }
      idx = (idx + 1) & mask;
      ++carry_dist;
    }
  }

  void rehash(size_type new_capacity) {
    std::vector<std::uint32_t> old_dist = std::move(dist_);
    std::vector<value_type> old_kv = std::move(kv_);
    dist_.assign(new_capacity, 0);
    kv_.assign(new_capacity, value_type{});
    shift_ = 64;
    for (size_type c = new_capacity; c > 1; c /= 2) --shift_;
    const size_type mask = new_capacity - 1;
    for (size_type i = 0; i < old_dist.size(); ++i) {
      if (old_dist[i] == 0) continue;
      value_type carry = std::move(old_kv[i]);
      size_type idx = home_of(carry.first);
      std::uint32_t dist = 1;
      while (true) {
        if (dist_[idx] == 0) {
          kv_[idx] = std::move(carry);
          dist_[idx] = dist;
          break;
        }
        if (dist_[idx] < dist) {
          std::swap(kv_[idx], carry);
          std::swap(dist_[idx], dist);
        }
        idx = (idx + 1) & mask;
        ++dist;
      }
    }
  }

  /// Probe distance + 1 of the element in each slot; 0 marks empty. Kept
  /// apart from kv_ so probing scans a compact array. With the max load
  /// factor there is always an empty slot, so a probe distance can never
  /// reach the capacity and 32 bits are ample.
  std::vector<std::uint32_t> dist_;
  std::vector<value_type> kv_;
  size_type size_ = 0;
  /// 64 - log2(capacity), so home_of() lands in [0, capacity) directly.
  int shift_ = 64;
  Hash hash_{};
};

}  // namespace fbm::core
