#ifndef AQP_COMMON_HASH_ID_TABLE_H_
#define AQP_COMMON_HASH_ID_TABLE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace aqp {

/// Open-addressing hash table that hands out dense ids 0, 1, 2, ... to
/// distinct keys in first-insertion order. It is the one hash table of the
/// engine's group-by, join build, and estimator cell accumulation.
///
/// A slot stores only 32 bits of the key's scrambled hash and its id (eight
/// bytes); callers keep the keys themselves (typically one representative
/// row per id) and pass an equality predicate `eq(id)` that compares the
/// probe key against key `id`.
/// Because ids are dense, per-key payloads live in plain vectors indexed by
/// id, and iterating ids 0..size() visits keys in first-insertion order —
/// independent of the hash layout. Linear probing; the table doubles before
/// it passes half full.
class HashIdTable {
 public:
  static constexpr uint32_t kNotFound = UINT32_MAX;

  /// Sizes the table so `expected_keys` distinct keys fit without growing.
  explicit HashIdTable(size_t expected_keys = 0) {
    size_t capacity = 16;
    while (capacity < 2 * expected_keys) capacity *= 2;
    Resize(capacity);
  }

  /// Forgets every key but keeps the capacity, so a table reused across
  /// morsels allocates only when a morsel needs more room than any before.
  void Clear() {
    for (Slot& slot : slots_) slot.id = kNotFound;
    size_ = 0;
  }

  /// Number of distinct keys (= the next id to be handed out).
  size_t size() const { return size_; }

  /// Slot-array footprint in bytes.
  uint64_t ApproxBytes() const { return slots_.capacity() * sizeof(Slot); }

  /// Id of the key with hash `hash` for which `eq(id)` holds, or kNotFound.
  template <typename Eq>
  uint32_t Find(uint64_t hash, Eq&& eq) const {
    const uint32_t tag = Tag(hash);
    for (size_t s = Home(tag);; s = (s + 1) & mask_) {
      const Slot& slot = slots_[s];
      if (slot.id == kNotFound) return kNotFound;
      if (slot.tag == tag && eq(slot.id)) return slot.id;
    }
  }

  /// Id of the matching key; when there is none, inserts the key under the
  /// next dense id (size() before the call) and sets *inserted.
  template <typename Eq>
  uint32_t FindOrInsert(uint64_t hash, Eq&& eq, bool* inserted) {
    *inserted = false;
    const uint32_t tag = Tag(hash);
    size_t s = Home(tag);
    for (;; s = (s + 1) & mask_) {
      const Slot& slot = slots_[s];
      if (slot.id == kNotFound) break;
      if (slot.tag == tag && eq(slot.id)) return slot.id;
    }
    *inserted = true;
    const uint32_t id = size_++;
    slots_[s] = Slot{tag, id};
    if (2 * static_cast<size_t>(size_) > slots_.size()) Grow();
    return id;
  }

 private:
  struct Slot {
    uint32_t tag = 0;
    uint32_t id = kNotFound;
  };

  // Fibonacci hashing: the top 32 bits of hash * 2^64/phi, so a hash whose
  // low bits are weak still spreads over the whole table. The home slot is
  // the tag's top bits, so growing rehashes from the stored tags alone.
  static uint32_t Tag(uint64_t hash) {
    return static_cast<uint32_t>((hash * 0x9e3779b97f4a7c15ULL) >> 32);
  }
  size_t Home(uint32_t tag) const { return tag >> shift_; }

  void Resize(size_t capacity) {
    slots_.assign(capacity, Slot{});
    mask_ = capacity - 1;
    shift_ = 32;
    for (size_t c = capacity; c > 1; c >>= 1) --shift_;
  }

  void Grow() {
    std::vector<Slot> old = std::move(slots_);
    Resize(old.size() * 2);
    for (const Slot& slot : old) {
      if (slot.id == kNotFound) continue;
      size_t s = Home(slot.tag);
      while (slots_[s].id != kNotFound) s = (s + 1) & mask_;
      slots_[s] = slot;
    }
  }

  std::vector<Slot> slots_;
  size_t mask_ = 0;
  int shift_ = 32;
  uint32_t size_ = 0;
};

}  // namespace aqp

#endif  // AQP_COMMON_HASH_ID_TABLE_H_
