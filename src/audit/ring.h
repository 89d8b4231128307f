// Power-of-two bounded binary decision ring — one per fleet shard
// (DESIGN.md §16).
//
// Same observable semantics as the deque-of-strings text log it replaced on
// the hot path (frozen as bench_audit's comparator, bench/text_audit_log.h): bounded like a rotated syslog (oldest record dropped per append
// once full), with `total_appended`/`dropped` lifetime totals unaffected by
// eviction. Unlike the deque-of-strings log, a full ring appends with a
// single 64-byte struct store and a head-mask increment — no allocation, no
// pointer chasing — which is what `bench_audit` gates at ≥3× over the text
// path. Not thread-safe by itself: one ring is owned per shard, and the R8
// lint holds every mutation inside the declared accessor surface below.
#pragma once

#include <cstdint>
#include <vector>

#include "audit/record.h"
#include "util/annotations.h"
#include "util/string_table.h"

namespace overhaul::audit {

class Ring {
 public:
  // 2^20 records ≈ 64 MiB when full — comfortably the §V-D 21-day stream.
  // Storage grows geometrically toward the cap as records arrive (an idle
  // shard's ring costs nothing), so a 1024-seat fleet does not eagerly
  // reserve 64 GiB.
  static constexpr std::size_t kDefaultCapacity = std::size_t{1} << 20;

  // Capacity is rounded up to a power of two (0 stays 0: every append is
  // counted and dropped without storing — the zero-capacity edge is legal).
  explicit Ring(std::size_t capacity = kDefaultCapacity) {
    capacity_ = round_up_pow2(capacity);
  }

  // Interns a string in this ring's table (id for BinRecord::comm_id /
  // detail_id). Zero-allocation once the string has been seen.
  std::uint32_t intern(std::string_view s) { return strings_.intern(s); }
  [[nodiscard]] std::string_view string_at(std::uint32_t id) const noexcept {
    return strings_.get(id);
  }
  [[nodiscard]] const util::StringTable& strings() const noexcept {
    return strings_;
  }

  // Steady state — ring full — stays inline: a 64-byte store and a masked
  // increment, zero allocations. This is the path bench_audit gates ≥3×
  // over the text log. Filling / zero-capacity fall through to the cold
  // out-of-line path.
  void append(const BinRecord& rec) {
    if (buf_.size() == capacity_ && capacity_ != 0) {
      ++total_appended_;
      buf_[head_] = rec;
      head_ = (head_ + 1) & (capacity_ - 1);
      ++dropped_;
      return;
    }
    append_slow(rec);
  }
  void clear();
  // Shrinking below the current size evicts oldest records immediately
  // (counted in dropped(), like the text log). Rounds up to a power of two.
  void set_capacity(std::size_t cap);

  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] std::size_t size() const noexcept { return buf_.size(); }
  [[nodiscard]] bool empty() const noexcept { return buf_.empty(); }

  // i-th record, oldest first (i < size()).
  [[nodiscard]] const BinRecord& at(std::size_t i) const noexcept {
    if (buf_.size() < capacity_) return buf_[i];
    return buf_[(head_ + i) & (capacity_ - 1)];
  }

  // Lifetime totals, unaffected by ring eviction.
  [[nodiscard]] std::uint64_t total_appended() const noexcept {
    return total_appended_;
  }
  [[nodiscard]] std::uint64_t dropped() const noexcept { return dropped_; }

  // Bytes held by record storage + intern payload (fleet RSS accounting).
  [[nodiscard]] std::size_t memory_bytes() const noexcept {
    return buf_.capacity() * sizeof(BinRecord) + strings_.bytes();
  }

 private:
  static std::size_t round_up_pow2(std::size_t v) noexcept {
    if (v == 0) return 0;
    std::size_t p = 1;
    while (p < v) p <<= 1;
    return p;
  }

  // Cold append path: zero-capacity drop accounting and the filling phase's
  // geometric growth toward the cap.
  void append_slow(const BinRecord& rec);

  // The per-shard decision ring the parallel engine's monitors append into —
  // every mutation stays behind the three members that maintain the ring
  // invariant (size ≤ capacity, totals monotone), mirroring the text log's
  // contract so the facade swap cannot change sharing semantics.
  OVERHAUL_SHARED(append|append_slow|clear|set_capacity)
  std::vector<BinRecord> buf_;
  OVERHAUL_SHARED(append|append_slow|clear|set_capacity) std::size_t head_ = 0;
  OVERHAUL_SHARD_LOCAL std::size_t capacity_ = 0;
  OVERHAUL_SHARED(append|append_slow|clear|set_capacity)
  std::uint64_t total_appended_ = 0;
  OVERHAUL_SHARED(append|append_slow|clear|set_capacity)
  std::uint64_t dropped_ = 0;
  OVERHAUL_SHARED(append|intern|clear|set_capacity)
  util::StringTable strings_;
};

}  // namespace overhaul::audit
