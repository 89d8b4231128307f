// Append-only string-intern table behind every fixed-size record that names
// a process: the binary audit ring (DESIGN.md §16) and the trusted alert
// overlay (DESIGN.md §11).
//
// Process names and decision details repeat heavily across a decision
// stream (a 21-day deployment logs the same handful of comms millions of
// times), so each owner stores every distinct string once and its records
// carry 32-bit ids. Steady state — every string already seen — an intern()
// is one constant-time hash plus a probe of a flat open-addressing table: no
// allocation, no node chasing. (Deliberately not std::unordered_map: the
// per-node indirection roughly doubles warm lookup cost on the append hot
// path, and a flat table keeps its owners free of nondet-ordered containers
// for the R9 determinism lint.)
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <string_view>
#include <vector>

namespace overhaul::util {

class StringTable {
 public:
  // Id 0 is always the empty string, so a default record decodes cleanly.
  StringTable();

  // Returns the id of `s`, adding it on first sight. Ids are dense and
  // assigned in first-intern order; they never change or disappear.
  // Warm lookups (every steady-state append) stay inline: one constant-time
  // hash, one slot load, one equality check.
  std::uint32_t intern(std::string_view s) {
    const std::uint32_t h = hash_bytes(s);
    std::size_t i = h & mask_;
    while (true) {
      const Slot& slot = slots_[i];
      if (slot.id_plus1 == 0) break;
      if (slot.hash == h && views_[slot.id_plus1 - 1] == s)
        return slot.id_plus1 - 1;
      i = (i + 1) & mask_;
    }
    return insert(s, h, i);
  }

  // The interned string for `id`; "" when out of range (defensive — decoded
  // snapshots validate range before use).
  [[nodiscard]] std::string_view get(std::uint32_t id) const noexcept {
    if (id >= views_.size()) return {};
    return views_[id];
  }

  [[nodiscard]] std::size_t size() const noexcept { return views_.size(); }
  // Total payload bytes across all interned strings (memory accounting).
  [[nodiscard]] std::size_t bytes() const noexcept { return bytes_; }

  // Drops every entry except the canonical id-0 empty string.
  void clear();

 private:
  struct Slot {
    std::uint32_t hash = 0;
    std::uint32_t id_plus1 = 0;  // 0 = empty slot
  };

  // Constant-time hash: first 8 bytes, last 8 bytes, and length. A
  // content-spanning hash (FNV et al.) is a serial multiply chain that
  // dominates append for realistic device-path details; since every slot
  // hit is confirmed by a full equality check anyway, the hash only needs
  // to *discriminate*, not fingerprint. Pathological sets sharing prefix,
  // suffix and length degrade to probe chains — still correct, just slower.
  static std::uint32_t hash_bytes(std::string_view s) noexcept {
    constexpr std::uint64_t kMul = 0xD6E8FEB86659FD93ull;
    std::uint64_t a = 0;
    std::uint64_t b = 0;
    if (s.size() >= 8) {
      __builtin_memcpy(&a, s.data(), 8);
      __builtin_memcpy(&b, s.data() + s.size() - 8, 8);
    } else if (!s.empty()) {
      for (std::size_t i = 0; i < s.size(); ++i)
        a |= static_cast<std::uint64_t>(
                 static_cast<unsigned char>(s[i]))
             << (i * 8);
    }
    std::uint64_t h = (a ^ (b * kMul)) + s.size() * 0x9E3779B97F4A7C15ull;
    h ^= h >> 33;
    h *= 0xFF51AFD7ED558CCDull;
    h ^= h >> 29;
    return static_cast<std::uint32_t>(h);
  }

  // Cold path: first sight of `s` — copy it into stable storage, fill the
  // slot, maybe grow the table.
  std::uint32_t insert(std::string_view s, std::uint32_t hash,
                       std::size_t slot_index);
  void grow();

  // std::deque keeps element addresses stable across growth, so views_'
  // string_views stay valid for the table's lifetime.
  std::deque<std::string> strings_;
  std::vector<std::string_view> views_;  // views_[id] aliases strings_[id]
  std::vector<Slot> slots_;  // power-of-two, linear probing, ≤ 7/10 load
  std::size_t mask_ = 0;
  std::size_t used_ = 0;
  std::size_t bytes_ = 0;
};

}  // namespace overhaul::util
