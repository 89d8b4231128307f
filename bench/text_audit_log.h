// Frozen text audit log: the deque-of-strings decision log the binary ring
// replaced (DESIGN.md §16), kept outside src/ as a reference only. Its
// append (an AuditRecord with two heap strings, pushed into a bounded deque)
// is bench_audit's >= 3x baseline; SinkCompat mirrors streams into it and
// audit::Sink; text_equiv_bytes() prices a ring's live records as its
// entries for bench_audit and bench_fleet.
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>

#include "audit/ring.h"
#include "util/audit_log.h"

namespace overhaul::bench {

class TextAuditLog {
 public:
  void append(util::AuditRecord record) {
    ++total_appended_;
    if (capacity_ == 0) {
      ++dropped_;
      return;
    }
    records_.push_back(std::move(record));
    while (records_.size() > capacity_) {
      records_.pop_front();
      ++dropped_;
    }
  }

  // Shrinking below the current size evicts oldest records immediately.
  void set_capacity(std::size_t cap) {
    capacity_ = cap;
    while (records_.size() > capacity_) {
      records_.pop_front();
      ++dropped_;
    }
  }

  [[nodiscard]] const std::deque<util::AuditRecord>& records() const noexcept {
    return records_;
  }
  [[nodiscard]] std::size_t size() const noexcept { return records_.size(); }
  [[nodiscard]] std::uint64_t total_appended() const noexcept {
    return total_appended_;
  }
  [[nodiscard]] std::uint64_t dropped() const noexcept { return dropped_; }

  [[nodiscard]] std::size_t count(util::Decision decision) const noexcept {
    return static_cast<std::size_t>(std::count_if(
        records_.begin(), records_.end(),
        [&](const util::AuditRecord& r) { return r.decision == decision; }));
  }
  [[nodiscard]] std::size_t count(util::Op op,
                                  util::Decision decision) const noexcept {
    return static_cast<std::size_t>(std::count_if(
        records_.begin(), records_.end(), [&](const util::AuditRecord& r) {
          return r.op == op && r.decision == decision;
        }));
  }

 private:
  std::deque<util::AuditRecord> records_;
  std::size_t capacity_ = 1'000'000;
  std::uint64_t total_appended_ = 0;
  std::uint64_t dropped_ = 0;
};

// What the ring's live records would occupy as TextAuditLog entries: the
// record struct itself plus its two heap strings' payloads.
inline std::size_t text_equiv_bytes(const audit::Ring& ring) {
  std::size_t bytes = 0;
  for (std::size_t i = 0; i < ring.size(); ++i) {
    const audit::BinRecord& r = ring.at(i);
    bytes += sizeof(util::AuditRecord) + ring.string_at(r.comm_id).size() +
             ring.string_at(r.detail_id).size();
  }
  return bytes;
}

}  // namespace overhaul::bench
