#include "audit/sink.h"

namespace overhaul::audit {

std::size_t Sink::count(util::Decision decision) const noexcept {
  std::size_t n = 0;
  for (std::size_t i = 0; i < ring_.size(); ++i)
    if (ring_.at(i).decision == static_cast<std::uint8_t>(decision)) ++n;
  return n;
}

std::size_t Sink::count(util::Op op,
                        util::Decision decision) const noexcept {
  std::size_t n = 0;
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    const BinRecord& r = ring_.at(i);
    if (r.op == static_cast<std::uint8_t>(op) &&
        r.decision == static_cast<std::uint8_t>(decision))
      ++n;
  }
  return n;
}

std::vector<util::AuditRecord> Sink::records() const {
  std::vector<util::AuditRecord> out;
  out.reserve(ring_.size());
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    const BinRecord& r = ring_.at(i);
    out.push_back(
        decode(r, ring_.string_at(r.comm_id), ring_.string_at(r.detail_id)));
  }
  return out;
}

std::vector<util::AuditRecord> Sink::filter(
    const std::function<bool(const util::AuditRecord&)>& pred) const {
  std::vector<util::AuditRecord> out;
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    const BinRecord& r = ring_.at(i);
    util::AuditRecord rec =
        decode(r, ring_.string_at(r.comm_id), ring_.string_at(r.detail_id));
    if (pred(rec)) out.push_back(std::move(rec));
  }
  return out;
}

}  // namespace overhaul::audit
