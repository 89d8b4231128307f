#include "util/string_table.h"

namespace overhaul::util {

namespace {
constexpr std::size_t kInitialSlots = 256;
}  // namespace

StringTable::StringTable() {
  slots_.resize(kInitialSlots);
  mask_ = kInitialSlots - 1;
  intern(std::string_view{});
}

std::uint32_t StringTable::insert(std::string_view s, std::uint32_t hash,
                                  std::size_t slot_index) {
  const auto id = static_cast<std::uint32_t>(strings_.size());
  strings_.emplace_back(s);
  views_.push_back(strings_.back());
  bytes_ += s.size();
  slots_[slot_index] = {hash, id + 1};
  if (++used_ * 10 >= slots_.size() * 7) grow();
  return id;
}

void StringTable::grow() {
  std::vector<Slot> old = std::move(slots_);
  slots_.assign(old.size() * 2, Slot{});
  mask_ = slots_.size() - 1;
  for (const Slot& slot : old) {
    if (slot.id_plus1 == 0) continue;
    std::size_t i = slot.hash & mask_;
    while (slots_[i].id_plus1 != 0) i = (i + 1) & mask_;
    slots_[i] = slot;
  }
}

void StringTable::clear() {
  strings_.clear();
  views_.clear();
  slots_.assign(kInitialSlots, Slot{});
  mask_ = kInitialSlots - 1;
  used_ = 0;
  bytes_ = 0;
  intern(std::string_view{});
}

}  // namespace overhaul::util
