#include "liteworp/forward_dedup.h"

#include <algorithm>
#include <utility>

namespace lw::lite {

bool ForwardDedup::insert(const FlowKey& flow, NodeId forwarder) {
  if (size() > kMaxEntries) reset();  // bound stale flows
  const Slot key{std::uint64_t{flow.origin} << 32 | forwarder,
                 flow.seq << 8 | flow.type_tag};
  if (flow.seq >> 56 != 0 || key == kEmpty) {
    const Wide wide{flow, forwarder};
    if (std::find(wide_.begin(), wide_.end(), wide) != wide_.end()) {
      return false;
    }
    wide_.push_back(wide);
    return true;
  }
  if (!slots_.empty()) {
    const std::size_t at = probe(key);
    if (slots_[at] == key) return false;
    if ((packed_ + 1) * 4 <= slots_.size() * 3) {
      slots_[at] = key;
      ++packed_;
      return true;
    }
  }
  grow();
  slots_[probe(key)] = key;
  ++packed_;
  return true;
}

void ForwardDedup::reset() {
  std::fill(slots_.begin(), slots_.end(), kEmpty);
  packed_ = 0;
  wide_.clear();
}

std::size_t ForwardDedup::probe(const Slot& key) const {
  std::uint64_t h = key.ids * 0x9E3779B97F4A7C15ull ^ key.seq;
  h ^= h >> 29;
  h *= 0xBF58476D1CE4E5B9ull;
  h ^= h >> 32;
  const std::size_t mask = slots_.size() - 1;
  std::size_t at = static_cast<std::size_t>(h) & mask;
  while (slots_[at] != key && slots_[at] != kEmpty) at = (at + 1) & mask;
  return at;
}

void ForwardDedup::grow() {
  const util::PoolVector<Slot> old = std::move(slots_);
  slots_.assign(std::max(kMinSlots, 2 * old.size()), kEmpty);
  for (const Slot& slot : old) {
    if (slot != kEmpty) slots_[probe(slot)] = slot;
  }
}

}  // namespace lw::lite
