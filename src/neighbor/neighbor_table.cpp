#include "neighbor/neighbor_table.h"

#include <algorithm>

namespace lw::nbr {

std::size_t NeighborTable::slot_of(NodeId id) const {
  const auto it = std::find(ids_.begin(), ids_.end(), id);
  return it == ids_.end() ? kNoSlot
                          : static_cast<std::size_t>(it - ids_.begin());
}

void NeighborTable::add_neighbor(NodeId id) {
  if (id == kInvalidNode || knows_neighbor(id)) return;
  ids_.push_back(id);
  lists_.emplace_back();
}

void NeighborTable::set_neighbor_list(NodeId owner,
                                      std::span<const NodeId> list) {
  const std::size_t slot = slot_of(owner);
  if (slot == kNoSlot) return;
  SecondHop& second = lists_[slot];
  second.ids.assign(list.begin(), list.end());
  std::erase(second.ids, kInvalidNode);
  second.stored = true;
}

const util::PoolVector<NodeId>* NeighborTable::list_of(NodeId owner) const {
  const std::size_t slot = slot_of(owner);
  if (slot == kNoSlot || !lists_[slot].stored) return nullptr;
  return &lists_[slot].ids;
}

bool NeighborTable::in_list_of(NodeId owner, NodeId candidate) const {
  const std::size_t slot = slot_of(owner);
  if (slot == kNoSlot) return false;
  const util::PoolVector<NodeId>& list = lists_[slot].ids;
  return std::find(list.begin(), list.end(), candidate) != list.end();
}

bool NeighborTable::is_within_two_hops(NodeId id) const {
  if (knows_neighbor(id)) return true;
  return std::any_of(lists_.begin(), lists_.end(),
                     [id](const SecondHop& second) {
                       return std::find(second.ids.begin(), second.ids.end(),
                                        id) != second.ids.end();
                     });
}

bool NeighborTable::is_revoked(NodeId id) const {
  return std::find(revoked_.begin(), revoked_.end(), id) != revoked_.end();
}

void NeighborTable::revoke(NodeId id) {
  if (!knows_neighbor(id) || is_revoked(id)) return;
  revoked_.push_back(id);
}

void NeighborTable::expire_neighbor(NodeId id) {
  const std::size_t slot = slot_of(id);
  if (slot == kNoSlot) return;
  ids_.erase(ids_.begin() + static_cast<std::ptrdiff_t>(slot));
  lists_.erase(lists_.begin() + static_cast<std::ptrdiff_t>(slot));
}

void NeighborTable::clear() {
  ids_.clear();
  lists_.clear();
  revoked_.clear();
}

util::PoolVector<NodeId> NeighborTable::active_neighbors() const {
  util::PoolVector<NodeId> active;
  active.reserve(ids_.size());
  for (NodeId id : ids_) {
    if (!is_revoked(id)) active.push_back(id);
  }
  return active;
}

std::size_t NeighborTable::storage_bytes() const {
  std::size_t bytes = 5 * ids_.size();
  for (const SecondHop& second : lists_) bytes += 4 * second.ids.size();
  return bytes;
}

}  // namespace lw::nbr
