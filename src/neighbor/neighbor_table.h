// First- and second-hop neighbor knowledge with revocation state.
//
// After secure discovery a node stores (a) its own first-hop neighbor list
// and (b) the full neighbor list R_B of each of its neighbors B — the
// second-hop knowledge LITEWORP's checks and guard predicate rely on.
// Revocation marks a neighbor as isolated: it stays in the table (so alerts
// about it still verify) but fails every admission check.
//
// Storage follows the paper's Section 5.2 cost model: it grows with the
// node's degree, never with the network size. The first-hop ids sit in one
// contiguous insertion-ordered vector and R_B sits in the parallel slot of
// that vector, so every membership question is a scan over at most a few
// dozen ids (one or two cache lines at N_B ~ 10). Revoked ids are a second
// short list of their own, because revocation outlives expire_neighbor.
#pragma once

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <span>

#include "util/arena.h"
#include "util/ids.h"

namespace lw::nbr {

class NeighborTable {
 public:
  /// Registers a verified first-hop neighbor. The kInvalidNode sentinel is
  /// never a member and is ignored.
  void add_neighbor(NodeId id);

  /// True if `id` is a known first-hop neighbor, revoked or not.
  bool knows_neighbor(NodeId id) const { return slot_of(id) != kNoSlot; }

  /// True if `id` is a first-hop neighbor in good standing.
  bool is_active_neighbor(NodeId id) const {
    return knows_neighbor(id) && !is_revoked(id);
  }

  /// Stores the authenticated neighbor list R_owner of a first-hop
  /// neighbor. Silently ignored when `owner` is unknown (a list from a
  /// non-neighbor is rejected upstream anyway); kInvalidNode entries of
  /// `list` are dropped.
  void set_neighbor_list(NodeId owner, std::span<const NodeId> list);
  void set_neighbor_list(NodeId owner, std::initializer_list<NodeId> list) {
    set_neighbor_list(owner, std::span<const NodeId>(list.begin(), list.size()));
  }

  bool has_list_of(NodeId owner) const { return list_of(owner) != nullptr; }

  /// R_owner, or nullptr if not stored. The pointer stays valid until the
  /// table is next modified.
  const util::PoolVector<NodeId>* list_of(NodeId owner) const;

  /// True if `candidate` appears in the stored list R_owner — i.e. the
  /// claim "owner received this from candidate" is topologically plausible.
  bool in_list_of(NodeId owner, NodeId candidate) const;

  /// True if `id` appears in any stored neighbor list: a second-hop (or
  /// first-hop) node of ours.
  bool is_within_two_hops(NodeId id) const;

  /// Marks a neighbor as isolated. Idempotent.
  void revoke(NodeId id);
  bool is_revoked(NodeId id) const;

  /// Drops a first-hop neighbor entirely (crash aging): its id and its
  /// stored second-hop list both go, so the node can be re-admitted from
  /// scratch when it recovers. Revocation is NOT forgotten — an isolated
  /// attacker stays isolated across its own reboot.
  void expire_neighbor(NodeId id);

  /// Wipes everything including revocations (the owner itself crashed).
  void clear();

  /// All first-hop neighbors (including revoked); insertion order.
  const util::PoolVector<NodeId>& neighbors() const { return ids_; }

  /// First-hop neighbors in good standing. Pool-backed: callers on the
  /// per-frame attack path build and drop this without touching the heap.
  util::PoolVector<NodeId> active_neighbors() const;

  std::size_t neighbor_count() const { return ids_.size(); }
  std::size_t revoked_count() const { return revoked_.size(); }

  /// Storage footprint per the paper's cost model: 5 bytes per first-hop
  /// entry (4 id + 1 MalC) plus 4 bytes per stored second-hop list entry.
  std::size_t storage_bytes() const;

 private:
  static constexpr std::size_t kNoSlot = ~std::size_t{0};

  /// R_B for the neighbor in the same slot; `stored` tells an empty stored
  /// list from none at all.
  struct SecondHop {
    util::PoolVector<NodeId> ids;
    bool stored = false;
  };

  /// Index of `id` in ids_, or kNoSlot.
  std::size_t slot_of(NodeId id) const;

  util::PoolVector<NodeId> ids_;
  util::PoolVector<SecondHop> lists_;  // parallel to ids_
  util::PoolVector<NodeId> revoked_;
};

}  // namespace lw::nbr
