// The (flow, forwarder) pairs a detector has already judged.
//
// A guard judges each overheard control forward once per packet, however
// many link-layer retransmissions of it reach the air: both the LITEWORP
// fabrication check and the z-score detector consult this set first. It is
// touched once per overheard control frame, so it is an open-addressed set
// with linear probing (load <= 3/4) in one pool-backed vector of 16-byte
// slots: origin and forwarder share one word, sequence number and type tag
// the other. A pair whose sequence number needs more than 56 bits, or that
// packs to the empty-slot pattern, cannot be packed without aliasing; it
// goes to a short overflow list compared field by field instead.
//
// The set forgets everything once it holds more than kMaxEntries pairs,
// checked before each insert — a bound on stale flows that the protocol's
// outputs depend on, so it is part of the contract, not a tuning knob.
#pragma once

#include <cstddef>
#include <cstdint>

#include "util/arena.h"
#include "util/ids.h"

namespace lw::lite {

class ForwardDedup {
 public:
  static constexpr std::size_t kMaxEntries = 8192;

  /// Records (flow, forwarder). True if the pair is new; false if it was
  /// already recorded since the last reset.
  bool insert(const FlowKey& flow, NodeId forwarder);

  /// Forgets every pair; the slot storage is kept for reuse.
  void reset();

  std::size_t size() const { return packed_ + wide_.size(); }

 private:
  struct Slot {
    std::uint64_t ids;  // origin << 32 | forwarder
    std::uint64_t seq;  // seq << 8 | type tag
    friend bool operator==(const Slot&, const Slot&) = default;
  };
  struct Wide {
    FlowKey flow;
    NodeId forwarder;
    friend bool operator==(const Wide&, const Wide&) = default;
  };
  static constexpr Slot kEmpty{~std::uint64_t{0}, ~std::uint64_t{0}};
  static constexpr std::size_t kMinSlots = 16;

  /// Index of `key`'s slot, or of the empty slot where it would go.
  std::size_t probe(const Slot& key) const;
  /// Doubles the slot vector and re-places every packed pair.
  void grow();

  util::PoolVector<Slot> slots_;  // size is zero or a power of two
  std::size_t packed_ = 0;
  util::PoolVector<Wide> wide_;
};

}  // namespace lw::lite
