// ForwardDedup: the flat (flow, forwarder) set answers exactly as a
// node-based reference set under the same clear-above-kMaxEntries rule,
// including the pairs that cannot be packed into one 16-byte slot.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <tuple>
#include <vector>

#include "liteworp/forward_dedup.h"
#include "util/rng.h"

namespace lw::lite {
namespace {

/// The reference: every field compared, no packing.
class ReferenceDedup {
 public:
  bool insert(const FlowKey& flow, NodeId forwarder) {
    if (set_.size() > ForwardDedup::kMaxEntries) set_.clear();
    return set_.emplace(flow.origin, flow.seq, flow.type_tag, forwarder)
        .second;
  }
  void reset() { set_.clear(); }
  std::size_t size() const { return set_.size(); }

 private:
  std::set<std::tuple<NodeId, SeqNo, std::uint8_t, NodeId>> set_;
};

struct Pair {
  FlowKey flow;
  NodeId forwarder;
};

/// Inserts every pair into both sets; returns how many were new.
std::size_t replay(ForwardDedup& dedup, ReferenceDedup& reference,
                   const std::vector<Pair>& pairs) {
  std::size_t fresh = 0;
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    const Pair& p = pairs[i];
    const bool expected = reference.insert(p.flow, p.forwarder);
    EXPECT_EQ(dedup.insert(p.flow, p.forwarder), expected) << "pair " << i;
    EXPECT_EQ(dedup.size(), reference.size()) << "pair " << i;
    fresh += expected ? 1 : 0;
  }
  return fresh;
}

/// The pairs a guard sees: a few origins flooding increasing sequence
/// numbers, each forward overheard from several neighbors and repeated by
/// link-layer retransmissions.
std::vector<Pair> seeded_stream(std::uint64_t seed, std::size_t count) {
  Rng rng(seed);
  std::vector<Pair> pairs;
  pairs.reserve(count);
  while (pairs.size() < count) {
    const FlowKey flow{
        .origin = static_cast<NodeId>(rng.uniform_int(0, 40)),
        .seq = static_cast<SeqNo>(rng.uniform_int(0, 3000)),
        .type_tag = static_cast<std::uint8_t>(rng.uniform_int(0, 5))};
    const NodeId forwarder = static_cast<NodeId>(rng.uniform_int(0, 15));
    const int copies = static_cast<int>(rng.uniform_int(1, 3));
    for (int c = 0; c < copies && pairs.size() < count; ++c) {
      pairs.push_back({flow, forwarder});
    }
  }
  return pairs;
}

TEST(ForwardDedup, SeededStreamMatchesReferenceAcrossClears) {
  ForwardDedup dedup;
  ReferenceDedup reference;
  // Far past several clears at kMaxEntries.
  const std::vector<Pair> pairs = seeded_stream(2024, 60000);
  const std::size_t fresh = replay(dedup, reference, pairs);
  EXPECT_GT(fresh, 3 * ForwardDedup::kMaxEntries) << "stream must clear";
  EXPECT_LT(fresh, pairs.size()) << "stream must repeat pairs";
}

TEST(ForwardDedup, ClearsOnlyOnceMoreThanMaxEntriesAreHeld) {
  ForwardDedup dedup;
  const FlowKey first{.origin = 1, .seq = 0, .type_tag = 1};
  ASSERT_TRUE(dedup.insert(first, 2));
  for (SeqNo seq = 1; seq <= ForwardDedup::kMaxEntries; ++seq) {
    ASSERT_TRUE(dedup.insert({.origin = 1, .seq = seq, .type_tag = 1}, 2));
  }
  // kMaxEntries + 1 pairs held: the next insert forgets them first, and a
  // repeat of the oldest pair therefore reads as new.
  EXPECT_EQ(dedup.size(), ForwardDedup::kMaxEntries + 1);
  EXPECT_TRUE(dedup.insert(first, 2));
  EXPECT_EQ(dedup.size(), 1u);
  EXPECT_FALSE(dedup.insert(first, 2));
}

TEST(ForwardDedup, HoldsExactlyMaxEntriesWithoutClearing) {
  ForwardDedup dedup;
  for (SeqNo seq = 0; seq < ForwardDedup::kMaxEntries; ++seq) {
    ASSERT_TRUE(dedup.insert({.origin = 3, .seq = seq, .type_tag = 2}, 4));
  }
  // Exactly kMaxEntries held is not over the bound: no clear.
  EXPECT_FALSE(dedup.insert({.origin = 3, .seq = 0, .type_tag = 2}, 4));
  EXPECT_EQ(dedup.size(), ForwardDedup::kMaxEntries);
}

TEST(ForwardDedup, ResetForgetsEveryPairAndStaysUsable) {
  ForwardDedup dedup;
  ReferenceDedup reference;
  const std::vector<Pair> pairs = seeded_stream(7, 3000);
  replay(dedup, reference, pairs);
  dedup.reset();
  reference.reset();
  EXPECT_EQ(dedup.size(), 0u);
  // Every pair reads new once more, then repeats are caught again.
  replay(dedup, reference, pairs);
}

TEST(ForwardDedup, PackingExtremesNeverAlias) {
  constexpr SeqNo kMaxPacked = (SeqNo{1} << 56) - 1;
  std::vector<Pair> extremes;
  for (int tag = 0; tag <= 255; ++tag) {
    const auto type_tag = static_cast<std::uint8_t>(tag);
    for (NodeId origin : {NodeId{0}, kInvalidNode - 1, kInvalidNode}) {
      for (SeqNo seq : {SeqNo{0}, kMaxPacked, kMaxPacked + 1, ~SeqNo{0}}) {
        for (NodeId forwarder : {NodeId{0}, kInvalidNode}) {
          extremes.push_back({{origin, seq, type_tag}, forwarder});
        }
      }
    }
  }
  // Wide sequence numbers differing only above bit 56 must stay apart.
  extremes.push_back({{5, SeqNo{3} << 56 | 9, 1}, 6});
  extremes.push_back({{5, SeqNo{1} << 56 | 9, 1}, 6});
  extremes.push_back({{5, 9, 1}, 6});

  ForwardDedup dedup;
  ReferenceDedup reference;
  const std::size_t distinct = extremes.size();
  ASSERT_LE(distinct, ForwardDedup::kMaxEntries) << "no clear in this test";
  // Everything is new the first time and a repeat the second time.
  EXPECT_EQ(replay(dedup, reference, extremes), distinct);
  EXPECT_EQ(replay(dedup, reference, extremes), 0u);
}

}  // namespace
}  // namespace lw::lite
