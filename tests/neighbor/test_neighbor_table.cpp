// Neighbor table: first/second hop knowledge, revocation, storage model.
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "neighbor/neighbor_table.h"

namespace lw::nbr {
namespace {

TEST(NeighborTable, AddAndQuery) {
  NeighborTable table;
  table.add_neighbor(3);
  EXPECT_TRUE(table.knows_neighbor(3));
  EXPECT_TRUE(table.is_active_neighbor(3));
  EXPECT_FALSE(table.knows_neighbor(4));
  EXPECT_EQ(table.neighbor_count(), 1u);
}

TEST(NeighborTable, DuplicateAddIdempotent) {
  NeighborTable table;
  table.add_neighbor(3);
  table.add_neighbor(3);
  EXPECT_EQ(table.neighbor_count(), 1u);
}

TEST(NeighborTable, NeighborOrderPreserved) {
  NeighborTable table;
  table.add_neighbor(5);
  table.add_neighbor(2);
  table.add_neighbor(9);
  EXPECT_EQ(table.neighbors(), (util::PoolVector<NodeId>{5, 2, 9}));
}

TEST(NeighborTable, SecondHopListsQueryable) {
  NeighborTable table;
  table.add_neighbor(3);
  table.set_neighbor_list(3, {7, 8});
  EXPECT_TRUE(table.has_list_of(3));
  EXPECT_TRUE(table.in_list_of(3, 7));
  EXPECT_FALSE(table.in_list_of(3, 9));
  ASSERT_NE(table.list_of(3), nullptr);
  EXPECT_EQ(*table.list_of(3), (util::PoolVector<NodeId>{7, 8}));
}

TEST(NeighborTable, ListFromUnknownNodeIgnored) {
  NeighborTable table;
  table.set_neighbor_list(3, {7, 8});
  EXPECT_FALSE(table.has_list_of(3));
  EXPECT_FALSE(table.in_list_of(3, 7));
}

TEST(NeighborTable, WithinTwoHops) {
  NeighborTable table;
  table.add_neighbor(3);
  table.set_neighbor_list(3, {7, 8});
  EXPECT_TRUE(table.is_within_two_hops(3));   // first hop
  EXPECT_TRUE(table.is_within_two_hops(7));   // second hop
  EXPECT_FALSE(table.is_within_two_hops(42));
}

TEST(NeighborTable, RevocationSemantics) {
  NeighborTable table;
  table.add_neighbor(3);
  table.revoke(3);
  EXPECT_TRUE(table.knows_neighbor(3)) << "revoked stays in the table";
  EXPECT_FALSE(table.is_active_neighbor(3));
  EXPECT_TRUE(table.is_revoked(3));
  EXPECT_EQ(table.revoked_count(), 1u);
}

TEST(NeighborTable, RevokeUnknownIsNoop) {
  NeighborTable table;
  table.revoke(99);
  EXPECT_FALSE(table.is_revoked(99));
  EXPECT_EQ(table.revoked_count(), 0u);
}

TEST(NeighborTable, ActiveNeighborsExcludeRevoked) {
  NeighborTable table;
  table.add_neighbor(1);
  table.add_neighbor(2);
  table.add_neighbor(3);
  table.revoke(2);
  EXPECT_EQ(table.active_neighbors(), (util::PoolVector<NodeId>{1, 3}));
}

TEST(NeighborTable, StorageMatchesPaperCostModel) {
  // 5 bytes per first-hop entry (id + MalC) plus 4 per second-hop entry.
  NeighborTable table;
  for (NodeId n = 0; n < 10; ++n) table.add_neighbor(n);
  for (NodeId n = 0; n < 10; ++n) {
    table.set_neighbor_list(n, std::vector<NodeId>(10, 99));
  }
  EXPECT_EQ(table.storage_bytes(), 5u * 10 + 4u * 100);
  // The paper's headline: under half a kilobyte at N_B = 10.
  EXPECT_LT(table.storage_bytes(), 512u);
}

TEST(NeighborTable, ListReplacementOverwrites) {
  NeighborTable table;
  table.add_neighbor(3);
  table.set_neighbor_list(3, {7});
  table.set_neighbor_list(3, {8, 9});
  EXPECT_FALSE(table.in_list_of(3, 7));
  EXPECT_TRUE(table.in_list_of(3, 8));
}

TEST(NeighborTable, SentinelIsNeverAMember) {
  NeighborTable table;
  table.add_neighbor(kInvalidNode);
  table.add_neighbor(kInvalidNode);
  EXPECT_TRUE(table.neighbors().empty())
      << "discovery would advertise the sentinel as a neighbor";
  EXPECT_FALSE(table.knows_neighbor(kInvalidNode));
  table.set_neighbor_list(kInvalidNode, {1, 2});
  EXPECT_FALSE(table.has_list_of(kInvalidNode));

  table.add_neighbor(3);
  table.set_neighbor_list(3, {7, kInvalidNode, 8});
  EXPECT_EQ(*table.list_of(3), (util::PoolVector<NodeId>{7, 8}));
  EXPECT_FALSE(table.in_list_of(3, kInvalidNode));
  EXPECT_EQ(table.storage_bytes(), 5u + 4u * 2);
}

TEST(NeighborTable, ExpireKeepsOtherListsAndTheRevocation) {
  NeighborTable table;
  for (NodeId n : {1, 2, 3}) table.add_neighbor(n);
  table.set_neighbor_list(1, {10});
  table.set_neighbor_list(2, {20});
  table.set_neighbor_list(3, {30});
  table.revoke(2);
  table.expire_neighbor(2);
  EXPECT_EQ(table.neighbors(), (util::PoolVector<NodeId>{1, 3}));
  EXPECT_FALSE(table.has_list_of(2));
  EXPECT_TRUE(table.in_list_of(1, 10));
  EXPECT_TRUE(table.in_list_of(3, 30));
  EXPECT_FALSE(table.is_within_two_hops(20));
  EXPECT_TRUE(table.is_revoked(2)) << "isolation outlives expiry";
  table.add_neighbor(2);
  EXPECT_FALSE(table.is_active_neighbor(2));
  EXPECT_FALSE(table.has_list_of(2)) << "re-admitted with no stale list";
}

TEST(NeighborTable, EmptyStoredListIsStillAList) {
  NeighborTable table;
  table.add_neighbor(4);
  EXPECT_FALSE(table.has_list_of(4));
  table.set_neighbor_list(4, std::vector<NodeId>{});
  EXPECT_TRUE(table.has_list_of(4));
  EXPECT_TRUE(table.list_of(4)->empty());
}

TEST(NeighborTable, MemoryFollowsDegreeNotIds) {
  // Ten neighbors with ids past 10^6, each holding a ten-entry list: the
  // paper's N_B = 10 table. Its memory must not depend on how large the
  // ids (or the network) are.
  std::size_t grown = ~std::size_t{0};
  std::uint64_t direct = ~std::uint64_t{0};
  std::thread([&] {
    util::Arena& arena = util::thread_arena();
    // Carve this fresh thread's first chunk, so only the table itself can
    // grow chunk_bytes below.
    arena.deallocate(arena.allocate(16), 16);
    const util::Arena::Stats before = arena.stats();
    {
      NeighborTable table;
      for (NodeId n = 0; n < 10; ++n) table.add_neighbor(1'000'000 + 7 * n);
      for (NodeId n = 0; n < 10; ++n) {
        std::vector<NodeId> list;
        for (NodeId k = 0; k < 10; ++k) list.push_back(2'000'000 + 10 * n + k);
        table.set_neighbor_list(1'000'000 + 7 * n, list);
      }
      grown = arena.stats().chunk_bytes - before.chunk_bytes;
      direct = arena.stats().direct_allocs - before.direct_allocs;
    }
  }).join();
  EXPECT_LT(grown, 16u * 1024);
  EXPECT_EQ(direct, 0u) << "no allocation may bypass the pool";
}

}  // namespace
}  // namespace lw::nbr
