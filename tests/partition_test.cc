// Golden-value pins for the flow-sharding hash.  Every differential test of
// ShardCore and FleetService (and the snapshot → reshard → restore contract)
// depends on shard assignment being identical on every platform and across
// every future refactor; these constants freeze the SplitMix64 finalizer, the
// key → shard mapping, the chained multi-field flow hash, and the
// slot-over-shard routing invariant.  If one of these values ever changes,
// the change is a wire-format break for snapshots, not a refactor.
#include <gtest/gtest.h>

#include <cstdint>

#include "algorithms/corpus.h"
#include "banzai/fleet.h"
#include "core/compiler.h"
#include "sim/partition.h"
#include "test_util.h"

namespace {

TEST(PartitionGoldenTest, Mix64MatchesPinnedValues) {
  struct Golden {
    std::uint64_t key;
    std::uint64_t mixed;
  };
  // Computed once from the SplitMix64 finalizer in sim/partition.h.
  const Golden kGolden[] = {
      {0x0ULL, 0xe220a8397b1dcdafULL},
      {0x1ULL, 0x910a2dec89025cc1ULL},
      {0x2ULL, 0x975835de1c9756ceULL},
      {0x7ULL, 0x63cbe1e459320dd7ULL},
      {0x2aULL, 0xbdd732262feb6e95ULL},
      {0x3e8ULL, 0x3c1eba8b4dccc148ULL},
      {0xdeadbeefULL, 0x4adfb90f68c9eb9bULL},
      {0xffffffffULL, 0x73b13ba2aff181c0ULL},
      {0x123456789abcdef0ULL, 0x161922c645ce50e8ULL},
  };
  for (const Golden& g : kGolden)
    EXPECT_EQ(netsim::mix64(g.key), g.mixed) << "key 0x" << std::hex << g.key;
}

TEST(PartitionGoldenTest, ShardOfKeyMatchesPinnedValues) {
  struct Golden {
    std::uint64_t key;
    std::size_t shard4, shard8;
  };
  const Golden kGolden[] = {
      {0x0ULL, 3, 7},    {0x1ULL, 1, 1},        {0x2ULL, 2, 6},
      {0x7ULL, 3, 7},    {0x2aULL, 1, 5},       {0x3e8ULL, 0, 0},
      {0xdeadbeefULL, 3, 3}, {0xffffffffULL, 0, 0},
      {0x123456789abcdef0ULL, 0, 0},
  };
  for (const Golden& g : kGolden) {
    EXPECT_EQ(netsim::shard_of_key(g.key, 4), g.shard4) << "key " << g.key;
    EXPECT_EQ(netsim::shard_of_key(g.key, 8), g.shard8) << "key " << g.key;
    EXPECT_EQ(netsim::shard_of_key(g.key, 1), 0u) << "key " << g.key;
  }
}

// The chained multi-field hash ShardCore computes (h = 0; for each field:
// h = mix64(h ^ field)) — pinned through a real compiled machine so the whole
// packet-to-slot path is frozen, not just the mixer.
TEST(PartitionGoldenTest, ChainedFlowKeyHashMatchesPinnedValue) {
  const auto& alg = algorithms::algorithm("flowlets");
  auto target = test_util::least_target(alg.source);
  ASSERT_TRUE(target.has_value());
  domino::CompileResult compiled = domino::compile(alg.source, *target);
  const auto& ft = compiled.machine().fields();

  banzai::ShardCore core(compiled.machine(), /*num_slots=*/8,
                         /*num_shards=*/2, /*batch_size=*/64,
                         {ft.id_of("sport"), ft.id_of("dport")});
  banzai::Packet pkt(ft.size());
  pkt.set(ft.id_of("sport"), 1005);
  pkt.set(ft.id_of("dport"), 80);
  EXPECT_EQ(core.flow_hash(pkt), 0x2158446fc823923cULL);
  EXPECT_EQ(core.slot_of(pkt), 0x2158446fc823923cULL % 8);
  EXPECT_EQ(core.slot_of(pkt), 4u);
  EXPECT_EQ(core.shard_of(pkt), 0u);  // slot 4 % 2 shards
}

// Routing invariant behind elastic resharding: a packet's slot never depends
// on the shard count, and its shard is always slot % num_shards.  This is
// what lets whole-slot state migration reproduce a fresh service bit for bit.
TEST(PartitionGoldenTest, SlotAssignmentIsShardCountIndependent) {
  const auto& alg = algorithms::algorithm("flowlets");
  auto target = test_util::least_target(alg.source);
  ASSERT_TRUE(target.has_value());
  domino::CompileResult compiled = domino::compile(alg.source, *target);
  const auto& ft = compiled.machine().fields();
  const std::vector<banzai::FieldId> key = {ft.id_of("sport"),
                                            ft.id_of("dport")};

  banzai::ShardCore one(compiled.machine(), 8, 1, 64, key);
  banzai::ShardCore two(compiled.machine(), 8, 2, 64, key);
  banzai::ShardCore eight(compiled.machine(), 8, 8, 64, key);
  for (int sport = 0; sport < 64; ++sport) {
    banzai::Packet pkt(ft.size());
    pkt.set(ft.id_of("sport"), 1000 + sport);
    pkt.set(ft.id_of("dport"), 80);
    const std::size_t slot = one.slot_of(pkt);
    EXPECT_EQ(two.slot_of(pkt), slot);
    EXPECT_EQ(eight.slot_of(pkt), slot);
    EXPECT_EQ(one.shard_of(pkt), slot % 1);
    EXPECT_EQ(two.shard_of(pkt), slot % 2);
    EXPECT_EQ(eight.shard_of(pkt), slot % 8);
  }
}

}  // namespace
