// Sharded census aggregation (measure/census_shards.h): lazy allocation
// and eager release as the probe cursor drains the plane.

#include <gtest/gtest.h>

#include <cstdint>

#include "bgp/origin.h"
#include "measure/census_shards.h"
#include "netbase/ids.h"
#include "netbase/rng.h"

namespace anyopt::measure {
namespace {

constexpr std::size_t kWidth = CensusShards::kShardWidth;

/// Deterministic per-target record, so reads can be checked without a
/// side table.
SiteId site_of(std::size_t t) {
  return SiteId{static_cast<SiteId::underlying_type>(mix64(t) % 19)};
}
bgp::AttachmentIndex attachment_of(std::size_t t) {
  return static_cast<bgp::AttachmentIndex>(mix64(t, 1) % 37);
}
double latency_of(std::size_t t) {
  return 1.0 + static_cast<double>(mix64(t, 2) % 4096) * 0.03125;
}

void write_target(CensusShards& shards, std::size_t t) {
  shards.set(t, site_of(t), attachment_of(t), latency_of(t));
}

void expect_written(const CensusShards& shards, std::size_t t) {
  ASSERT_TRUE(shards.written(t)) << "target " << t;
  EXPECT_EQ(shards.site(t), site_of(t)) << "target " << t;
  EXPECT_EQ(shards.attachment(t), attachment_of(t)) << "target " << t;
  // operator== on doubles deliberately: byte-identical, not "close".
  EXPECT_EQ(shards.one_way_ms(t), latency_of(t)) << "target " << t;
}

TEST(CensusShards, UnwrittenMeansUnreachableAndCostsNothing) {
  const CensusShards shards(10 * kWidth);
  EXPECT_EQ(shards.target_count(), 10 * kWidth);
  EXPECT_EQ(shards.allocated_shards(), 0u);
  for (const std::size_t t : {std::size_t{0}, kWidth + 7, 10 * kWidth - 1}) {
    EXPECT_FALSE(shards.written(t));
  }
  // The empty plane retains only the shard directory, not shard storage.
  EXPECT_LT(shards.retained_bytes(), kWidth);
}

TEST(CensusShards, AllocatesLazilyPerTouchedShard) {
  CensusShards shards(8 * kWidth);
  write_target(shards, 3);
  EXPECT_EQ(shards.allocated_shards(), 1u);
  const std::size_t one_shard = shards.retained_bytes();
  write_target(shards, 5);  // same shard: no new allocation
  EXPECT_EQ(shards.allocated_shards(), 1u);
  EXPECT_EQ(shards.retained_bytes(), one_shard);
  write_target(shards, 6 * kWidth + 1);  // a sparse catchment far away
  EXPECT_EQ(shards.allocated_shards(), 2u);
  EXPECT_GT(shards.retained_bytes(), one_shard);
  expect_written(shards, 3);
  expect_written(shards, 5);
  expect_written(shards, 6 * kWidth + 1);
  EXPECT_FALSE(shards.written(4));
  EXPECT_FALSE(shards.written(7 * kWidth));
}

TEST(CensusShards, ReleaseThroughFreesThePrefixAndReadsAsUnwritten) {
  CensusShards shards(4 * kWidth);
  for (std::size_t t = 0; t < 4 * kWidth; t += 97) write_target(shards, t);
  EXPECT_EQ(shards.allocated_shards(), 4u);
  const std::size_t full = shards.retained_bytes();

  // A cursor mid-shard releases only the shards that END at or before it.
  shards.release_through(kWidth + 5);
  EXPECT_EQ(shards.allocated_shards(), 3u);
  EXPECT_LT(shards.retained_bytes(), full);
  EXPECT_FALSE(shards.written(0));  // released prefix
  const std::size_t first_in_shard1 = 97 * ((kWidth + 96) / 97);
  expect_written(shards, first_in_shard1);  // surviving shard, past cursor
  expect_written(shards, 97 * ((3 * kWidth + 96) / 97));  // untouched tail

  // Draining the whole plane returns everything but the directory.
  shards.release_through(4 * kWidth - 1);
  EXPECT_EQ(shards.allocated_shards(), 0u);
  for (std::size_t t = 0; t < 4 * kWidth; t += 97) {
    EXPECT_FALSE(shards.written(t));
  }
}

}  // namespace
}  // namespace anyopt::measure
