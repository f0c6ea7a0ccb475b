#include "measure/census_shards.h"

#include <cassert>

namespace anyopt::measure {

CensusShards::CensusShards(std::size_t target_count)
    : target_count_(target_count),
      shards_((target_count + kShardWidth - 1) / kShardWidth) {}

CensusShards::Shard& CensusShards::shard_for(std::size_t t) {
  assert(t < target_count_);
  std::unique_ptr<Shard>& slot = shards_[t / kShardWidth];
  if (slot == nullptr) {
    slot = std::make_unique<Shard>();
    slot->written.resize(kShardWidth);
    slot->site.resize(kShardWidth);
    slot->attachment.resize(kShardWidth);
    slot->one_way_ms.resize(kShardWidth);
  }
  return *slot;
}

const CensusShards::Shard* CensusShards::shard_of(std::size_t t) const {
  assert(t < target_count_);
  return shards_[t / kShardWidth].get();
}

void CensusShards::set(std::size_t t, SiteId site,
                       bgp::AttachmentIndex attachment, double one_way_ms) {
  Shard& shard = shard_for(t);
  const std::size_t i = t % kShardWidth;
  shard.written[i] = 1;
  shard.site[i] = site.value();
  shard.attachment[i] = attachment;
  shard.one_way_ms[i] = one_way_ms;
}

bool CensusShards::written(std::size_t t) const {
  const Shard* shard = shard_of(t);
  return shard != nullptr && shard->written[t % kShardWidth] != 0;
}

SiteId CensusShards::site(std::size_t t) const {
  assert(written(t));
  return SiteId{shard_of(t)->site[t % kShardWidth]};
}

bgp::AttachmentIndex CensusShards::attachment(std::size_t t) const {
  assert(written(t));
  return shard_of(t)->attachment[t % kShardWidth];
}

double CensusShards::one_way_ms(std::size_t t) const {
  assert(written(t));
  return shard_of(t)->one_way_ms[t % kShardWidth];
}

void CensusShards::release_through(std::size_t t) {
  // Shard s covers [s*W, (s+1)*W); it is fully drained once the cursor
  // has consumed its last target.
  const std::size_t end_shard = (t + 1) / kShardWidth;
  for (std::size_t s = 0; s < end_shard && s < shards_.size(); ++s) {
    shards_[s].reset();
  }
}

std::size_t CensusShards::allocated_shards() const {
  std::size_t n = 0;
  for (const auto& shard : shards_) {
    if (shard != nullptr) ++n;
  }
  return n;
}

std::size_t CensusShards::retained_bytes() const {
  constexpr std::size_t kShardBytes =
      kShardWidth * (sizeof(std::uint8_t) + 2 * sizeof(std::uint32_t) +
                     sizeof(double)) +
      sizeof(Shard);
  return shards_.capacity() * sizeof(std::unique_ptr<Shard>) +
         allocated_shards() * kShardBytes;
}

}  // namespace anyopt::measure
