#pragma once
// Sharded census aggregation — the Internet-scale replacement for the
// whole-census intermediate vector.
//
// A census at paper scale resolves millions of targets; the historical
// implementation materialized one `std::vector` of per-target resolution
// records up front (size × 24 bytes resident for the whole census), then a
// second full-size pass consumed it.  `CensusShards` stores the same
// records in fixed-width shards that are
//
//   * allocated lazily — a shard exists only once a target in its range
//     resolves as reachable, so sparse catchments cost proportionally,
//   * released eagerly — the probe pass drains targets in ascending order
//     and can return each fully-consumed shard to the allocator while the
//     census is still being taken (the `--mem-budget-mb` streaming
//     degradation; see netbase/resmon.h).
//
// Unwritten targets are unreachable by construction: resolution only
// writes reachable paths, so "no shard" and "written flag clear" both mean
// the probe pass skips the target — exactly the old vector's semantics.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "bgp/origin.h"
#include "netbase/ids.h"

namespace anyopt::measure {

/// \brief Lazily-sharded per-target resolution records for one census.
///
/// Owned by the one thread that takes the census; not thread-safe.
class CensusShards {
 public:
  /// Targets per shard.  4096 × 24 B ≈ 96 KiB per shard: big enough that
  /// shard bookkeeping vanishes, small enough that eager release tracks
  /// the probe cursor closely (see docs/SCALING.md).
  static constexpr std::size_t kShardWidth = 4096;

  /// \brief An aggregation plane over `target_count` targets; allocates
  ///        only the shard directory (8 bytes per shard).
  explicit CensusShards(std::size_t target_count);

  /// \brief Records target `t`'s resolved catchment (reachable targets
  ///        only — unreachable targets are simply never written).
  void set(std::size_t t, SiteId site, bgp::AttachmentIndex attachment,
           double one_way_ms);

  /// \brief True when `t` was written (and its shard not yet released).
  [[nodiscard]] bool written(std::size_t t) const;
  /// \brief Resolved site of a written target.
  [[nodiscard]] SiteId site(std::size_t t) const;
  /// \brief Resolved attachment of a written target.
  [[nodiscard]] bgp::AttachmentIndex attachment(std::size_t t) const;
  /// \brief Resolved one-way latency (ms) of a written target.
  [[nodiscard]] double one_way_ms(std::size_t t) const;

  /// \brief Releases every shard that ends at or before target `t` — the
  ///        streaming hook: the probe pass calls this as its cursor
  ///        crosses shard boundaries, so fully-drained shards return to
  ///        the allocator mid-census.  Released targets read as
  ///        unwritten.
  void release_through(std::size_t t);

  /// \brief Targets this plane spans.
  [[nodiscard]] std::size_t target_count() const { return target_count_; }
  /// \brief Currently allocated (not yet released) shards.
  [[nodiscard]] std::size_t allocated_shards() const;
  /// \brief Heap bytes retained by live shards + the shard directory
  ///        (feeds the `bytes.census_shards` gauge).
  [[nodiscard]] std::size_t retained_bytes() const;

 private:
  /// One shard: parallel columns over kShardWidth consecutive targets.
  struct Shard {
    std::vector<std::uint8_t> written;      ///< per target in range
    std::vector<std::uint32_t> site;        ///< SiteId raw values
    std::vector<std::uint32_t> attachment;  ///< AttachmentIndex values
    std::vector<double> one_way_ms;
  };

  [[nodiscard]] Shard& shard_for(std::size_t t);
  [[nodiscard]] const Shard* shard_of(std::size_t t) const;

  std::size_t target_count_ = 0;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace anyopt::measure
