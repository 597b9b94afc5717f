// Greedy GC victim index for the conventional FTL.
//
// The index holds every GC candidate (a full, closed, good erasure block) in one bucket per
// valid-page count 0..max_valid, each bucket a bitset over flat block ids. The greedy pick is
// the lowest non-empty bucket's first member at or after a rotating start, wrapping around.
// That is exactly the block a full rotating scan from the same start picks when it keeps the
// first strict minimum of valid pages (DESIGN.md §6), at O(buckets + blocks/64) word reads
// instead of one flash-status lookup per block.
//
// The index stores no valid-page counts of its own: callers pass a block's current count to
// every operation, and ConventionalSsd::CheckConsistency checks that each member sits in the
// bucket its count names.

#ifndef BLOCKHEAD_SRC_FTL_VICTIM_INDEX_H_
#define BLOCKHEAD_SRC_FTL_VICTIM_INDEX_H_

#include <cassert>
#include <cstdint>
#include <vector>

#include "src/core/shard_safety.h"
#include "src/util/bitmap.h"

namespace blockhead {

class VictimIndex {
 public:
  static constexpr std::uint64_t kNone = ~0ULL;

  struct Pick {
    std::uint64_t block = kNone;  // Flat block id, or kNone when the index is empty.
    std::uint32_t valid = 0;      // Its valid-page count (the bucket it came from).
  };

  VictimIndex() = default;
  VictimIndex(std::uint64_t blocks, std::uint32_t max_valid)
      : members_(blocks), buckets_(static_cast<std::size_t>(max_valid) + 1, Bitmap(blocks)) {}

  bool contains(std::uint64_t block) const { return members_.Test(block); }
  bool InBucket(std::uint64_t block, std::uint32_t valid) const {
    return valid < buckets_.size() && buckets_[valid].Test(block);
  }
  std::size_t size() const { return members_.set_count(); }
  std::size_t bucket_size(std::uint32_t valid) const { return buckets_[valid].set_count(); }

  void Insert(std::uint64_t block, std::uint32_t valid) {
    members_.Set(block);
    buckets_[valid].Set(block);
  }
  void Remove(std::uint64_t block, std::uint32_t valid) {
    members_.Clear(block);
    buckets_[valid].Clear(block);
  }
  // One page of member `block` was invalidated: moves it from bucket `valid` to `valid - 1`.
  void Decrement(std::uint64_t block, std::uint32_t valid) {
    assert(valid > 0);
    buckets_[valid].Clear(block);
    buckets_[valid - 1].Set(block);
  }

  // The member with the fewest valid pages; ties go to the first block at or after `start`
  // in flat-id order, wrapping past the last block to block 0.
  Pick PickGreedy(std::uint64_t start) const {
    for (std::uint32_t v = 0; v < buckets_.size(); ++v) {
      const Bitmap& bucket = buckets_[v];
      if (bucket.set_count() == 0) {
        continue;
      }
      std::size_t block = bucket.FindFirstSet(start);
      if (block == bucket.size()) {
        block = bucket.FindFirstSet(0);
      }
      return Pick{block, v};
    }
    return Pick{};
  }

 private:
  Bitmap members_ BLOCKHEAD_SHARD_LOCAL(owner);
  std::vector<Bitmap> buckets_ BLOCKHEAD_SHARD_LOCAL(owner);  // Indexed by valid-page count.
};

}  // namespace blockhead

#endif  // BLOCKHEAD_SRC_FTL_VICTIM_INDEX_H_
