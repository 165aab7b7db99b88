#ifndef MQA_COMMON_TOMBSTONES_H_
#define MQA_COMMON_TOMBSTONES_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"

namespace mqa {

/// Sentinel produced by TombstoneSet::BuildRemap for deleted ids.
inline constexpr uint32_t kTombstonedId = 0xFFFFFFFFu;

/// A dense set of logically deleted ids over a corpus with ids [0, size).
/// Deletion in MQA is two-phase: a tombstone hides the object from results
/// immediately (searches filter it out while the graph stays navigable),
/// and a later compaction pass physically evicts it. Concurrent readers are
/// safe; the owner keeps mutation apart from retrieval.
class TombstoneSet {
 public:
  /// Marks `id` deleted. `size` is the current corpus size (ids must stay
  /// in range); double deletion is an error so callers can surface it.
  Status Mark(uint32_t id, uint64_t size) {
    if (id >= size) {
      return Status::NotFound("cannot delete id " + std::to_string(id) +
                              ": corpus has " + std::to_string(size) +
                              " objects");
    }
    if (id < dead_.size() && dead_[id]) {
      return Status::FailedPrecondition("object " + std::to_string(id) +
                                        " is already deleted");
    }
    if (dead_.size() < size) dead_.resize(size, false);
    dead_[id] = true;
    ++count_;
    return Status::OK();
  }

  bool IsDeleted(uint32_t id) const {
    return id < dead_.size() && dead_[id];
  }

  /// True when at least one id is tombstoned (the searches-need-a-filter
  /// fast check).
  bool any() const { return count_ > 0; }
  uint64_t count() const { return count_; }

  /// Fraction of `size` ids that are tombstoned (0 when the corpus is
  /// empty) — the garbage ratio that triggers compaction.
  double GarbageRatio(uint64_t size) const {
    return size == 0 ? 0.0
                     : static_cast<double>(count_) / static_cast<double>(size);
  }

  /// Builds the compaction remap: old id -> new dense id for live ids,
  /// kTombstonedId for deleted ones. Returns the live count.
  uint32_t BuildRemap(uint64_t size, std::vector<uint32_t>* remap) const {
    remap->assign(size, kTombstonedId);
    uint32_t next = 0;
    for (uint64_t id = 0; id < size; ++id) {
      if (!IsDeleted(static_cast<uint32_t>(id))) {
        (*remap)[id] = next++;
      }
    }
    return next;
  }

  /// Forgets all tombstones (after compaction physically evicted them).
  void Clear() {
    dead_.clear();
    count_ = 0;
  }

 private:
  std::vector<bool> dead_;
  uint64_t count_ = 0;
};

}  // namespace mqa

#endif  // MQA_COMMON_TOMBSTONES_H_
