#include "pmemkit/introspect.hpp"

#include <algorithm>
#include <sstream>

namespace cxlpmem::pmemkit {

PoolReport inspect(const ObjectPool& pool) {
  PoolReport r;
  const PoolHeader& h = pool.header();
  r.layout = pool.layout();
  r.pool_id = h.pool_id;
  r.pool_size = h.pool_size;
  r.clean_shutdown = (h.flags & kFlagCleanShutdown) != 0;
  r.has_root = h.root_off != 0;
  r.root_size = h.root_size;

  // Lanes.  The live undo tail is transient since layout version 2, so
  // the published bytes are recomputed the way recovery would see them:
  // the checksum-valid current-generation entry prefix.  Both that scan
  // and the header reads are only performed where they cannot race with a
  // concurrent operation: lanes this call checks out itself (a past
  // owner's writes happened-before its release of the lane's busy flag)
  // and the lane the calling thread holds.  A lane another thread holds is
  // in motion end to end — it is counted, never read.  The lanes checked
  // out here stay out until the census below is done: every heap mutation
  // needs a lane, so holding all of them freezes the heap for the walk.
  auto& mutable_pool = const_cast<ObjectPool&>(pool);
  const std::uint32_t own_lane = mutable_pool.own_lane();
  struct Checkout {
    ObjectPool& pool;
    std::vector<std::uint32_t> lanes;
    ~Checkout() {
      for (const std::uint32_t l : lanes) pool.release_lane_raw(l);
    }
  } checkout{mutable_pool, {}};
  const auto lanes = static_cast<std::uint32_t>(
      std::min<std::uint64_t>(h.lane_count, kLaneCount));
  for (std::uint32_t l = 0; l < lanes; ++l) {
    if (l != own_lane) {
      if (!mutable_pool.try_claim_lane(l)) {
        ++r.lanes_in_flight;
        continue;
      }
      checkout.lanes.push_back(l);
    }
    const LaneHeader& lane = mutable_pool.lane_header(l);
    const auto state = static_cast<LaneState>(lane.state);
    if (state != LaneState::Idle || lane.redo.valid != 0) {
      const std::uint64_t undo_bytes =
          state == LaneState::Idle
              ? 0
              : undo_published_bytes(mutable_pool.lane_undo(l),
                                     lane.undo_gen);
      r.busy_lanes.push_back(LaneSummary{l, state, undo_bytes,
                                         lane.redo.valid != 0});
    }
  }

  r.heap = pool.stats().heap;
  if (r.has_root && !pool.heap_->is_live_synced(h.root_off))
    r.problems.push_back("root oid does not point at a live object");
  if (r.heap.allocated_bytes > r.heap.total_bytes)
    r.problems.push_back("heap accounting exceeds capacity");

  // Census + structural checks through the public iteration API.  The
  // walk reads run bitmaps and headers without chunk locks, so it only
  // runs on a frozen heap; with another thread mid-operation it is
  // skipped, not reported as a mismatch.
  r.census_skipped = r.lanes_in_flight > 0;
  if (r.census_skipped) {
    r.consistent = r.problems.empty();
    return r;
  }
  std::map<std::uint32_t, TypeCensusRow> census;
  std::uint64_t iterated = 0;
  std::uint64_t live_bytes = 0;
  try {
    for (ObjId o = pool.first(); !o.is_null(); o = pool.next(o)) {
      ++iterated;
      const std::uint32_t type = pool.type_of(o);
      const std::uint64_t usable = pool.usable_size(o);
      if (usable == 0)
        r.problems.push_back("object at offset " + std::to_string(o.off) +
                             " has zero usable size");
      auto& row = census[type];
      row.type_num = type;
      row.objects += 1;
      row.usable_bytes += usable;
      live_bytes += usable + sizeof(AllocHeader);
    }
  } catch (const std::exception& e) {
    r.problems.push_back(std::string("object walk failed: ") + e.what());
  }
  for (auto& [type, row] : census) r.census.push_back(row);

  // The heap's counters and the walk are independent sources.
  if (iterated != r.heap.object_count)
    r.problems.push_back(
        "census/bitmap mismatch: walked " + std::to_string(iterated) +
        " objects, heap accounts " + std::to_string(r.heap.object_count));
  if (live_bytes != r.heap.live_bytes)
    r.problems.push_back(
        "census/live-bytes mismatch: walked " + std::to_string(live_bytes) +
        " bytes, heap accounts " + std::to_string(r.heap.live_bytes));

  r.consistent = r.problems.empty();
  return r;
}

std::string to_text(const PoolReport& r) {
  std::ostringstream os;
  os << "pool layout   : " << r.layout << "\n"
     << "pool id       : 0x" << std::hex << r.pool_id << std::dec << "\n"
     << "size          : " << r.pool_size << " bytes\n"
     // The flag is cleared while any handle is open, so "dirty" is the
     // normal state for a live inspection; "clean" appears only when
     // inspecting a closed image out-of-band.
     << "shutdown flag : "
     << (r.clean_shutdown ? "clean" : "dirty (normal while open)") << "\n"
     << "root object   : "
     << (r.has_root ? std::to_string(r.root_size) + " bytes" : "(none)")
     << "\n";
  os << "heap          : " << r.heap.object_count << " objects, "
     << r.heap.allocated_bytes << " / " << r.heap.total_bytes
     << " bytes allocated, " << r.heap.free_chunks << "/"
     << r.heap.chunk_count << " chunks free\n";
  if (r.busy_lanes.empty() && r.lanes_in_flight == 0) {
    os << "lanes         : all idle\n";
  } else {
    os << "lanes         : " << r.busy_lanes.size() << " in flight";
    if (r.lanes_in_flight > 0)
      os << " + " << r.lanes_in_flight << " busy on other threads";
    os << "\n";
    for (const LaneSummary& l : r.busy_lanes)
      os << "  lane " << l.index << ": state "
         << static_cast<int>(l.state) << ", undo " << l.undo_bytes
         << " B" << (l.redo_published ? ", redo published" : "") << "\n";
  }
  if (r.census_skipped) {
    os << "object census : census skipped: " << r.lanes_in_flight
       << " lanes in flight\n";
  } else {
    os << "object census :\n";
  }
  for (const TypeCensusRow& row : r.census)
    os << "  type " << row.type_num << ": " << row.objects << " objects, "
       << row.usable_bytes << " usable bytes\n";
  os << "consistency   : " << (r.consistent ? "OK" : "PROBLEMS") << "\n";
  for (const std::string& p : r.problems) os << "  !! " << p << "\n";
  return os.str();
}

}  // namespace cxlpmem::pmemkit
