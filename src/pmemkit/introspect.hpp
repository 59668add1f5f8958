// pmemkit/introspect.hpp — offline pool inspection (the `pmempool info` /
// `pmempool check` equivalent).
//
// Reads a pool through the normal mapping and reports its header identity,
// lane states (was a transaction in flight?), heap occupancy and per-type
// object census — plus a structural consistency check that walks the heap
// with the same invariants rebuild() enforces and cross-checks the object
// census against the heap's occupancy counters.  On a live pool the census
// runs only while no other thread holds a lane (see census_skipped).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "pmemkit/pool.hpp"

namespace cxlpmem::pmemkit {

struct LaneSummary {
  std::uint32_t index = 0;
  LaneState state = LaneState::Idle;
  /// Published undo-log bytes (the checksum-valid entry prefix recovery
  /// would act on).  0 means a redo-only entry (Idle lane with a published
  /// redo log); lanes other threads are actively transacting on never
  /// appear here at all — see PoolReport::lanes_in_flight.
  std::uint64_t undo_bytes = 0;
  bool redo_published = false;
};

struct TypeCensusRow {
  std::uint32_t type_num = 0;
  std::uint64_t objects = 0;
  std::uint64_t usable_bytes = 0;
};

struct PoolReport {
  // Identity.
  std::string layout;
  std::uint64_t pool_id = 0;
  std::uint64_t pool_size = 0;
  bool clean_shutdown = false;
  bool has_root = false;
  std::uint64_t root_size = 0;

  // Activity.
  /// Non-idle lanes, among those inspect() may scan race-free: lanes in
  /// the free pool and the calling thread's own transaction lane.  Lanes
  /// other threads are actively transacting on are never read (their
  /// headers and logs are in motion) — they are counted instead.
  std::vector<LaneSummary> busy_lanes;
  /// Lanes checked out by other threads' in-flight operations at the time
  /// of inspection (not scanned, not in busy_lanes).  Always 0 when
  /// inspecting a pool no other thread is using — the offline
  /// `pmempool check` style use this report is built for.
  std::uint64_t lanes_in_flight = 0;
  HeapStats heap;
  std::vector<TypeCensusRow> census;    ///< by ascending type_num
  /// True when lanes_in_flight > 0: the census walk (and its cross-check
  /// against `heap`) would race those lanes' operations, so it did not
  /// run and `census` is empty.
  bool census_skipped = false;

  // Consistency.
  bool consistent = false;
  std::vector<std::string> problems;
};

/// Inspects an open pool (non-destructive).
[[nodiscard]] PoolReport inspect(const ObjectPool& pool);

/// Renders a report the way `pmempool info` would.
[[nodiscard]] std::string to_text(const PoolReport& report);

}  // namespace cxlpmem::pmemkit
