// Sharder: partitions the city into base-station neighborhoods and cuts
// one HtaInstance-sized problem per shard per epoch.
//
// The paper's LP-HTA already decomposes by cluster (Sec. III.A treats each
// cluster separately); the sharder lifts that one level: stations are
// split into num_shards contiguous blocks ("neighborhoods"), each epoch
// batch is routed to the shard of its issuer's *current* cell, and every
// shard becomes an independent topology + task list with dense local ids
// that the solvers consume unchanged. Shards are then solvable in
// parallel — results are gathered and applied in shard order, which keeps
// the decision log byte-identical at any worker count.
//
// A shard's device roster is only the devices its batch touches: the
// issuers and the same-shard external owners, in ascending universe id,
// then the halo owners. Every other device of the neighborhood would add
// nothing to the problem — a cluster LP has a capacity row only for
// issuers (ordered by local id, which the ascending relabelling keeps),
// the cost model reads only the issuer, the owner and their cells, and
// the greedy rungs index their load by issuer — so the LPs, and every
// decision, are those of a roster of the whole neighborhood, at a cost
// that follows the batch instead of the population.
//
// Shard-boundary data sharing is handled with *halo* entries: a task
// whose external owner sits in another shard gets a zero-capacity copy of
// the owner device (and, when needed, the owner's cell as a zero-capacity
// halo station) so the cost model prices the cross-neighborhood fetch
// exactly as the universe topology would. Halo entries carry no capacity,
// so the owning shard's ledger is never double-spent.
#pragma once

#include <cstddef>
#include <vector>

#include "mec/task.h"
#include "mec/topology.h"
#include "serve/population.h"

namespace mecsched::serve {

struct ShardingOptions {
  std::size_t num_shards = 1;  // clamped to the station count at build
};

// One task of an epoch batch.
struct PendingTask {
  std::size_t id = 0;  // daemon-scoped, dense
  mec::Task task{};    // global ids; deadline_s as issued
};

// Capacity left in the system at an epoch boundary, by universe id.
// Devices are listed sparsely: the sharder reads only the devices the
// batch touches, so only those need pricing.
struct ResidualCapacity {
  std::vector<std::size_t> device_ids;  // ascending, unique
  std::vector<double> device;           // aligned with device_ids
  std::vector<double> station;          // one per universe station

  // Throws ModelError when device `id` is not listed.
  double device_at(std::size_t id) const;
};

// One shard's cut of an epoch: a self-contained HTA problem.
struct ShardProblem {
  std::size_t shard = 0;
  mec::Topology topology;  // local dense ids, residual capacities
  std::vector<mec::Task> tasks;          // user/owner remapped to local ids
  std::vector<std::size_t> task_ids;     // local task -> PendingTask::id
  // Local device -> universe id: the touched core devices in ascending
  // id, then the halo owners in ascending id.
  std::vector<std::size_t> device_global;
  std::size_t halo_devices = 0;          // trailing zero-capacity entries
};

class Sharder {
 public:
  // Throws ModelError for num_shards == 0. More shards than stations is
  // clamped (each shard needs at least one cell).
  Sharder(const mec::Topology& universe, ShardingOptions options);

  std::size_t num_shards() const { return num_shards_; }
  std::size_t shard_of_station(std::size_t station) const;

  // Cuts one epoch: routes each batch task to its issuer's shard, carves
  // per-shard topologies out of the devices the batch touches with the
  // given residual capacities (a down station's is zero), prices every
  // radio at its current link factor, and remaps ids. `residual` must list
  // every issuer and every same-shard external owner. residual_deadline_s
  // aligns with batch and overrides each task's deadline (the slack left
  // after waiting). Shards with no tasks are omitted; the returned
  // problems are in shard order. Every batch issuer — and every external
  // owner — must be up (the daemon triages the rest away before building).
  std::vector<ShardProblem> build(
      const Population& population, const ResidualCapacity& residual,
      const std::vector<PendingTask>& batch,
      const std::vector<double>& residual_deadline_s) const;

 private:
  const mec::Topology* universe_;
  std::size_t num_shards_;
  std::vector<std::size_t> station_shard_;  // station -> shard
};

}  // namespace mecsched::serve
