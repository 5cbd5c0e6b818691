#ifndef PSTORE_ENGINE_PARTITION_H_
#define PSTORE_ENGINE_PARTITION_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/sim_time.h"
#include "engine/table.h"

namespace pstore {

// Identifier of a routing bucket. Keys hash to buckets; buckets map to
// partitions. Buckets are the unit of data migration, mirroring how
// fine-grained elasticity systems group tuples into movable blocks.
using BucketId = int32_t;

// The rows of one bucket plus byte/row accounting, so migration can size
// chunks without scanning rows, and an access counter for hot-spot
// detection (E-Store-style detailed monitoring). Migration moves a whole
// BucketData at once.
//
// Rows of every table live in one dense array; `index` is a power-of-two
// open-addressing table (linear probing) over it. Each index word packs
// the row's TableId into its top 3 bits and its position in `entries`
// plus one into the rest; 0 marks an empty slot. Keeping the TableId in
// the index rather than in the entry keeps an entry at 48 bytes. Erase
// backward-shifts the probe run and moves the last entry into the hole,
// so there are no tombstones. Rows are only ever probed by key, never
// iterated, so the storage order cannot leak into simulation results.
struct BucketData {
  struct Entry {
    uint64_t key = 0;
    Row row;
  };
  std::vector<Entry> entries;
  std::vector<uint32_t> index;
  int64_t rows = 0;
  int64_t bytes = 0;
  int64_t accesses = 0;
};

// Hash of a row key in BucketData::index: the key's home slot is
// RowIndexHash(key) & (index.size() - 1). It mixes the key itself
// (murmur3's 64-bit finalizer) rather than reusing the routing hash,
// which every key of a bucket shares modulo num_buckets. The TableId is
// left out so an entry's slot can be found from its key alone; rows of
// different tables under one key just share a probe run.
inline uint64_t RowIndexHash(uint64_t key) {
  key ^= key >> 33;
  key *= 0xff51afd7ed558ccdULL;
  key ^= key >> 33;
  key *= 0xc4ceb9fe1a85ec53ULL;
  key ^= key >> 33;
  return key;
}

// One H-Store-style data partition: single-threaded storage plus an
// execution queue. The queue is modeled analytically as a FIFO server —
// a job arriving at time t with service time s starts at
// max(t, busy_until) and completes s later — which makes submission O(1)
// and still produces the queueing-delay behaviour (latency blow-up at
// saturation, migration interference) the paper measures.
class Partition {
 public:
  Partition() = default;
  Partition(const Partition&) = delete;
  Partition& operator=(const Partition&) = delete;
  Partition(Partition&&) = default;
  Partition& operator=(Partition&&) = default;

  // --- Execution queue -------------------------------------------------

  // Submits a job at `now` with the given service time; returns its
  // completion time. Latency = completion - now.
  SimTime Submit(SimTime now, SimTime service_time);

  // Time at which the partition becomes idle.
  SimTime busy_until() const { return busy_until_; }

  // Queueing delay a job submitted at `now` would currently experience.
  SimTime QueueDelay(SimTime now) const {
    return busy_until_ > now ? busy_until_ - now : 0;
  }

  // Total service time executed (busy time), for utilization accounting.
  SimTime total_busy_time() const { return total_busy_time_; }
  int64_t jobs_executed() const { return jobs_executed_; }

  // --- Storage ----------------------------------------------------------
  //
  // Storage is flat (see BucketData), so rows move in memory: a Row*
  // from Get/GetMutable stays valid only until the next Put, Erase or
  // ExtractBucket on this partition. Callers may hold several such
  // pointers at once only while nothing mutates the partition between
  // taking them and using them.

  // Inserts or overwrites a row in the given bucket.
  void Put(BucketId bucket, TableId table, uint64_t key, const Row& row);

  // Returns the row or nullptr.
  const Row* Get(BucketId bucket, TableId table, uint64_t key) const;
  Row* GetMutable(BucketId bucket, TableId table, uint64_t key);

  // Removes a row; returns true if it existed.
  bool Erase(BucketId bucket, TableId table, uint64_t key);

  // Bucket-granularity access used by migration: detaches the whole
  // bucket from this partition and returns it. The bucket must exist.
  BucketData ExtractBucket(BucketId bucket);

  // Attaches a bucket (e.g., one extracted from another partition).
  // The bucket must not already exist here.
  void InsertBucket(BucketId bucket, BucketData data);

  bool HasBucket(BucketId bucket) const {
    return FindBucket(bucket) != nullptr;
  }
  // Bytes held by one bucket (0 if the bucket holds no data here).
  int64_t BucketBytes(BucketId bucket) const;

  // --- Hot-spot monitoring ---------------------------------------------

  // Counts one transaction against the bucket (creates an empty bucket
  // record if needed so even data-less buckets can be tracked).
  void RecordAccess(BucketId bucket) { ++MutableBucket(bucket).accesses; }

  // The bucket with the most recorded accesses, or -1 when nothing was
  // recorded. `accesses` (optional) receives its count.
  BucketId HottestBucket(int64_t* accesses = nullptr) const;

  // The bucket with the most recorded accesses that is still <= `cap`,
  // or -1 when none qualifies. Used by the load balancer to pick moves
  // that are guaranteed to shrink the hot/cold gap.
  BucketId HottestBucketBelow(int64_t cap, int64_t* accesses = nullptr) const;

  // Sum of access counts across buckets.
  int64_t TotalAccesses() const;

  // Zeroes all access counters (start of a new monitoring window).
  void ResetAccessCounts();

  int64_t row_count() const { return row_count_; }
  int64_t data_bytes() const { return data_bytes_; }

 private:
  const BucketData* FindBucket(BucketId bucket) const {
    return static_cast<size_t>(bucket) < buckets_.size()
               ? buckets_[static_cast<size_t>(bucket)].get()
               : nullptr;
  }
  BucketData* FindBucket(BucketId bucket) {
    return static_cast<size_t>(bucket) < buckets_.size()
               ? buckets_[static_cast<size_t>(bucket)].get()
               : nullptr;
  }
  // The bucket's record, created empty if absent.
  BucketData& MutableBucket(BucketId bucket);

  SimTime busy_until_ = 0;
  SimTime total_busy_time_ = 0;
  int64_t jobs_executed_ = 0;

  // Indexed by BucketId (ids are dense: hash % num_buckets); null where
  // this partition holds no record of the bucket. Scans run in id order.
  std::vector<std::unique_ptr<BucketData>> buckets_;
  int64_t row_count_ = 0;
  int64_t data_bytes_ = 0;
};

}  // namespace pstore

#endif  // PSTORE_ENGINE_PARTITION_H_
