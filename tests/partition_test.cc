#include "engine/partition.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/sim_time.h"
#include "engine/table.h"

namespace pstore {
namespace {

Row MakeRow(uint32_t bytes, int64_t f0 = 0) {
  Row row;
  row.payload_bytes = bytes;
  row.f0 = f0;
  return row;
}

// ---- Queueing model ------------------------------------------------------

TEST(PartitionQueueTest, IdlePartitionServesImmediately) {
  Partition p;
  const SimTime completion = p.Submit(100, 10);
  EXPECT_EQ(completion, 110);
  EXPECT_EQ(p.busy_until(), 110);
}

TEST(PartitionQueueTest, FifoBackToBack) {
  Partition p;
  EXPECT_EQ(p.Submit(0, 10), 10);
  EXPECT_EQ(p.Submit(0, 10), 20);   // queues behind the first
  EXPECT_EQ(p.Submit(5, 10), 30);   // still queued
  EXPECT_EQ(p.Submit(100, 10), 110);  // idle again
}

TEST(PartitionQueueTest, QueueDelayReflectsBacklog) {
  Partition p;
  p.Submit(0, 50);
  EXPECT_EQ(p.QueueDelay(10), 40);
  EXPECT_EQ(p.QueueDelay(50), 0);
  EXPECT_EQ(p.QueueDelay(60), 0);
}

TEST(PartitionQueueTest, BusyTimeAccumulates) {
  Partition p;
  p.Submit(0, 10);
  p.Submit(0, 15);
  EXPECT_EQ(p.total_busy_time(), 25);
  EXPECT_EQ(p.jobs_executed(), 2);
}

TEST(PartitionQueueTest, LatencyGrowsUnderOverload) {
  // Offered rate 2x the service rate: queueing delay grows linearly —
  // the saturation behaviour behind Fig. 7.
  Partition p;
  SimTime last_latency = 0;
  for (int i = 0; i < 1000; ++i) {
    const SimTime arrival = i * 5;
    const SimTime completion = p.Submit(arrival, 10);
    last_latency = completion - arrival;
  }
  EXPECT_GT(last_latency, 4000);
}

// ---- Storage -----------------------------------------------------------------

TEST(PartitionStorageTest, PutGetErase) {
  Partition p;
  p.Put(7, 0, 42, MakeRow(100, 5));
  const Row* row = p.Get(7, 0, 42);
  ASSERT_NE(row, nullptr);
  EXPECT_EQ(row->f0, 5);
  EXPECT_EQ(p.row_count(), 1);
  EXPECT_EQ(p.data_bytes(), 100);
  EXPECT_TRUE(p.Erase(7, 0, 42));
  EXPECT_EQ(p.Get(7, 0, 42), nullptr);
  EXPECT_EQ(p.row_count(), 0);
  EXPECT_EQ(p.data_bytes(), 0);
}

TEST(PartitionStorageTest, GetMissingReturnsNull) {
  Partition p;
  EXPECT_EQ(p.Get(0, 0, 1), nullptr);
  EXPECT_EQ(p.GetMutable(0, 0, 1), nullptr);
  EXPECT_FALSE(p.Erase(0, 0, 1));
}

TEST(PartitionStorageTest, OverwriteAdjustsBytes) {
  Partition p;
  p.Put(1, 0, 9, MakeRow(100));
  p.Put(1, 0, 9, MakeRow(250));
  EXPECT_EQ(p.row_count(), 1);
  EXPECT_EQ(p.data_bytes(), 250);
}

TEST(PartitionStorageTest, TablesAreIndependentNamespaces) {
  Partition p;
  p.Put(1, 0, 9, MakeRow(10, 1));
  p.Put(1, 1, 9, MakeRow(20, 2));
  EXPECT_EQ(p.Get(1, 0, 9)->f0, 1);
  EXPECT_EQ(p.Get(1, 1, 9)->f0, 2);
  EXPECT_EQ(p.row_count(), 2);
}

TEST(PartitionStorageTest, BucketsAreIndependent) {
  Partition p;
  p.Put(1, 0, 9, MakeRow(10, 1));
  p.Put(2, 0, 9, MakeRow(20, 2));
  EXPECT_EQ(p.Get(1, 0, 9)->f0, 1);
  EXPECT_EQ(p.Get(2, 0, 9)->f0, 2);
  // Key 9 in bucket 3 does not exist.
  EXPECT_EQ(p.Get(3, 0, 9), nullptr);
}

TEST(PartitionStorageTest, GetMutableEditsInPlace) {
  Partition p;
  p.Put(1, 0, 9, MakeRow(10, 1));
  p.GetMutable(1, 0, 9)->f0 = 99;
  EXPECT_EQ(p.Get(1, 0, 9)->f0, 99);
}

TEST(PartitionBucketTest, ExtractAndInsertMovesEverything) {
  Partition source;
  Partition dest;
  source.Put(5, 0, 1, MakeRow(100, 11));
  source.Put(5, 0, 2, MakeRow(200, 22));
  source.Put(5, 1, 3, MakeRow(300, 33));
  source.Put(6, 0, 4, MakeRow(50, 44));  // different bucket, stays

  BucketData moved = source.ExtractBucket(5);
  EXPECT_EQ(moved.rows, 3);
  EXPECT_EQ(moved.bytes, 600);
  EXPECT_EQ(source.row_count(), 1);
  EXPECT_EQ(source.data_bytes(), 50);
  EXPECT_FALSE(source.HasBucket(5));
  EXPECT_TRUE(source.HasBucket(6));

  dest.InsertBucket(5, std::move(moved));
  EXPECT_EQ(dest.row_count(), 3);
  EXPECT_EQ(dest.data_bytes(), 600);
  ASSERT_NE(dest.Get(5, 0, 2), nullptr);
  EXPECT_EQ(dest.Get(5, 0, 2)->f0, 22);
  EXPECT_EQ(dest.Get(5, 1, 3)->f0, 33);
}

TEST(PartitionBucketTest, BucketBytes) {
  Partition p;
  EXPECT_EQ(p.BucketBytes(1), 0);
  p.Put(1, 0, 9, MakeRow(123));
  EXPECT_EQ(p.BucketBytes(1), 123);
}

TEST(PartitionBucketTest, EraseUpdatesBucketAccounting) {
  Partition p;
  p.Put(1, 0, 9, MakeRow(100));
  p.Put(1, 0, 10, MakeRow(100));
  EXPECT_TRUE(p.Erase(1, 0, 9));
  EXPECT_EQ(p.BucketBytes(1), 100);
  BucketData data = p.ExtractBucket(1);
  EXPECT_EQ(data.rows, 1);
  EXPECT_EQ(data.bytes, 100);
}

TEST(PartitionBucketTest, RecordAccessCreatesBucketRecord) {
  // The load balancer tracks buckets that hold no rows yet.
  Partition p;
  EXPECT_FALSE(p.HasBucket(3));
  p.RecordAccess(3);
  EXPECT_TRUE(p.HasBucket(3));
  EXPECT_EQ(p.BucketBytes(3), 0);
  BucketData data = p.ExtractBucket(3);
  EXPECT_EQ(data.rows, 0);
  EXPECT_EQ(data.accesses, 1);
}

TEST(PartitionBucketTest, ErasingLastRowKeepsBucket) {
  Partition p;
  p.Put(2, 0, 9, MakeRow(100));
  p.RecordAccess(2);
  EXPECT_TRUE(p.Erase(2, 0, 9));
  EXPECT_TRUE(p.HasBucket(2));
  EXPECT_EQ(p.TotalAccesses(), 1);
  BucketData data = p.ExtractBucket(2);
  EXPECT_EQ(data.rows, 0);
  EXPECT_EQ(data.bytes, 0);
}

// ---- Row table against a reference map -------------------------------------

using Reference = std::map<std::pair<TableId, uint64_t>, Row>;

bool SameRow(const Row& a, const Row& b) {
  return a.payload_bytes == b.payload_bytes && a.f0 == b.f0 &&
         a.f1 == b.f1 && a.f2 == b.f2 && a.f3 == b.f3;
}

int64_t ReferenceBytes(const Reference& reference) {
  int64_t bytes = 0;
  for (const auto& [id, row] : reference) bytes += row.payload_bytes;
  return bytes;
}

// Keys whose index hash has its low 10 bits all set (`count` of them) or
// all clear (`count` more). Any index of up to 1024 slots homes the first
// group on its last slot and the second on slot 0, so their probe runs
// pile up, wrap past the end of the index and collide with each other.
std::vector<uint64_t> AdversarialKeys(int count) {
  std::vector<uint64_t> keys;
  int last_slot = 0;
  int first_slot = 0;
  for (uint64_t key = 1; last_slot < count || first_slot < count; ++key) {
    const uint64_t low = RowIndexHash(key) & 1023;
    if (low == 1023 && last_slot < count) {
      keys.push_back(key);
      ++last_slot;
    } else if (low == 0 && first_slot < count) {
      keys.push_back(key);
      ++first_slot;
    }
  }
  return keys;
}

TEST(PartitionRowTableTest, MatchesReferenceMap) {
  constexpr BucketId kBuckets[] = {4, 11};
  constexpr TableId kTables[] = {0, 3, 7};
  for (const uint64_t seed : {1, 2, 3}) {
    SCOPED_TRACE(seed);
    Rng rng(seed);
    std::vector<uint64_t> keys = AdversarialKeys(24);
    for (int i = 0; i < 16; ++i) keys.push_back(rng.NextUint64());

    Partition partitions[2];
    int owner[2] = {0, 0};  // partition holding each bucket
    Reference reference[2];
    for (int step = 0; step < 20000; ++step) {
      const int b = static_cast<int>(rng.NextUint64(2));
      const BucketId bucket = kBuckets[b];
      const TableId table = kTables[rng.NextUint64(3)];
      const uint64_t key = keys[rng.NextUint64(keys.size())];
      Partition& p = partitions[owner[b]];
      const uint64_t op = rng.NextUint64(100);
      if (op < 45) {
        Row row = MakeRow(static_cast<uint32_t>(1 + rng.NextUint64(500)),
                          step);
        row.f3 = static_cast<int64_t>(key);
        p.Put(bucket, table, key, row);
        reference[b][{table, key}] = row;
      } else if (op < 65) {
        const Row* row = p.Get(bucket, table, key);
        const auto it = reference[b].find({table, key});
        ASSERT_EQ(row != nullptr, it != reference[b].end()) << "step " << step;
        if (row != nullptr) {
          ASSERT_TRUE(SameRow(*row, it->second));
        }
      } else if (op < 95) {
        ASSERT_EQ(p.Erase(bucket, table, key),
                  reference[b].erase({table, key}) == 1)
            << "step " << step;
      } else if (p.HasBucket(bucket)) {
        // Migrate the bucket to the other partition.
        owner[b] = 1 - owner[b];
        partitions[owner[b]].InsertBucket(bucket, p.ExtractBucket(bucket));
      }

      // Counters: per bucket (via an extract/insert round trip) and per
      // partition.
      for (int c = 0; c < 2; ++c) {
        Partition& holder = partitions[owner[c]];
        if (!holder.HasBucket(kBuckets[c])) continue;
        ASSERT_EQ(holder.BucketBytes(kBuckets[c]),
                  ReferenceBytes(reference[c]));
        BucketData data = holder.ExtractBucket(kBuckets[c]);
        ASSERT_EQ(data.rows, static_cast<int64_t>(reference[c].size()))
            << "step " << step;
        ASSERT_EQ(data.bytes, ReferenceBytes(reference[c]));
        holder.InsertBucket(kBuckets[c], std::move(data));
      }
      for (int q = 0; q < 2; ++q) {
        int64_t rows = 0;
        int64_t bytes = 0;
        for (int c = 0; c < 2; ++c) {
          if (owner[c] != q) continue;
          rows += static_cast<int64_t>(reference[c].size());
          bytes += ReferenceBytes(reference[c]);
        }
        ASSERT_EQ(partitions[q].row_count(), rows) << "step " << step;
        ASSERT_EQ(partitions[q].data_bytes(), bytes) << "step " << step;
      }

      // Full contents, including absent keys, every so often.
      if (step % 97 != 0) continue;
      for (int c = 0; c < 2; ++c) {
        const Partition& holder = partitions[owner[c]];
        for (const TableId t : kTables) {
          for (const uint64_t k : keys) {
            const Row* row = holder.Get(kBuckets[c], t, k);
            const auto it = reference[c].find({t, k});
            ASSERT_EQ(row != nullptr, it != reference[c].end())
                << "step " << step;
            if (row != nullptr) {
              ASSERT_TRUE(SameRow(*row, it->second));
            }
          }
        }
      }
    }
    // The adversarial keys did wrap: more than one live row homes on the
    // last slot of the bucket's index.
    Partition& holder = partitions[owner[0]];
    const BucketData data = holder.ExtractBucket(kBuckets[0]);
    int on_last_slot = 0;
    for (const auto& [id, row] : reference[0]) {
      const uint64_t mask = data.index.size() - 1;
      if ((RowIndexHash(id.second) & mask) == mask) ++on_last_slot;
    }
    EXPECT_GT(on_last_slot, 1);
  }
}

// ---- Hot-spot monitoring determinism -------------------------------------

TEST(PartitionMonitorTest, HottestBucketTiesBreakTowardLowestId) {
  // Three buckets tied at the max: the winner must be the lowest id,
  // not whichever the hash table happens to enumerate first.
  Partition p;
  for (const BucketId id : {42, 7, 19}) {
    p.RecordAccess(id);
    p.RecordAccess(id);
  }
  p.RecordAccess(3);  // below the tie
  int64_t accesses = 0;
  EXPECT_EQ(p.HottestBucket(&accesses), 7);
  EXPECT_EQ(accesses, 2);
  EXPECT_EQ(p.HottestBucketBelow(1, &accesses), 3);
  EXPECT_EQ(accesses, 1);
}

TEST(PartitionMonitorTest, HottestBucketIsInsertionOrderIndependent) {
  // Regression for the nondet-iteration fix: identical access counts
  // recorded in different insertion orders (different hash layouts)
  // must produce identical monitoring results.
  const std::vector<BucketId> forward = {1, 5, 9, 13, 17, 21};
  std::vector<BucketId> reversed(forward.rbegin(), forward.rend());
  Partition a;
  Partition b;
  for (const BucketId id : forward) {
    for (BucketId k = 0; k < 4; ++k) a.RecordAccess(id);
  }
  for (const BucketId id : reversed) {
    for (BucketId k = 0; k < 4; ++k) b.RecordAccess(id);
  }
  int64_t accesses_a = 0;
  int64_t accesses_b = 0;
  EXPECT_EQ(a.HottestBucket(&accesses_a), b.HottestBucket(&accesses_b));
  EXPECT_EQ(a.HottestBucket(nullptr), 1);  // all tied: lowest id wins
  EXPECT_EQ(accesses_a, accesses_b);
  EXPECT_EQ(a.HottestBucketBelow(4, nullptr), b.HottestBucketBelow(4, nullptr));
  EXPECT_EQ(a.TotalAccesses(), b.TotalAccesses());
  a.ResetAccessCounts();
  EXPECT_EQ(a.HottestBucket(nullptr), -1);
  EXPECT_EQ(a.TotalAccesses(), 0);
}

}  // namespace
}  // namespace pstore
