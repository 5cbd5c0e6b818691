#include "engine/partition.h"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/sim_time.h"
#include "engine/table.h"

namespace pstore {

SimTime Partition::Submit(SimTime now, SimTime service_time) {
  PSTORE_CHECK(service_time >= 0);
  const SimTime start = std::max(now, busy_until_);
  busy_until_ = start + service_time;
  total_busy_time_ += service_time;
  ++jobs_executed_;
  return busy_until_;
}

namespace {

// Index word layout: TableId in the top 3 bits, entry position + 1 below.
constexpr int kTableShift = 29;
constexpr uint32_t kSlotMask = (uint32_t{1} << kTableShift) - 1;
static_assert(kMaxTables <= 8, "TableId must fit in 3 index bits");

uint32_t Pack(TableId table, size_t position) {
  return (static_cast<uint32_t>(table) << kTableShift) |
         static_cast<uint32_t>(position + 1);
}
size_t PositionOf(uint32_t word) { return (word & kSlotMask) - 1; }
TableId TableOf(uint32_t word) {
  return static_cast<TableId>(word >> kTableShift);
}

size_t HomeSlot(uint64_t key, size_t mask) {
  return static_cast<size_t>(RowIndexHash(key)) & mask;
}

// Index slot holding (table, key), or the empty slot that ends its probe
// run. The index is never full, so the probe terminates.
size_t Probe(const BucketData& data, TableId table, uint64_t key) {
  const size_t mask = data.index.size() - 1;
  size_t slot = HomeSlot(key, mask);
  for (uint32_t word = data.index[slot]; word != 0;
       word = data.index[slot]) {
    if (TableOf(word) == table && data.entries[PositionOf(word)].key == key) {
      return slot;
    }
    slot = (slot + 1) & mask;
  }
  return slot;
}

// The index word of (table, key), or 0 when the bucket has no such row.
uint32_t FindWord(const BucketData& data, TableId table, uint64_t key) {
  return data.index.empty() ? 0 : data.index[Probe(data, table, key)];
}

// Rebuilds the index at `capacity` slots (a power of two).
void Rehash(BucketData* data, size_t capacity) {
  const std::vector<uint32_t> old = std::move(data->index);
  data->index.assign(capacity, 0);
  const size_t mask = capacity - 1;
  for (const uint32_t word : old) {
    if (word == 0) continue;
    size_t slot = HomeSlot(data->entries[PositionOf(word)].key, mask);
    while (data->index[slot] != 0) slot = (slot + 1) & mask;
    data->index[slot] = word;
  }
}

// Empties index slot `hole` by backward-shift deletion: every later entry
// of the probe run whose home does not lie cyclically in (hole, slot]
// moves back into the hole, which keeps all probe runs gap-free.
void RemoveFromIndex(BucketData* data, size_t hole) {
  const size_t mask = data->index.size() - 1;
  for (size_t slot = (hole + 1) & mask; data->index[slot] != 0;
       slot = (slot + 1) & mask) {
    const uint32_t word = data->index[slot];
    const size_t home = HomeSlot(data->entries[PositionOf(word)].key, mask);
    if (((slot - home) & mask) >= ((slot - hole) & mask)) {
      data->index[hole] = word;
      hole = slot;
    }
  }
  data->index[hole] = 0;
}

}  // namespace

BucketData& Partition::MutableBucket(BucketId bucket) {
  PSTORE_CHECK(bucket >= 0);
  const size_t id = static_cast<size_t>(bucket);
  if (id >= buckets_.size()) buckets_.resize(id + 1);
  if (buckets_[id] == nullptr) buckets_[id] = std::make_unique<BucketData>();
  return *buckets_[id];
}

void Partition::Put(BucketId bucket, TableId table, uint64_t key,
                    const Row& row) {
  PSTORE_CHECK(table < kMaxTables);
  BucketData& data = MutableBucket(bucket);
  if (const uint32_t word = FindWord(data, table, key); word != 0) {
    Row& existing = data.entries[PositionOf(word)].row;
    const int64_t delta = static_cast<int64_t>(row.payload_bytes) -
                          static_cast<int64_t>(existing.payload_bytes);
    data.bytes += delta;
    data_bytes_ += delta;
    existing = row;
    return;
  }
  // Keep the index at most three-quarters full.
  if (4 * (data.entries.size() + 1) > 3 * data.index.size()) {
    Rehash(&data, std::max<size_t>(8, 2 * data.index.size()));
  }
  PSTORE_CHECK(data.entries.size() < kSlotMask);
  data.index[Probe(data, table, key)] = Pack(table, data.entries.size());
  data.entries.push_back(BucketData::Entry{key, row});
  ++data.rows;
  ++row_count_;
  data.bytes += row.payload_bytes;
  data_bytes_ += row.payload_bytes;
}

const Row* Partition::Get(BucketId bucket, TableId table,
                          uint64_t key) const {
  PSTORE_CHECK(table < kMaxTables);
  const BucketData* data = FindBucket(bucket);
  if (data == nullptr) return nullptr;
  const uint32_t word = FindWord(*data, table, key);
  return word == 0 ? nullptr : &data->entries[PositionOf(word)].row;
}

Row* Partition::GetMutable(BucketId bucket, TableId table, uint64_t key) {
  PSTORE_CHECK(table < kMaxTables);
  BucketData* data = FindBucket(bucket);
  if (data == nullptr) return nullptr;
  const uint32_t word = FindWord(*data, table, key);
  return word == 0 ? nullptr : &data->entries[PositionOf(word)].row;
}

bool Partition::Erase(BucketId bucket, TableId table, uint64_t key) {
  PSTORE_CHECK(table < kMaxTables);
  BucketData* data = FindBucket(bucket);
  if (data == nullptr || data->index.empty()) return false;
  const size_t slot = Probe(*data, table, key);
  const uint32_t word = data->index[slot];
  if (word == 0) return false;
  const size_t position = PositionOf(word);
  --data->rows;
  --row_count_;
  data->bytes -= data->entries[position].row.payload_bytes;
  data_bytes_ -= data->entries[position].row.payload_bytes;
  RemoveFromIndex(data, slot);
  // Fill the hole in `entries` with the last entry and repoint its index
  // word, which lies in the probe run from the entry's home slot.
  const size_t last = data->entries.size() - 1;
  if (position != last) {
    const size_t mask = data->index.size() - 1;
    size_t moved = HomeSlot(data->entries[last].key, mask);
    while (PositionOf(data->index[moved]) != last) moved = (moved + 1) & mask;
    data->index[moved] = Pack(TableOf(data->index[moved]), position);
    data->entries[position] = data->entries[last];
  }
  data->entries.pop_back();
  return true;
}

BucketData Partition::ExtractBucket(BucketId bucket) {
  BucketData* found = FindBucket(bucket);
  PSTORE_CHECK_MSG(found != nullptr, "bucket " << bucket << " not here");
  BucketData data = std::move(*found);
  buckets_[static_cast<size_t>(bucket)].reset();
  row_count_ -= data.rows;
  data_bytes_ -= data.bytes;
  PSTORE_CHECK(row_count_ >= 0 && data_bytes_ >= 0);
  return data;
}

void Partition::InsertBucket(BucketId bucket, BucketData data) {
  PSTORE_CHECK_MSG(!HasBucket(bucket),
                   "bucket " << bucket << " already present");
  row_count_ += data.rows;
  data_bytes_ += data.bytes;
  MutableBucket(bucket) = std::move(data);
}

int64_t Partition::BucketBytes(BucketId bucket) const {
  const BucketData* data = FindBucket(bucket);
  return data == nullptr ? 0 : data->bytes;
}

BucketId Partition::HottestBucket(int64_t* accesses) const {
  BucketId hottest = -1;
  int64_t best = 0;
  // Ascending-id scan with a strict `>`: ties go to the lowest id.
  for (size_t id = 0; id < buckets_.size(); ++id) {
    if (buckets_[id] != nullptr && buckets_[id]->accesses > best) {
      best = buckets_[id]->accesses;
      hottest = static_cast<BucketId>(id);
    }
  }
  if (accesses != nullptr) *accesses = best;
  return hottest;
}

BucketId Partition::HottestBucketBelow(int64_t cap,
                                       int64_t* accesses) const {
  BucketId best_bucket = -1;
  int64_t best = 0;
  // Same tie-break as HottestBucket: lowest id wins.
  for (size_t id = 0; id < buckets_.size(); ++id) {
    if (buckets_[id] == nullptr) continue;
    const int64_t count = buckets_[id]->accesses;
    if (count > best && count <= cap) {
      best = count;
      best_bucket = static_cast<BucketId>(id);
    }
  }
  if (accesses != nullptr) *accesses = best;
  return best_bucket;
}

int64_t Partition::TotalAccesses() const {
  int64_t total = 0;
  for (const auto& data : buckets_) {
    if (data != nullptr) total += data->accesses;
  }
  return total;
}

void Partition::ResetAccessCounts() {
  for (auto& data : buckets_) {
    if (data != nullptr) data->accesses = 0;
  }
}

}  // namespace pstore
