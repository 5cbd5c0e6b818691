#ifndef PSTORE_ENGINE_TRANSACTION_H_
#define PSTORE_ENGINE_TRANSACTION_H_

#include <cstdint>

#include "engine/partition.h"

namespace pstore {

// Identifier of a registered stored procedure.
using ProcedureId = uint16_t;

inline constexpr int kMaxProcedures = 64;

// Maximum number of partitioning keys a single transaction may touch.
inline constexpr int kMaxTxnKeys = 4;

// A transaction request: a stored procedure invocation routed by its
// partitioning key(s) (paper §2: "transactions are routed to specific
// partitions based on the partitioning keys they access"). The B2W
// workload accesses one key per transaction; multi-key requests become
// distributed transactions when their keys land on different partitions
// (used to probe the §4.2 "few distributed transactions" assumption).
struct TxnRequest {
  ProcedureId procedure = 0;
  uint64_t key = 0;  // keys[0], kept for the common single-key case
  // Procedure-specific argument (e.g., a quantity or line id).
  uint32_t arg = 0;
  // Additional keys for multi-key procedures (0 for single-key).
  int num_extra_keys = 0;
  uint64_t extra_keys[kMaxTxnKeys - 1] = {};
};

enum class TxnStatus : uint8_t {
  kCommitted = 0,
  // Aborted by procedure logic (e.g., reserving out-of-stock items).
  kAborted,
  // The procedure id was not registered.
  kUnknownProcedure,
  // A partition the transaction needs lives on a crashed node; the
  // request fails fast without executing (fault-injection drills).
  kUnavailable,
};

// Outcome of executing a transaction's logic (the timing outcome —
// completion time and latency — is tracked by the metrics collector).
struct TxnResult {
  TxnStatus status = TxnStatus::kCommitted;
  // Procedure-specific output value (e.g., a quantity read).
  int64_t value = 0;
};

// Execution context handed to stored procedures: the partition currently
// owning the key's bucket plus the routing information. TxnExecutor
// fills every field of each key's context before the handler runs; the
// fields have no default initializers so that its per-transaction array
// of kMaxTxnKeys contexts is not zeroed first.
struct TxnContext {
  Partition* partition;
  BucketId bucket;
  uint64_t key;
  uint32_t arg;
};

// Stored procedures are plain functions for a lean dispatch path.
using ProcedureHandler = TxnResult (*)(const TxnContext&);

// Multi-key stored procedures receive one context per key, in request
// order. If all keys land on the same partition the transaction executes
// as a cheap single-partition one; otherwise it is distributed and pays
// two-phase-commit overhead on every participant.
using MultiProcedureHandler = TxnResult (*)(const TxnContext* contexts,
                                            int num_keys);

}  // namespace pstore

#endif  // PSTORE_ENGINE_TRANSACTION_H_
