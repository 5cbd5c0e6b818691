#include "engine/txn_executor.h"

#include <algorithm>
#include <string>

#include "common/logging.h"
#include "common/sim_time.h"
#include "common/status.h"
#include "engine/cluster.h"
#include "engine/metrics.h"
#include "engine/partition.h"
#include "engine/transaction.h"
#include "obs/tracer.h"

namespace pstore {

TxnExecutor::TxnExecutor(Cluster* cluster, MetricsCollector* metrics,
                         const ExecutorOptions& options)
    : cluster_(cluster),
      metrics_(metrics),
      options_(options),
      rng_(options.seed) {
  PSTORE_CHECK(cluster_ != nullptr);
  PSTORE_CHECK(options_.mean_service_seconds > 0.0);
}

Status TxnExecutor::RegisterProcedure(ProcedureId id, ProcedureHandler handler,
                                      double service_scale) {
  if (id >= kMaxProcedures) {
    return Status::OutOfRange("procedure id " + std::to_string(id) +
                              " exceeds kMaxProcedures");
  }
  if (handler == nullptr) {
    return Status::InvalidArgument("null procedure handler");
  }
  if (service_scale <= 0.0) {
    return Status::InvalidArgument("service_scale must be positive");
  }
  if (handlers_[id] != nullptr) {
    return Status::AlreadyExists("procedure " + std::to_string(id) +
                                 " already registered");
  }
  handlers_[id] = handler;
  service_scale_[id] = service_scale;
  return Status::OK();
}

Status TxnExecutor::RegisterMultiProcedure(ProcedureId id,
                                           MultiProcedureHandler handler,
                                           double service_scale) {
  if (id >= kMaxProcedures) {
    return Status::OutOfRange("procedure id " + std::to_string(id) +
                              " exceeds kMaxProcedures");
  }
  if (handler == nullptr) {
    return Status::InvalidArgument("null procedure handler");
  }
  if (service_scale <= 0.0) {
    return Status::InvalidArgument("service_scale must be positive");
  }
  if (handlers_[id] != nullptr || multi_handlers_[id] != nullptr) {
    return Status::AlreadyExists("procedure " + std::to_string(id) +
                                 " already registered");
  }
  multi_handlers_[id] = handler;
  service_scale_[id] = service_scale;
  return Status::OK();
}

void TxnExecutor::CountOutcome(ProcedureId id, const TxnResult& result) {
  if (result.status == TxnStatus::kCommitted) {
    ++committed_count_;
    ++procedure_stats_[id].committed;
  } else {
    ++aborted_count_;
    ++procedure_stats_[id].aborted;
  }
}

TxnResult TxnExecutor::Submit(const TxnRequest& request, SimTime now) {
  ++submitted_count_;
  const ProcedureId proc = request.procedure;
  if (proc >= kMaxProcedures ||
      (handlers_[proc] == nullptr && multi_handlers_[proc] == nullptr)) {
    ++aborted_count_;
    return TxnResult{TxnStatus::kUnknownProcedure, 0};
  }
  // Single-key procedures route their primary key only and ignore any
  // extra keys on the request.
  const MultiProcedureHandler multi = multi_handlers_[proc];
  int num_keys = 1;
  if (multi != nullptr) {
    if (request.num_extra_keys < 0 ||
        request.num_extra_keys > kMaxTxnKeys - 1) {
      ++aborted_count_;
      return TxnResult{TxnStatus::kAborted, 0};
    }
    num_keys = 1 + request.num_extra_keys;
  }

  // Route every key. Each distinct partition the keys land on is one
  // participant, kept in first-touch order.
  TxnContext contexts[kMaxTxnKeys];
  Partition* participants[kMaxTxnKeys];
  int num_participants = 0;
  for (int i = 0; i < num_keys; ++i) {
    const uint64_t key = i == 0 ? request.key : request.extra_keys[i - 1];
    const BucketId bucket = cluster_->BucketForKey(key);
    const int partition_id = cluster_->PartitionOfBucket(bucket);
    if (!cluster_->IsNodeUp(cluster_->NodeOfPartition(partition_id))) {
      // A needed node is crashed: fail fast without executing or
      // charging service time (the client sees an error, not a stall).
      // Accesses already recorded for earlier keys stay recorded.
      ++unavailable_count_;
      if (metrics_ != nullptr) metrics_->RecordUnavailable(now);
      const TxnResult result{TxnStatus::kUnavailable, 0};
      CountOutcome(proc, result);
      return result;
    }
    Partition* partition = &cluster_->partition(partition_id);
    TxnContext& context = contexts[i];
    context.partition = partition;
    context.bucket = bucket;
    context.key = key;
    context.arg = request.arg;
    partition->RecordAccess(bucket);
    int seen = 0;
    while (seen < num_participants && participants[seen] != partition) {
      ++seen;
    }
    if (seen == num_participants) participants[num_participants++] = partition;
  }
  const bool distributed = num_participants > 1;
  if (distributed) ++distributed_count_;

  const TxnResult result = multi != nullptr ? multi(contexts, num_keys)
                                            : handlers_[proc](contexts[0]);

  // Every participant executes one fragment; a distributed transaction
  // additionally pays 2PC overhead on each participant and completes
  // only after all participants have, plus the coordination delay.
  const double base_mean = options_.mean_service_seconds * service_scale_[proc];
  const double mean =
      distributed ? base_mean * (1.0 + options_.two_pc_overhead) : base_mean;
  SimTime completion = 0;
  for (int i = 0; i < num_participants; ++i) {
    const SimTime service = FromSeconds(rng_.NextExponential(mean));
    completion = std::max(completion, participants[i]->Submit(now, service));
  }
  if (distributed) {
    completion += FromSeconds(options_.coordination_delay_seconds);
  }
  if (metrics_ != nullptr) metrics_->RecordTxn(now, completion);
  CountOutcome(proc, result);
  PSTORE_TRACE(tracer_, ::pstore::obs::TraceCategory::kVerbose, now,
               "engine.txn",
               .With("proc", proc)
                   .With("committed", result.status == TxnStatus::kCommitted)
                   .With("distributed", distributed)
                   .With("latency_us", completion - now));
  return result;
}

}  // namespace pstore
