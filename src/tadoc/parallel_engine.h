#ifndef GTADOC_TADOC_PARALLEL_ENGINE_H_
#define GTADOC_TADOC_PARALLEL_ENGINE_H_

#include <vector>

#include "analytics/engine.h"
#include "common/result.h"
#include "format/grammar.h"
#include "sequitur/tokenizer.h"
#include "tadoc/cpu_engine.h"

namespace gtadoc {

/// \brief A corpus split into independently-compressed partitions — the unit
/// of [4]'s coarse-grained parallelism ("it only divides the original file
/// into several sub-files, processes different files separately, and then
/// follows a merge process").
///
/// Partition p owns global files [file_base[p], file_base[p] + nfiles_p).
/// prepared[p] is partition p's PreparedDocument record — its validated DAG
/// view and plan-key fingerprint, built once here and shared by every
/// probe, engine and device that serves the document. The constructors
/// below fill every field; the grammars must not change afterwards.
struct PartitionedCorpus {
  std::vector<Grammar> partitions;
  std::vector<PreparedDocument> prepared;
  std::vector<uint32_t> file_base;
  uint32_t total_files = 0;

  /// InvalidArgument unless the corpus is non-empty and every per-document
  /// vector has one entry per partition (the engines' precondition).
  Status CheckServable() const;
};

/// Splits files round-robin-contiguously into `num_partitions` groups and
/// compresses and prepares each independently. Partitions are balanced by
/// byte size.
Result<PartitionedCorpus> PartitionAndCompress(const Corpus& corpus,
                                               uint32_t num_partitions);

/// Wraps already-compressed documents as a partitioned corpus (file_base =
/// running file totals), preparing each one. A malformed grammar is a
/// Corruption here, at load time, naming the document. The documents must
/// share one word-id space (CompressTokenStreams against a common
/// dictionary); this is the input both the batch GPU engine and this CPU
/// baseline consume, so their simulated times stay comparable.
Result<PartitionedCorpus> CorpusFromDocuments(std::vector<Grammar> documents);

/// \brief Coarse-grained parallel CPU TADOC ([4]) and its distributed
/// extension (the paper's 10-node Spark baseline for dataset C).
///
/// Every partition is processed by an independent sequential engine; results
/// are merged at the end. Simulated time:
///   - multicore mode: charged work spread over the socket, with the heaviest
///     partition as the critical path, plus the sequential merge;
///   - cluster mode: heaviest node (socket width per node) plus a shuffle
///     term (result bytes over the network) and per-round scheduling latency.
class ParallelTadocEngine {
 public:
  static Result<ParallelTadocEngine> Create(const PartitionedCorpus* corpus,
                                            const CpuTadocOptions& options);

  /// Multicore coarse-grained run.
  Result<EngineRun> Run(Task task) const;

  /// Distributed run under `cluster`'s cost model.
  Result<EngineRun> RunOnCluster(Task task,
                                 const gpu::ClusterSpec& cluster) const;

 private:
  ParallelTadocEngine(const PartitionedCorpus* corpus,
                      const CpuTadocOptions& options)
      : corpus_(corpus), options_(options) {}

  struct PartitionOutcome {
    AnalyticsResult merged;       ///< merged result in global file ids
    RunTiming merged_timing;      ///< filled by the caller from the meters
    uint64_t total_ops = 0;       ///< sum over partitions (traversal)
    uint64_t max_partition_ops = 0;
    uint64_t merge_ops = 0;
    uint64_t init_total_ops = 0;
    uint64_t init_max_ops = 0;
    uint64_t result_bytes = 0;  ///< merged result size (shuffle volume)
  };
  Result<PartitionOutcome> RunPartitions(Task task) const;

  const PartitionedCorpus* corpus_;
  CpuTadocOptions options_;
};

}  // namespace gtadoc

#endif  // GTADOC_TADOC_PARALLEL_ENGINE_H_
