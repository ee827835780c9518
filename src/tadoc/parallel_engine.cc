#include "tadoc/parallel_engine.h"

#include <algorithm>
#include <string>

#include "common/timer.h"
#include "sequitur/compressor.h"

namespace gtadoc {

namespace {

/// Prepares `g` and appends it as the corpus' next partition.
Status AddPartition(Grammar g, uint32_t file_base, PartitionedCorpus* out) {
  auto prepared = PreparedDocument::Prepare(g);
  if (!prepared.ok()) {
    return Status::Corruption("document " +
                              std::to_string(out->partitions.size()) + ": " +
                              prepared.status().message());
  }
  out->prepared.push_back(std::move(*prepared));
  out->file_base.push_back(file_base);
  out->partitions.push_back(std::move(g));
  return Status::OK();
}

}  // namespace

Status PartitionedCorpus::CheckServable() const {
  if (partitions.empty()) {
    return Status::InvalidArgument("corpus has no documents");
  }
  if (file_base.size() != partitions.size() ||
      prepared.size() != partitions.size()) {
    return Status::InvalidArgument(
        "corpus needs one file_base and one prepared record per partition");
  }
  return Status::OK();
}

Result<PartitionedCorpus> CorpusFromDocuments(std::vector<Grammar> documents) {
  if (documents.empty()) return Status::InvalidArgument("no documents");
  PartitionedCorpus out;
  uint32_t base = 0;
  for (Grammar& g : documents) {
    const uint32_t files = g.num_files();
    GTADOC_RETURN_IF_ERROR(AddPartition(std::move(g), base, &out));
    base += files;
  }
  out.total_files = base;
  return out;
}

Result<PartitionedCorpus> PartitionAndCompress(const Corpus& corpus,
                                               uint32_t num_partitions) {
  if (num_partitions == 0) return Status::InvalidArgument("0 partitions");
  if (corpus.num_files() < num_partitions) {
    return Status::InvalidArgument("fewer files than partitions");
  }
  TokenizedCorpus tokens = Tokenize(corpus);

  // Contiguous split balanced by token count: partition p ends once the
  // running token total crosses p's share, while leaving at least one file
  // for every remaining partition.
  const size_t total = tokens.total_tokens();
  PartitionedCorpus out;
  out.total_files = static_cast<uint32_t>(corpus.num_files());
  size_t file = 0;
  size_t consumed = 0;
  for (uint32_t p = 0; p < num_partitions; ++p) {
    const size_t target = total * (p + 1) / num_partitions;
    const size_t remaining_parts = num_partitions - p;
    const uint32_t file_base = static_cast<uint32_t>(file);
    std::vector<std::vector<uint32_t>> part_files;
    const bool last = p + 1 == num_partitions;
    while (file < tokens.file_tokens.size() &&
           (part_files.empty() || consumed < target || last) &&
           tokens.file_tokens.size() - file >= remaining_parts) {
      consumed += tokens.file_tokens[file].size();
      part_files.push_back(tokens.file_tokens[file]);
      ++file;
    }
    auto g = CompressTokenStreams(part_files,
                                  static_cast<uint32_t>(tokens.words.size()));
    if (!g.ok()) return g.status();
    GTADOC_RETURN_IF_ERROR(AddPartition(std::move(*g), file_base, &out));
  }
  return out;
}

Result<ParallelTadocEngine> ParallelTadocEngine::Create(
    const PartitionedCorpus* corpus, const CpuTadocOptions& options) {
  GTADOC_RETURN_IF_ERROR(corpus->CheckServable());
  return ParallelTadocEngine(corpus, options);
}

Result<ParallelTadocEngine::PartitionOutcome>
ParallelTadocEngine::RunPartitions(Task task) const {
  PartitionOutcome o;
  o.merged.task = task;

  for (size_t p = 0; p < corpus_->partitions.size(); ++p) {
    auto engine = CpuTadocEngine::Create(&corpus_->partitions[p],
                                         &corpus_->prepared[p], options_);
    if (!engine.ok()) return engine.status();
    auto run = engine->Run(task);
    if (!run.ok()) return run.status();

    const uint64_t part_ops = run->timing.traversal_ops;
    o.total_ops += part_ops;
    o.max_partition_ops = std::max(o.max_partition_ops, part_ops);
    o.init_total_ops += run->timing.init_ops;
    o.init_max_ops = std::max(o.init_max_ops, run->timing.init_ops);

    MergeResult(run->result, corpus_->file_base[p], &o.merged, &o.merge_ops);
  }
  FinalizeMergedResult(&o.merged, &o.merge_ops);

  // Shuffle volume estimate: serialized size of the merged result.
  o.result_bytes = ResultBytes(o.merged, options_.ngram_len);
  return o;
}

Result<EngineRun> ParallelTadocEngine::Run(Task task) const {
  Timer wall;
  auto outcome = RunPartitions(task);
  if (!outcome.ok()) return outcome.status();
  const gpu::CpuSpec& cpu = options_.cpu;

  EngineRun run;
  run.result = std::move(outcome->merged);
  const double spread_init =
      static_cast<double>(outcome->init_total_ops) / cpu.socket_ops_per_sec();
  const double crit_init =
      static_cast<double>(outcome->init_max_ops) / cpu.thread_ops_per_sec();
  run.timing.init_seconds = std::max(spread_init, crit_init);
  const double spread =
      static_cast<double>(outcome->total_ops) / cpu.socket_ops_per_sec();
  const double crit = static_cast<double>(outcome->max_partition_ops) /
                      cpu.thread_ops_per_sec();
  run.timing.traversal_seconds =
      std::max(spread, crit) +
      static_cast<double>(outcome->merge_ops) / cpu.thread_ops_per_sec();
  run.timing.init_ops = outcome->init_total_ops;
  run.timing.traversal_ops = outcome->total_ops + outcome->merge_ops;
  run.timing.wall_seconds = wall.ElapsedSeconds();
  return run;
}

Result<EngineRun> ParallelTadocEngine::RunOnCluster(
    Task task, const gpu::ClusterSpec& cluster) const {
  Timer wall;
  auto outcome = RunPartitions(task);
  if (!outcome.ok()) return outcome.status();

  // One partition per node (partition count should equal node count; extra
  // partitions round-robin onto nodes).
  const double node_tput = cluster.node_cpu.socket_ops_per_sec();
  const size_t parts = corpus_->partitions.size();
  const double waves =
      static_cast<double>((parts + cluster.nodes - 1) / cluster.nodes);

  EngineRun run;
  run.result = std::move(outcome->merged);
  const double scale = cluster.workload_scale > 0 ? cluster.workload_scale : 1;
  const double latency = cluster.per_round_latency_s / scale;
  run.timing.init_seconds =
      waves * static_cast<double>(outcome->init_max_ops) / node_tput + latency;
  const double compute =
      waves * static_cast<double>(outcome->max_partition_ops) / node_tput;
  // Shuffle volume is result-sized. Down-scaled corpora keep near-full
  // vocabularies (results shrink far less than compute), so the shuffle term
  // is corrected by the same workload factor to preserve the paper-regime
  // shuffle:compute ratio.
  const double shuffle =
      static_cast<double>(outcome->result_bytes) *
      (static_cast<double>(cluster.nodes - 1) / cluster.nodes) /
      (cluster.network_gbps * 1e9 / 8.0) / scale;
  const double merge = static_cast<double>(outcome->merge_ops) /
                       cluster.node_cpu.thread_ops_per_sec();
  run.timing.traversal_seconds =
      compute + shuffle + merge + latency * cluster.shuffle_rounds;
  run.timing.init_ops = outcome->init_total_ops;
  run.timing.traversal_ops = outcome->total_ops + outcome->merge_ops;
  run.timing.wall_seconds = wall.ElapsedSeconds();
  return run;
}

}  // namespace gtadoc
