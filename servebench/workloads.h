// The serving benchmark's workloads: seeded input generation, the
// uncompressed reference digests, and the timed corpus set-up pipeline
// (token streams -> container -> CorpusServer).
#ifndef SERVEBENCH_WORKLOADS_H_
#define SERVEBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "analytics/server.h"
#include "common/result.h"
#include "ledger.h"
#include "tadoc/parallel_engine.h"

namespace servebench {

/// One generated document: the word-id streams of its files.
struct Document {
  std::vector<std::vector<uint32_t>> files;
  uint64_t tokens = 0;
};

/// Everything a workload serves, derived from (name, seed) alone.
struct Workload {
  std::string name;
  /// True for ingest_first_query: every request compresses and serves one
  /// pool document on a fresh one-document server.
  bool ingest = false;
  uint32_t num_words = 0;  ///< shared dictionary size of every document
  /// The serving corpus (burst workloads) or the ingest document pool.
  std::vector<Document> docs;
  /// The fixed request mix of one burst; ingest requests rotate over it.
  std::vector<gtadoc::CorpusServer::RunRequest> burst;
  gtadoc::CorpusServer::Options options;
  /// Size options.device_slot_budget from a probe of one burst before
  /// serving (servebench.cc: SizeBudget), so runs queue and backfill.
  bool size_budget = false;
  /// Bursts (ingest: requests) of the fixed ledger window every simulated
  /// metric, counter and the fingerprint are computed over.
  size_t window = 0;
  /// Canonical digest of the uncompressed reference answer: indexed by
  /// burst slot for burst workloads, by doc * burst.size() + slot for
  /// ingest.
  std::vector<std::string> reference;
};

/// Generates the named workload's inputs from `seed` (outside any timer).
/// NotFound for an unknown name.
gtadoc::Result<Workload> MakeWorkload(const std::string& name, uint64_t seed);

/// Fills `w->reference` with UncompressedAnalytics::RunSequential answers
/// over the token streams, canonicalized and digested.
void BuildReferences(Workload* w);

/// Host seconds of each set-up stage, summed over the set-up's documents,
/// and the sizes the set-up processed.
struct SetupTimes {
  double compress = 0;   ///< CompressTokenStreams (includes its Bloom pass)
  double serialize = 0;  ///< SerializeGrammar
  double parse = 0;      ///< ParseGrammar
  double corpus = 0;     ///< CorpusFromDocuments
  double create = 0;     ///< CorpusServer::Create
  double total = 0;      ///< token streams -> ready server
  uint64_t tokens = 0;           ///< input tokens
  uint64_t container_bytes = 0;  ///< serialized container bytes
};

/// A ready server over its corpus (the corpus outlives the server).
struct Serving {
  std::unique_ptr<gtadoc::PartitionedCorpus> corpus;
  std::unique_ptr<gtadoc::CorpusServer> server;
};

/// The timed set-up pipeline over `docs`: compress, serialize, parse, wrap
/// as a corpus and create the server with `options`.
gtadoc::Result<Serving> SetUp(const std::vector<const Document*>& docs,
                              uint32_t num_words,
                              const gtadoc::CorpusServer::Options& options,
                              Tracer* tracer, SetupTimes* times);

}  // namespace servebench

#endif  // SERVEBENCH_WORKLOADS_H_
