#include "workloads.h"

#include <algorithm>
#include <map>
#include <utility>

#include "analytics/uncompressed.h"
#include "datagen/datagen.h"
#include "format/grammar.h"
#include "format/serializer.h"
#include "gpu/platform.h"
#include "sequitur/compressor.h"

namespace servebench {

using gtadoc::CorpusServer;
using gtadoc::Result;
using gtadoc::Status;
using gtadoc::Task;

namespace {

// mixed_hybrid: 16 documents x 4 files, ~10k tokens per document.
constexpr uint32_t kMixedDocs = 16;
constexpr uint32_t kMixedFilesPerDoc = 4;
constexpr uint64_t kMixedTokensPerDoc = 10000;
constexpr uint32_t kMixedCpuLanes = 2;

// selective_sharded: a 64-document marker corpus, 8 documents relevant.
constexpr uint32_t kSelectiveDocs = 64;
constexpr uint32_t kSelectiveRelevant = 8;
constexpr uint32_t kSelectiveMarkers = 4;
constexpr uint32_t kSelectiveFilesPerDoc = 2;
constexpr uint64_t kSelectiveTokensPerDoc = 6000;

// ingest_first_query: a pool of documents, 11 so that (document, task)
// pairs cycle through all 110 combinations of the ten-task rotation.
constexpr uint32_t kIngestPool = 11;
constexpr uint32_t kIngestFilesPerDoc = 4;
constexpr uint64_t kIngestTokensPerDoc = 40000;

uint64_t Mix(uint64_t seed, uint64_t stream) {
  uint64_t z = seed * 0x9E3779B97F4A7C15ull + stream + 0x632BE59BD9B4E019ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

Document MakeDocument(std::vector<std::vector<uint32_t>> files) {
  Document doc;
  doc.files = std::move(files);
  for (const auto& f : doc.files) doc.tokens += f.size();
  return doc;
}

/// One document drawn from the DatasetA generator with its own seed. Every
/// document draws word ids from the same [0, vocabulary) space, so the
/// documents of a workload share one dictionary; drawing each document
/// separately keeps corpus-level statistics steady from seed to seed.
Document GenerateDocument(uint32_t files, uint64_t tokens, uint32_t vocabulary,
                          uint64_t seed) {
  gtadoc::DatasetSpec spec = gtadoc::DatasetA();
  spec.num_files = files;
  spec.total_tokens = tokens;
  if (vocabulary > 0) spec.vocabulary = vocabulary;
  spec.seed = seed;
  return MakeDocument(gtadoc::GenerateTokens(spec).file_tokens);
}

uint32_t MaxWordId(const Document& doc) {
  uint32_t max_word = 0;
  for (const auto& f : doc.files) {
    for (uint32_t w : f) max_word = std::max(max_word, w);
  }
  return max_word;
}

/// The two most frequent words of `docs`, and their most frequent adjacent
/// pair: common queries, so root Blooms skip (almost) nothing.
void CommonQueries(const std::vector<Document>& docs,
                   std::vector<uint32_t>* keywords,
                   std::vector<uint32_t>* phrase) {
  std::map<uint32_t, uint64_t> words;
  std::map<std::pair<uint32_t, uint32_t>, uint64_t> pairs;
  for (const Document& doc : docs) {
    for (const auto& file : doc.files) {
      for (size_t i = 0; i < file.size(); ++i) {
        ++words[file[i]];
        if (i + 1 < file.size()) ++pairs[{file[i], file[i + 1]}];
      }
    }
  }
  std::vector<std::pair<uint64_t, uint32_t>> ranked;
  for (const auto& [w, n] : words) ranked.push_back({n, w});
  std::sort(ranked.begin(), ranked.end(),
            [](const auto& a, const auto& b) {
              return a.first != b.first ? a.first > b.first
                                        : a.second < b.second;
            });
  keywords->clear();
  for (size_t i = 0; i < ranked.size() && i < 2; ++i) {
    keywords->push_back(ranked[i].second);
  }
  std::pair<uint32_t, uint32_t> best{0, 0};
  uint64_t best_n = 0;
  for (const auto& [p, n] : pairs) {
    if (n > best_n) {
      best = p;
      best_n = n;
    }
  }
  *phrase = {best.first, best.second};
}

/// One request of each of the ten registered tasks, in task-id order.
std::vector<CorpusServer::RunRequest> TenTaskBurst(
    const std::vector<uint32_t>& keywords,
    const std::vector<uint32_t>& phrase) {
  std::vector<CorpusServer::RunRequest> burst;
  for (int t = 0; t <= static_cast<int>(Task::kPhraseSearch); ++t) {
    CorpusServer::RunRequest request;
    request.task = static_cast<Task>(t);
    if (request.task == Task::kKeywordSearch) request.query_words = keywords;
    if (request.task == Task::kPhraseSearch) request.query_words = phrase;
    burst.push_back(request);
  }
  return burst;
}

CorpusServer::Options BaseOptions() {
  const gtadoc::gpu::Platform platform = gtadoc::gpu::PascalPlatform();
  CorpusServer::Options options;
  options.engine.gpu = platform.gpu;
  options.engine.charge_pcie = true;
  options.cpu = platform.cpu;
  return options;
}

Result<Workload> MixedHybrid(uint64_t seed) {
  Workload w;
  w.name = "mixed_hybrid";
  for (uint32_t d = 0; d < kMixedDocs; ++d) {
    w.docs.push_back(GenerateDocument(kMixedFilesPerDoc, kMixedTokensPerDoc,
                                      0, Mix(seed, 10 + d)));
    w.num_words = std::max(w.num_words, MaxWordId(w.docs.back()) + 1);
  }
  std::vector<uint32_t> keywords;
  std::vector<uint32_t> phrase;
  CommonQueries(w.docs, &keywords, &phrase);
  w.burst = TenTaskBurst(keywords, phrase);
  w.options = BaseOptions();
  w.options.scheduler.cpu_lanes = kMixedCpuLanes;
  w.size_budget = true;
  w.window = 20;
  return w;
}

/// The marker corpus of datagen's BuildMarkerCorpus, with each document
/// drawn from its own seed: marker words are injected only into documents
/// [0, kSelectiveRelevant), and chosen so that every other document's
/// persisted root Bloom provably rejects them.
Result<Workload> SelectiveSharded(uint64_t seed) {
  Workload w;
  w.name = "selective_sharded";
  // Markers come from dictionary space beyond the 48-word base vocabulary.
  constexpr uint32_t kVocabulary = 48;
  constexpr uint32_t kCandidates = 4096;
  w.num_words = kVocabulary + kCandidates;
  for (uint32_t d = 0; d < kSelectiveDocs; ++d) {
    w.docs.push_back(GenerateDocument(kSelectiveFilesPerDoc,
                                      kSelectiveTokensPerDoc, kVocabulary,
                                      Mix(seed, 1000 + d)));
  }
  std::vector<uint64_t> root_blooms;
  for (uint32_t d = kSelectiveRelevant; d < kSelectiveDocs; ++d) {
    auto g = gtadoc::CompressTokenStreams(w.docs[d].files, w.num_words);
    if (!g.ok()) return g.status();
    root_blooms.push_back(g->rule_blooms[0]);
  }
  std::vector<uint32_t> m;
  for (uint32_t c = 0; c < kCandidates && m.size() < kSelectiveMarkers; ++c) {
    const uint64_t mask = gtadoc::WordBloomMask(kVocabulary + c);
    bool rejected_everywhere = true;
    for (uint64_t bloom : root_blooms) {
      rejected_everywhere = rejected_everywhere && (bloom & mask) != mask;
    }
    if (rejected_everywhere) m.push_back(kVocabulary + c);
  }
  if (m.size() < kSelectiveMarkers) {
    return Status::Internal("marker candidate space exhausted");
  }
  // Every marker goes into every file of the relevant documents, 1-3
  // consecutive copies each, in marker order: consecutive markers are
  // adjacent phrases in every relevant file.
  for (uint32_t d = 0; d < kSelectiveRelevant; ++d) {
    Document& doc = w.docs[d];
    for (size_t f = 0; f < doc.files.size(); ++f) {
      for (uint32_t i = 0; i < kSelectiveMarkers; ++i) {
        const uint32_t copies = 1 + static_cast<uint32_t>((d + f + i) % 3);
        doc.files[f].insert(doc.files[f].end(), copies, m[i]);
        doc.tokens += copies;
      }
    }
  }
  for (uint32_t i = 0; i < kSelectiveMarkers; ++i) {
    CorpusServer::RunRequest keyword;
    keyword.task = Task::kKeywordSearch;
    keyword.query_words = {m[i]};
    w.burst.push_back(keyword);
  }
  for (uint32_t i = 0; i + 1 < kSelectiveMarkers; ++i) {
    CorpusServer::RunRequest phrase;
    phrase.task = Task::kPhraseSearch;
    phrase.query_words = {m[i], m[i + 1]};
    w.burst.push_back(phrase);
  }
  CorpusServer::RunRequest pair;
  pair.task = Task::kKeywordSearch;
  pair.query_words = {m[0], m[kSelectiveMarkers - 1]};
  w.burst.push_back(pair);
  CorpusServer::RunRequest words;
  words.task = Task::kWordCount;
  w.burst.push_back(words);

  w.options = BaseOptions();
  // One copy per document: with replication 2, least-loaded replica
  // routing (by reserved slots, not time) swung the simulated makespan and
  // latencies by 15-28% from seed to seed; placement g -> g % 4 keeps them
  // within a few percent.
  w.options.num_devices = 4;
  w.options.replication = 1;
  // One host worker: the benchmark runs on one CPU (ledger.h:
  // PinToOneCpu), where more workers would only time-share it.
  w.options.host_workers = 1;
  w.window = 23;
  return w;
}

Result<Workload> IngestFirstQuery(uint64_t seed) {
  Workload w;
  w.name = "ingest_first_query";
  w.ingest = true;
  for (uint32_t k = 0; k < kIngestPool; ++k) {
    w.docs.push_back(GenerateDocument(kIngestFilesPerDoc, kIngestTokensPerDoc,
                                      0, Mix(seed, 100 + k)));
    w.num_words = std::max(w.num_words, MaxWordId(w.docs.back()) + 1);
  }
  std::vector<uint32_t> keywords;
  std::vector<uint32_t> phrase;
  CommonQueries(w.docs, &keywords, &phrase);
  w.burst = TenTaskBurst(keywords, phrase);
  w.options = BaseOptions();
  w.options.scheduler.cpu_lanes = kMixedCpuLanes;
  w.window = 200;
  return w;
}

std::string ReferenceDigest(const std::vector<std::vector<uint32_t>>& files,
                            const CorpusServer::RunRequest& request,
                            const gtadoc::QuerySpec& defaults) {
  gtadoc::UncompressedAnalytics reference(
      files, gtadoc::ResolveQueryDefaults(request, defaults));
  gtadoc::AnalyticsResult result = reference.RunSequential(request.task);
  gtadoc::Canonicalize(&result);
  return result.Digest();
}

}  // namespace

Result<Workload> MakeWorkload(const std::string& name, uint64_t seed) {
  if (name == "mixed_hybrid") return MixedHybrid(seed);
  if (name == "selective_sharded") return SelectiveSharded(seed);
  if (name == "ingest_first_query") return IngestFirstQuery(seed);
  return Status::NotFound("unknown workload '" + name + "'");
}

void BuildReferences(Workload* w) {
  w->reference.clear();
  if (w->ingest) {
    for (const Document& doc : w->docs) {
      for (const auto& request : w->burst) {
        w->reference.push_back(
            ReferenceDigest(doc.files, request, w->options.engine));
      }
    }
    return;
  }
  std::vector<std::vector<uint32_t>> files;
  for (const Document& doc : w->docs) {
    files.insert(files.end(), doc.files.begin(), doc.files.end());
  }
  for (const auto& request : w->burst) {
    w->reference.push_back(ReferenceDigest(files, request, w->options.engine));
  }
}

Result<Serving> SetUp(const std::vector<const Document*>& docs,
                      uint32_t num_words,
                      const CorpusServer::Options& options, Tracer* tracer,
                      SetupTimes* times) {
  Tracer::Scope setup_span(tracer, "setup");
  const double start = HostNow();
  Serving serving;
  std::vector<gtadoc::Grammar> grammars;
  for (const Document* doc : docs) {
    times->tokens += doc->tokens;
    auto compressed = Timed(
        tracer, "sequitur.CompressTokenStreams", &times->compress,
        [&] { return gtadoc::CompressTokenStreams(doc->files, num_words); });
    if (!compressed.ok()) return compressed.status();
    const std::string container =
        Timed(tracer, "format.SerializeGrammar", &times->serialize,
              [&] { return gtadoc::SerializeGrammar(*compressed); });
    times->container_bytes += container.size();
    auto parsed = Timed(tracer, "format.ParseGrammar", &times->parse,
                        [&] { return gtadoc::ParseGrammar(container); });
    if (!parsed.ok()) return parsed.status();
    grammars.push_back(std::move(*parsed));
  }
  auto corpus =
      Timed(tracer, "tadoc.CorpusFromDocuments", &times->corpus,
            [&] { return gtadoc::CorpusFromDocuments(std::move(grammars)); });
  if (!corpus.ok()) return corpus.status();
  serving.corpus =
      std::make_unique<gtadoc::PartitionedCorpus>(std::move(*corpus));
  auto server = Timed(tracer, "server.CorpusServer::Create", &times->create,
                      [&] {
                        return CorpusServer::Create(serving.corpus.get(),
                                                    options);
                      });
  if (!server.ok()) return server.status();
  serving.server = std::move(*server);
  times->total += HostNow() - start;
  return serving;
}

}  // namespace servebench
