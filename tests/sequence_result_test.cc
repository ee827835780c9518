#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>
#include <tuple>
#include <utility>
#include <vector>

#include "analytics/batch.h"
#include "analytics/results.h"
#include "analytics/task_kernel.h"
#include "analytics/uncompressed.h"
#include "gpu/ngram_table.h"
#include "gpu/platform.h"
#include "gtadoc/engine.h"
#include "sequitur/compressor.h"
#include "tadoc/parallel_engine.h"

namespace gtadoc {
namespace {

using Files = std::vector<std::vector<uint32_t>>;
using Posting = std::pair<uint32_t, uint64_t>;

/// Largest vocabulary of the random corpora.
constexpr uint32_t kMaxVocab = 6;

/// Random word-id files. std::mt19937's raw output is fully specified by
/// the standard, so a seed names the same corpus on every platform.
Files RandomFiles(std::mt19937* rng, uint32_t num_files, uint32_t min_len,
                  uint32_t max_len, uint32_t vocab) {
  Files files(num_files);
  for (auto& file : files) {
    const uint32_t len = min_len + (*rng)() % (max_len - min_len + 1);
    for (uint32_t i = 0; i < len; ++i) file.push_back((*rng)() % vocab);
  }
  return files;
}

/// The three sequence results over `files`, as ordered maps built here
/// independently of every engine.
struct Reference {
  std::map<std::pair<uint32_t, std::vector<uint32_t>>, uint64_t> counts;
  std::map<std::vector<uint32_t>, std::vector<Posting>> ranked;
  PhraseSearchResult phrase;
};

Reference BuildReference(const Files& files, uint32_t l,
                         const std::vector<uint32_t>& phrase) {
  Reference ref;
  std::map<std::vector<uint32_t>, std::map<uint32_t, uint64_t>> per_gram;
  for (uint32_t f = 0; f < files.size(); ++f) {
    uint64_t hits = 0;
    for (size_t i = 0; i + l <= files[f].size(); ++i) {
      std::vector<uint32_t> gram(files[f].begin() + i,
                                 files[f].begin() + i + l);
      if (gram == phrase) ++hits;
      ++per_gram[gram][f];
      ++ref.counts[{f, std::move(gram)}];
    }
    if (hits > 0) ref.phrase.emplace_back(f, hits);
  }
  for (const auto& [gram, by_file] : per_gram) {
    std::vector<Posting> list(by_file.begin(), by_file.end());
    std::sort(list.begin(), list.end(), [](const Posting& a, const Posting& b) {
      return a.second != b.second ? a.second > b.second : a.first < b.first;
    });
    ref.ranked[gram] = std::move(list);
  }
  return ref;
}

std::vector<uint32_t> Gram(const uint32_t* words, uint32_t l) {
  return std::vector<uint32_t>(words, words + l);
}

/// Checks order, contents and lookups of a flat sequenceCount result.
void ExpectSequenceCount(const SequenceCountResult& rows, const Reference& ref,
                         uint32_t l) {
  std::vector<std::tuple<uint32_t, std::vector<uint32_t>, uint64_t>> got, want;
  for (size_t i = 0; i < rows.size(); ++i) {
    got.emplace_back(rows.files[i], Gram(rows.gram(i), l), rows.counts[i]);
  }
  for (const auto& [key, c] : ref.counts) {
    want.emplace_back(key.first, key.second, c);
    // The key and its neighbours (last word replaced by every id up to past
    // the vocabulary) look up exactly what the reference holds.
    std::vector<uint32_t> probe = key.second;
    for (uint32_t w = 0; w <= kMaxVocab; ++w) {
      probe.back() = w;
      const auto it = ref.counts.find({key.first, probe});
      EXPECT_EQ(rows.Count(key.first, probe),
                it == ref.counts.end() ? 0 : it->second);
    }
  }
  EXPECT_EQ(got, want);
  EXPECT_EQ(rows.size(), ref.counts.size());
  EXPECT_EQ(rows.empty(), ref.counts.empty());
  // Absent keys: a file past the end and a gram of the wrong length.
  if (!ref.counts.empty()) {
    const auto& [file, gram] = ref.counts.begin()->first;
    EXPECT_EQ(rows.Count(1000, gram), 0u);
    EXPECT_EQ(rows.Count(file, Gram(gram.data(), l - 1)), 0u);
  }
}

/// Checks order, contents and lookups of a flat rankedInvertedIndex result.
void ExpectRanked(const RankedInvertedIndexResult& index, const Reference& ref,
                  uint32_t l) {
  std::vector<std::pair<std::vector<uint32_t>, std::vector<Posting>>> got;
  for (size_t i = 0; i < index.size(); ++i) {
    const auto postings = index.postings_of(i);
    got.emplace_back(Gram(index.gram(i), l),
                     std::vector<Posting>(postings.begin(), postings.end()));
  }
  const std::vector<std::pair<std::vector<uint32_t>, std::vector<Posting>>>
      want(ref.ranked.begin(), ref.ranked.end());
  EXPECT_EQ(got, want);
  for (const auto& [gram, list] : ref.ranked) {
    std::vector<uint32_t> probe = gram;
    for (uint32_t w = 0; w <= kMaxVocab; ++w) {
      probe.back() = w;
      const auto it = ref.ranked.find(probe);
      const auto postings = index.Postings(probe);
      EXPECT_EQ(std::vector<Posting>(postings.begin(), postings.end()),
                it == ref.ranked.end() ? std::vector<Posting>() : it->second);
    }
  }
  EXPECT_EQ(index.size(), ref.ranked.size());
  EXPECT_EQ(index.empty(), ref.ranked.empty());
  EXPECT_TRUE(index.Postings(std::vector<uint32_t>(l + 1, 0)).empty());
}

/// Checks one run's result of `task` against the reference.
void ExpectMatches(const AnalyticsResult& r, const Reference& ref,
                   uint32_t l) {
  switch (r.task) {
    case Task::kSequenceCount:
      ExpectSequenceCount(r.sequence_count, ref, l);
      break;
    case Task::kRankedInvertedIndex:
      ExpectRanked(r.ranked_inverted_index, ref, l);
      break;
    case Task::kPhraseSearch:
      EXPECT_EQ(r.phrase_search, ref.phrase);
      break;
    default:
      FAIL() << "not a sequence task: " << TaskName(r.task);
  }
}

GTadocEngine::Options EngineOptions(uint32_t l, std::vector<uint32_t> phrase) {
  GTadocEngine::Options opt;
  opt.gpu = gpu::PascalPlatform().gpu;
  opt.host_workers = 1;
  opt.ngram_len = l;
  opt.query_words = std::move(phrase);
  return opt;
}

/// Compresses each document against one shared vocabulary.
PartitionedCorpus MakeCorpus(const std::vector<Files>& docs, uint32_t vocab) {
  std::vector<Grammar> grammars;
  for (const Files& doc : docs) {
    auto g = CompressTokenStreams(doc, vocab);
    EXPECT_TRUE(g.ok()) << g.status().ToString();
    grammars.push_back(std::move(*g));
  }
  auto corpus = CorpusFromDocuments(std::move(grammars));
  EXPECT_TRUE(corpus.ok()) << corpus.status().ToString();
  return std::move(*corpus);
}

const Task kSequenceTasks[] = {Task::kSequenceCount,
                               Task::kRankedInvertedIndex,
                               Task::kPhraseSearch};

// The flat sorted rows against std::map references on ~100 seeded random
// multi-document corpora: every engine, both batch backends at 1 and 4
// shards, and Digest() agreement with the uncompressed reference loop.
TEST(SequenceResultTest, FlatMatchesMapReference) {
  for (uint32_t seed = 0; seed < 100; ++seed) {
    std::mt19937 rng(seed);
    const uint32_t l = 2 + seed % 3;
    const uint32_t vocab = 2 + rng() % (kMaxVocab - 1);
    const uint32_t num_docs = 1 + rng() % 3;
    std::vector<Files> docs;
    Files all;
    for (uint32_t d = 0; d < num_docs; ++d) {
      docs.push_back(RandomFiles(&rng, 1 + rng() % 3, 1, 24, vocab));
      all.insert(all.end(), docs.back().begin(), docs.back().end());
    }
    // A phrase taken from the corpus when the first file is long enough.
    std::vector<uint32_t> phrase(l, 0);
    if (all[0].size() >= l) phrase.assign(all[0].begin(), all[0].begin() + l);
    SCOPED_TRACE(testing::Message() << "seed=" << seed << " l=" << l
                                    << " docs=" << num_docs);

    const Reference ref = BuildReference(all, l, phrase);
    const PartitionedCorpus corpus = MakeCorpus(docs, vocab);
    const GTadocEngine::Options opt = EngineOptions(l, phrase);
    UncompressedAnalytics uncompressed(all, l, phrase);

    for (Task task : kSequenceTasks) {
      SCOPED_TRACE(TaskName(task));
      const AnalyticsResult truth = uncompressed.RunSequential(task);
      ExpectMatches(truth, ref, l);

      gpu::Device device(gpu::PascalPlatform().gpu, 1);
      auto unc_dev = uncompressed.RunOnDevice(task, &device);
      ASSERT_TRUE(unc_dev.ok()) << unc_dev.status().ToString();
      ExpectMatches(unc_dev->result, ref, l);
      EXPECT_EQ(unc_dev->result.Digest(), truth.Digest());

      for (PlanBackend backend : {kGpuPlanBackend, kCpuPlanBackend}) {
        for (size_t shards : {1, 4}) {
          SCOPED_TRACE(testing::Message()
                       << (backend == kGpuPlanBackend ? "gpu" : "cpu")
                       << " shards=" << shards);
          BatchEngine::Options bopt;
          bopt.engine = opt;
          bopt.backend = backend;
          bopt.cpu = gpu::PascalPlatform().cpu;
          bopt.host_workers = shards;
          auto batch = BatchEngine::Create(&corpus, bopt);
          ASSERT_TRUE(batch.ok()) << batch.status().ToString();
          auto run = (*batch)->Run(task);
          ASSERT_TRUE(run.ok()) << run.status().ToString();
          ExpectMatches(run->merged, ref, l);
          EXPECT_TRUE(run->merged.SameAs(truth));
          EXPECT_EQ(run->merged.Digest(), truth.Digest());
        }
      }
    }
  }
}

/// The fixed small corpus of the pinned digests and charges: two documents
/// of two files each over a four-word vocabulary.
std::vector<Files> GoldenDocs() {
  std::mt19937 rng0(7), rng1(8);
  return {RandomFiles(&rng0, 2, 16, 32, 4), RandomFiles(&rng1, 2, 16, 32, 4)};
}

// Digests pinned from the ordered-map result types the flat rows replaced:
// the reference loop, each document's GPU run and the batch merge all
// reproduce them bit for bit.
TEST(SequenceResultTest, GoldenDigestsMatchMapEra) {
  const std::vector<Files> docs = GoldenDocs();
  Files all;
  for (const Files& doc : docs) all.insert(all.end(), doc.begin(), doc.end());
  const PartitionedCorpus corpus = MakeCorpus(docs, 4);
  const std::vector<uint32_t> phrase = {1, 2};
  const GTadocEngine::Options opt = EngineOptions(3, phrase);

  struct Golden {
    Task task;
    const char* merged;
    const char* doc0;
    const char* doc1;
  };
  const Golden golden[] = {
      {Task::kSequenceCount,
       "sequenceCount{entries=77, digest=b7800f759fba9e50}",
       "sequenceCount{entries=37, digest=c985d3402f33323a}",
       "sequenceCount{entries=40, digest=a379fbc2aa51307d}"},
      {Task::kRankedInvertedIndex,
       "rankedInvertedIndex{entries=53, digest=21e01fdbde884fb9}",
       "rankedInvertedIndex{entries=30, digest=280c5cf3d09de5a9}",
       "rankedInvertedIndex{entries=32, digest=da9abda6094af0fc}"},
      {Task::kPhraseSearch, "phraseSearch{entries=4, digest=f362fa378b4fcb16}",
       "phraseSearch{entries=2, digest=b1c43356348b2bb8}",
       "phraseSearch{entries=2, digest=7c2eef4a26830310}"},
  };
  for (const Golden& g : golden) {
    SCOPED_TRACE(TaskName(g.task));
    UncompressedAnalytics uncompressed(all, 3, phrase);
    EXPECT_EQ(uncompressed.RunSequential(g.task).Digest(), g.merged);

    BatchEngine::Options bopt;
    bopt.engine = opt;
    auto batch = BatchEngine::Create(&corpus, bopt);
    ASSERT_TRUE(batch.ok());
    auto run = (*batch)->Run(g.task);
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    EXPECT_EQ(run->merged.Digest(), g.merged);
    ASSERT_EQ(run->documents.size(), 2u);
    EXPECT_EQ(run->documents[0].result.Digest(), g.doc0);
    EXPECT_EQ(run->documents[1].result.Digest(), g.doc1);
  }
}

/// AssemblyOps that records what an assembly charges.
class RecordingAssembly : public AssemblyOps {
 public:
  void ChargeUpdates(uint64_t n) override { updates += n; }
  void ChargeSort(uint64_t n) override { sorts += n; }
  void ChargeGroupSort(uint64_t g, uint64_t e) override {
    groups += g;
    entries += e;
  }
  void SortPairs(std::vector<std::pair<uint64_t, uint64_t>>* kv) override {
    std::sort(kv->begin(), kv->end());
  }
  void SelectTopK(uint32_t k,
                  std::vector<std::vector<Posting>>* lists) override {
    (void)k;
    (void)lists;
  }

  uint64_t updates = 0;
  uint64_t sorts = 0;
  uint64_t groups = 0;
  uint64_t entries = 0;
};

// The simulated charges of a fixed two-document sequence merge, pinned from
// the ordered-map result types: assembly updates and group sorts (groups =
// distinct grams), merge_ops and ResultBytes.
TEST(SequenceResultTest, SimulatedChargesMatchMapEra) {
  const std::vector<Files> docs = GoldenDocs();
  const PartitionedCorpus corpus = MakeCorpus(docs, 4);
  struct Expected {
    Task task;
    uint64_t updates[2];
    uint64_t groups[2];
    uint64_t doc_bytes[2];
    uint64_t merge_ops;
    uint64_t merged_bytes;
  };
  const Expected expected[] = {
      {Task::kSequenceCount, {37, 40}, {0, 0}, {888, 960}, 77, 1848},
      {Task::kRankedInvertedIndex, {74, 80}, {30, 32}, {804, 864}, 231, 1560},
  };
  const uint64_t drained_rows[] = {37, 40};
  for (const Expected& e : expected) {
    SCOPED_TRACE(TaskName(e.task));
    const TaskKernel* kernel = TaskRegistry::Find(e.task);
    ASSERT_NE(kernel, nullptr);
    TaskInput input;
    input.ngram_len = 3;
    AnalyticsResult merged;
    merged.task = e.task;
    uint64_t merge_ops = 0;
    for (uint32_t d = 0; d < 2; ++d) {
      // Drain the document's windows from a device n-gram table.
      gpu::Device device(gpu::PascalPlatform().gpu, 1);
      gpu::GpuNgramTable table(
          &device, {.num_entries = 64, .max_nodes = 256, .ngram_len = 3});
      gpu::ThreadCtx ctx(0, 1);
      for (uint32_t f = 0; f < docs[d].size(); ++f) {
        for (size_t i = 0; i + 3 <= docs[d][f].size(); ++i) {
          table.AddOrInsert(ctx, f, &docs[d][f][i], 1);
        }
      }
      NgramRows rows = table.Drain();
      EXPECT_EQ(rows.size(), drained_rows[d]);

      RecordingAssembly ops;
      AnalyticsResult doc;
      doc.task = e.task;
      kernel->AssembleSequence(input, std::move(rows), &ops, &doc);
      EXPECT_EQ(ops.updates, e.updates[d]);
      EXPECT_EQ(ops.sorts, 0u);
      EXPECT_EQ(ops.groups, e.groups[d]);
      EXPECT_EQ(ops.entries, e.groups[d] == 0 ? 0 : drained_rows[d]);
      EXPECT_EQ(ResultBytes(doc, 3), e.doc_bytes[d]);
      MergeResult(doc, corpus.file_base[d], &merged, &merge_ops);
    }
    FinalizeMergedResult(&merged, &merge_ops);
    EXPECT_EQ(merge_ops, e.merge_ops);
    EXPECT_EQ(ResultBytes(merged, 3), e.merged_bytes);
  }
}

// FinalizeMergedResult restores the sorted layout whatever order documents
// were merged in: corpus order, reversed, and rotated all finalize to the
// same result, digest and merge_ops.
TEST(SequenceResultTest, ShuffledMergeOrderFinalizesIdentically) {
  std::mt19937 rng(42);
  std::vector<Files> docs;
  for (int d = 0; d < 5; ++d) docs.push_back(RandomFiles(&rng, 2, 8, 30, 4));
  const PartitionedCorpus corpus = MakeCorpus(docs, 4);
  const std::vector<uint32_t> phrase = {0, 1, 2};
  const GTadocEngine::Options opt = EngineOptions(3, phrase);

  std::vector<std::vector<size_t>> orders = {{0, 1, 2, 3, 4}};
  orders.push_back({4, 3, 2, 1, 0});
  orders.push_back({2, 3, 4, 0, 1});
  orders.push_back({1, 0, 3, 2, 4});

  for (Task task : kSequenceTasks) {
    SCOPED_TRACE(TaskName(task));
    std::vector<AnalyticsResult> per_doc;
    for (size_t d = 0; d < docs.size(); ++d) {
      auto engine = GTadocEngine::Create(&corpus.partitions[d],
                                         &corpus.prepared[d], opt);
      ASSERT_TRUE(engine.ok());
      auto run = (*engine)->Run(task);
      ASSERT_TRUE(run.ok()) << run.status().ToString();
      per_doc.push_back(std::move(run->result));
    }
    AnalyticsResult baseline;
    uint64_t baseline_ops = 0;
    for (size_t o = 0; o < orders.size(); ++o) {
      AnalyticsResult acc;
      acc.task = task;
      uint64_t merge_ops = 0;
      for (size_t d : orders[o]) {
        MergeResult(per_doc[d], corpus.file_base[d], &acc, &merge_ops);
      }
      FinalizeMergedResult(&acc, &merge_ops);
      if (o == 0) {
        baseline = acc;
        baseline_ops = merge_ops;
        EXPECT_GT(merge_ops, 0u);
        continue;
      }
      SCOPED_TRACE(testing::Message() << "order " << o);
      EXPECT_TRUE(acc.SameAs(baseline));
      EXPECT_EQ(acc.Digest(), baseline.Digest());
      EXPECT_EQ(merge_ops, baseline_ops);
    }
  }
}

// ------------------------------------------------- radix-ordered rows ---

/// Word and file ids at the radix digit edges (11-bit digits) and the
/// largest id, and counts at the 64-bit extremes.
constexpr uint32_t kEdgeIds[] = {0,          1,           (1u << 11) - 1,
                                 1u << 11,   (1u << 11) + 1, (1u << 22) - 1,
                                 1u << 22,   UINT32_MAX - 1, UINT32_MAX};
constexpr uint64_t kEdgeCounts[] = {0, 1, 2, uint64_t{1} << 33,
                                    UINT64_MAX - 1, UINT64_MAX};

/// An id drawn from the edges half the time, uniformly otherwise.
uint32_t EdgeId(std::mt19937* rng) {
  if ((*rng)() % 2 == 0) return kEdgeIds[(*rng)() % std::size(kEdgeIds)];
  return static_cast<uint32_t>((*rng)());
}

uint64_t EdgeCount(std::mt19937* rng) {
  if ((*rng)() % 2 == 0) return kEdgeCounts[(*rng)() % std::size(kEdgeCounts)];
  return (static_cast<uint64_t>((*rng)()) << 32) | (*rng)();
}

/// `n` random rows whose ids come from `id_of`, with repeated keys.
template <typename IdOf>
NgramRows RandomRows(std::mt19937* rng, uint32_t l, size_t n, IdOf id_of) {
  NgramRows rows;
  rows.ngram_len = l;
  std::vector<uint32_t> gram(l);
  for (size_t i = 0; i < n; ++i) {
    if (i > 0 && (*rng)() % 4 == 0) {
      // A repeated (file, gram) key with a fresh count.
      const size_t j = (*rng)() % i;
      rows.Append(rows.files[j], rows.gram(j), EdgeCount(rng));
      continue;
    }
    for (uint32_t& w : gram) w = id_of();
    rows.Append(id_of(), gram.data(), EdgeCount(rng));
  }
  return rows;
}

/// Rows in the order of `order`.
NgramRows Permuted(const NgramRows& rows, const std::vector<size_t>& order) {
  NgramRows out;
  out.ngram_len = rows.ngram_len;
  for (size_t i : order) {
    out.Append(rows.files[i], rows.gram(i), rows.counts[i]);
  }
  return out;
}

/// The comparator-sorted (file, gram) order the radix order replaced: an
/// index std::sort, then a fold of equal keys.
NgramRows ReferenceSortByFileGram(const NgramRows& rows) {
  auto compare = [&rows](size_t a, size_t b) {
    if (rows.files[a] != rows.files[b]) {
      return rows.files[a] < rows.files[b] ? -1 : 1;
    }
    return CompareGrams(rows.gram(a), rows.gram(b), rows.ngram_len);
  };
  std::vector<size_t> order(rows.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [&](size_t a, size_t b) { return compare(a, b) < 0; });
  NgramRows out;
  out.ngram_len = rows.ngram_len;
  for (size_t k = 0; k < order.size(); ++k) {
    if (k > 0 && compare(order[k - 1], order[k]) == 0) {
      out.counts.back() += rows.counts[order[k]];
    } else {
      out.Append(rows.files[order[k]], rows.gram(order[k]),
                 rows.counts[order[k]]);
    }
  }
  return out;
}

/// The comparator-sorted rankedInvertedIndex grouping the radix order
/// replaced: rows sorted by (gram asc, count desc, file asc), one group per
/// gram.
RankedInvertedIndexResult ReferenceGroupByGram(const NgramRows& rows) {
  const uint32_t l = rows.ngram_len;
  std::vector<size_t> order(rows.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    const int c = CompareGrams(rows.gram(a), rows.gram(b), l);
    if (c != 0) return c < 0;
    if (rows.counts[a] != rows.counts[b]) {
      return rows.counts[a] > rows.counts[b];
    }
    return rows.files[a] < rows.files[b];
  });
  RankedInvertedIndexResult r;
  r.ngram_len = l;
  for (size_t k = 0; k < order.size(); ++k) {
    const uint32_t* gram = rows.gram(order[k]);
    if (k == 0 || CompareGrams(rows.gram(order[k - 1]), gram, l) != 0) {
      if (k > 0) r.offsets.push_back(r.postings.size());
      r.grams.insert(r.grams.end(), gram, gram + l);
    }
    r.postings.emplace_back(rows.files[order[k]], rows.counts[order[k]]);
  }
  if (!order.empty()) r.offsets.push_back(r.postings.size());
  return r;
}

RankedInvertedIndexResult RankedAssembly(const NgramRows& rows) {
  const TaskKernel* kernel = TaskRegistry::Find(Task::kRankedInvertedIndex);
  EXPECT_NE(kernel, nullptr);
  TaskInput input;
  input.ngram_len = rows.ngram_len;
  RecordingAssembly ops;
  AnalyticsResult out;
  out.task = Task::kRankedInvertedIndex;
  kernel->AssembleSequence(input, rows, &ops, &out);
  return out.ranked_inverted_index;
}

// StableSortByKey orders a permutation exactly as std::stable_sort by the
// same keys: equal keys keep their order, every digit edge sorts.
TEST(RadixOrderTest, StableSortByKeyMatchesStableSort) {
  std::mt19937 rng(11);
  for (size_t n : {0, 1, 2, 5000}) {
    for (int shape = 0; shape < 3; ++shape) {
      SCOPED_TRACE(testing::Message() << "n=" << n << " shape=" << shape);
      std::vector<uint64_t> keys(n);
      for (uint64_t& k : keys) {
        k = shape == 0 ? EdgeCount(&rng)
                       : shape == 1 ? EdgeId(&rng) : uint64_t{1} << 40;
      }
      std::vector<uint32_t> start(n);
      for (uint32_t i = 0; i < n; ++i) start[i] = i;
      std::shuffle(start.begin(), start.end(), rng);
      std::vector<uint32_t> want = start;
      std::stable_sort(want.begin(), want.end(), [&](uint32_t a, uint32_t b) {
        return keys[a] < keys[b];
      });
      std::vector<uint32_t> got = start;
      StableSortByKey(keys, &got);
      EXPECT_EQ(got, want);
    }
  }
}

// SortByFileGram and rankedInvertedIndex assembly against the comparator
// sorts they replaced, for l = 2..6 and n in {0, 1, 2, 5000}, on random,
// all-equal, presorted and reversed rows with ids and counts at the digit
// edges.
TEST(RadixOrderTest, RowOrdersMatchComparatorSorts) {
  std::mt19937 rng(5);
  for (uint32_t l = 2; l <= 6; ++l) {
    for (size_t n : {0, 1, 2, 5000}) {
      const NgramRows random =
          RandomRows(&rng, l, n, [&rng] { return EdgeId(&rng); });
      NgramRows equal;
      equal.ngram_len = l;
      const std::vector<uint32_t> same(l, (1u << 11) + 1);
      for (size_t i = 0; i < n; ++i) equal.Append(UINT32_MAX, same.data(), 3);
      // Presorted and reversed by the reference order, counts kept.
      std::vector<size_t> by_key(n);
      for (size_t i = 0; i < n; ++i) by_key[i] = i;
      std::sort(by_key.begin(), by_key.end(), [&](size_t a, size_t b) {
        if (random.files[a] != random.files[b]) {
          return random.files[a] < random.files[b];
        }
        return CompareGrams(random.gram(a), random.gram(b), l) < 0;
      });
      const NgramRows presorted = Permuted(random, by_key);
      std::reverse(by_key.begin(), by_key.end());
      const NgramRows reversed = Permuted(random, by_key);

      const std::pair<const char*, const NgramRows*> cases[] = {
          {"random", &random},
          {"all-equal", &equal},
          {"presorted", &presorted},
          {"reversed", &reversed}};
      for (const auto& [name, rows] : cases) {
        SCOPED_TRACE(testing::Message() << name << " l=" << l << " n=" << n);
        NgramRows sorted = *rows;
        sorted.SortByFileGram();
        EXPECT_TRUE(sorted == ReferenceSortByFileGram(*rows));
        EXPECT_TRUE(RankedAssembly(*rows) == ReferenceGroupByGram(*rows));
      }
    }
  }
}

// The rankedInvertedIndex run merge equals one comparator grouping of every
// posting, whatever the merge order: corpus order, shuffled, and documents
// whose file ranges overlap, with one gram present in every document.
TEST(RadixOrderTest, RankedRunMergeMatchesGroupingOfAllPostings) {
  std::mt19937 rng(23);
  constexpr uint32_t kDocs = 16;
  constexpr uint32_t kFiles = 4;
  for (uint32_t l = 2; l <= 6; ++l) {
    std::vector<uint32_t> shared(l);
    for (uint32_t& w : shared) w = EdgeId(&rng);
    std::vector<NgramRows> doc_rows;
    std::vector<AnalyticsResult> docs;
    for (uint32_t d = 0; d < kDocs; ++d) {
      // A small vocabulary of edge ids so grams repeat across documents.
      NgramRows rows = RandomRows(&rng, l, 1 + rng() % 300, [&rng] {
        return kEdgeIds[rng() % 3] + rng() % 2;
      });
      for (uint32_t& f : rows.files) f %= kFiles;
      rows.Append(rng() % kFiles, shared.data(), EdgeCount(&rng));
      AnalyticsResult doc;
      doc.task = Task::kRankedInvertedIndex;
      doc.ranked_inverted_index = RankedAssembly(rows);
      doc_rows.push_back(std::move(rows));
      docs.push_back(std::move(doc));
    }

    std::vector<uint32_t> corpus_order(kDocs);
    for (uint32_t d = 0; d < kDocs; ++d) corpus_order[d] = d;
    std::vector<uint32_t> shuffled = corpus_order;
    std::shuffle(shuffled.begin(), shuffled.end(), rng);
    struct Merge {
      const char* name;
      const std::vector<uint32_t>* order;
      uint32_t base_step;  ///< file_base of document d is d * base_step
    };
    const Merge merges[] = {{"corpus order", &corpus_order, kFiles},
                            {"shuffled", &shuffled, kFiles},
                            {"overlapping", &shuffled, kFiles / 2},
                            {"same range", &corpus_order, 0}};
    for (const Merge& m : merges) {
      SCOPED_TRACE(testing::Message() << m.name << " l=" << l);
      AnalyticsResult acc;
      acc.task = Task::kRankedInvertedIndex;
      uint64_t merge_ops = 0;
      NgramRows all;
      all.ngram_len = l;
      for (uint32_t d : *m.order) {
        const uint32_t base = d * m.base_step;
        MergeResult(docs[d], base, &acc, &merge_ops);
        const NgramRows& rows = doc_rows[d];
        for (size_t i = 0; i < rows.size(); ++i) {
          all.Append(rows.files[i] + base, rows.gram(i), rows.counts[i]);
        }
      }
      FinalizeMergedResult(&acc, &merge_ops);
      const RankedInvertedIndexResult want = ReferenceGroupByGram(all);
      EXPECT_TRUE(acc.ranked_inverted_index == want);
      EXPECT_EQ(acc.ranked_inverted_index.Postings(shared).size(),
                want.Postings(shared).size());
      EXPECT_GE(want.Postings(shared).size(), kDocs);
      EXPECT_EQ(merge_ops, 3 * all.size());
    }
  }
}

}  // namespace
}  // namespace gtadoc
