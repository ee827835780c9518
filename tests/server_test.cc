#include "analytics/server.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "analytics/batch.h"
#include "datagen/datagen.h"
#include "format/serializer.h"
#include "gpu/platform.h"
#include "gtadoc/engine.h"
#include "sequitur/compressor.h"
#include "serving_helpers.h"
#include "tadoc/parallel_engine.h"

namespace gtadoc {
namespace {

GTadocEngine::Options GpuOptions() {
  GTadocEngine::Options opt;
  opt.gpu = gpu::PascalPlatform().gpu;
  opt.host_workers = 1;  // deterministic per-document runs
  return opt;
}

/// A corpus of template-heavy files pre-partitioned into documents sharing
/// one dictionary (the BatchEngine fixture, reused for serving tests).
PartitionedCorpus MakeCorpus(uint32_t num_files, uint32_t num_documents,
                             uint64_t tokens = 6000, uint64_t seed = 7) {
  DatasetSpec spec = DatasetA();
  spec.num_files = num_files;
  spec.total_tokens = tokens;
  spec.vocabulary = 300;
  spec.seed = seed;
  Corpus corpus = GenerateCorpus(spec);
  auto part = PartitionAndCompress(corpus, num_documents);
  EXPECT_TRUE(part.ok()) << part.status().ToString();
  return std::move(*part);
}

/// The deterministic corpus-skip fixture (datagen's BuildMarkerCorpus):
/// markers live only in documents [0, relevant), every marker-free
/// document's root Bloom provably rejects them, and `false_positive` is an
/// injected word document `relevant`'s root Bloom falsely passes.
MarkerCorpus MakeMarkerCorpus(uint32_t num_docs, uint32_t relevant,
                              uint32_t num_markers) {
  MarkerCorpusSpec spec;
  spec.num_docs = num_docs;
  spec.relevant = relevant;
  spec.num_markers = num_markers;
  auto built = BuildMarkerCorpus(spec);
  EXPECT_TRUE(built.ok()) << built.status().ToString();
  return std::move(*built);
}

// --------------------------------------------------------------------------
// Plan-only footprint probe (the admission input).
// --------------------------------------------------------------------------

TEST(PlanOnlyTest, ProbeCachesThePlanTheRunConsumes) {
  PartitionedCorpus corpus = MakeCorpus(8, 1);
  auto engine = GTadocEngine::Create(&corpus.partitions[0], GpuOptions());
  ASSERT_TRUE(engine.ok());

  auto probed = (*engine)->PlanOnly(Task::kInvertedIndex);
  ASSERT_TRUE(probed.ok()) << probed.status().ToString();
  EXPECT_GT((*probed)->total_slots, 0u);

  // The probe resolved and cached the exact plan the run consumes: the run
  // is a hit, pays zero planning, and executes the same plan object.
  auto run = (*engine)->Run(Task::kInvertedIndex);
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(run->timing.plan_seconds, 0.0);
  EXPECT_EQ(run->timing.plan_cache_hits, 1u);
  auto cached = (*engine)->CachedPlan(Task::kInvertedIndex);
  ASSERT_NE(cached, nullptr);
  EXPECT_EQ(cached.get(), probed->get());
}

TEST(PlanOnlyTest, UnknownTaskIsNotFound) {
  PartitionedCorpus corpus = MakeCorpus(4, 1);
  auto engine = GTadocEngine::Create(&corpus.partitions[0], GpuOptions());
  ASSERT_TRUE(engine.ok());
  auto probed = (*engine)->PlanOnly(static_cast<Task>(987654));
  EXPECT_FALSE(probed.ok());
}

// --------------------------------------------------------------------------
// SlotBudget (the device-memory admission seam).
// --------------------------------------------------------------------------

TEST(SlotBudgetTest, ReserveReleasePeak) {
  gpu::SlotBudget budget(100);
  EXPECT_TRUE(budget.TryReserve(60));
  EXPECT_TRUE(budget.TryReserve(40));
  EXPECT_FALSE(budget.TryReserve(1));  // full: no oversubscription
  EXPECT_EQ(budget.in_use(), 100u);
  budget.Release(40);
  EXPECT_EQ(budget.in_use(), 60u);
  EXPECT_TRUE(budget.TryReserve(40));
  EXPECT_EQ(budget.peak_in_use(), 100u);
  EXPECT_FALSE(budget.TryReserve(200));  // larger than the whole budget
}

TEST(SlotBudgetTest, ZeroCapacityIsUnmetered) {
  gpu::SlotBudget budget(0);
  EXPECT_TRUE(budget.TryReserve(1ull << 40));
  EXPECT_EQ(budget.peak_in_use(), 1ull << 40);
}

// --------------------------------------------------------------------------
// Admission control.
// --------------------------------------------------------------------------

TEST(CorpusServerTest, AdmittedWavesNeverExceedSlotBudget) {
  PartitionedCorpus corpus = MakeCorpus(16, 4);
  const std::vector<Task> tasks = {Task::kWordCount, Task::kInvertedIndex,
                                   Task::kTermVector, Task::kSort,
                                   Task::kInvertedIndex, Task::kWordCount};

  // Sizing pass: an unmetered server reports every run's footprint.
  CorpusServer::Options sizing;
  sizing.engine = GpuOptions();
  auto sizer = CorpusServer::Create(&corpus, sizing);
  ASSERT_TRUE(sizer.ok());
  auto sizing_tenant = (*sizer)->OpenTenant({});
  ASSERT_TRUE(sizing_tenant.ok());
  uint64_t max_fp = 0;
  uint64_t sum_fp = 0;
  for (Task t : tasks) {
    CorpusServer::RunRequest req;
    req.task = t;
    auto submitted = sizing_tenant->Submit(req);
    ASSERT_TRUE(submitted.ok()) << submitted.status().ToString();
    ASSERT_TRUE(submitted->admitted());
    const uint64_t footprint = submitted->admission->footprint_slots;
    EXPECT_GT(footprint, 0u);
    max_fp = std::max(max_fp, footprint);
    sum_fp += footprint;
  }

  // A budget below the total forces multiple waves; each wave's admitted
  // footprints must fit it, and the reservation high-water mark proves the
  // invariant held at every instant.
  CorpusServer::Options opt = sizing;
  opt.device_slot_budget = max_fp + max_fp / 2;
  ASSERT_LT(opt.device_slot_budget, sum_fp);
  auto server = CorpusServer::Create(&corpus, opt);
  ASSERT_TRUE(server.ok());
  auto tenant = (*server)->OpenTenant({});
  ASSERT_TRUE(tenant.ok());
  std::vector<CorpusServer::RunTicket> tickets;
  for (Task t : tasks) {
    CorpusServer::RunRequest req;
    req.task = t;
    auto submitted = tenant->Submit(req);
    ASSERT_TRUE(submitted.ok());
    ASSERT_TRUE(submitted->admitted());
    tickets.push_back(*submitted->ticket);
  }
  auto served = ServeAndAwait(server->get(), tickets,
                              AdmissionMode::kBarrierWaves);
  ASSERT_TRUE(served.ok()) << served.status().ToString();
  ASSERT_EQ(served->size(), tasks.size());

  std::map<uint64_t, uint64_t> wave_slots;
  for (const auto& run : *served) {
    wave_slots[run.wave] += run.admission.footprint_slots;
  }
  EXPECT_GE(wave_slots.size(), 2u) << "budget never forced a second wave";
  for (const auto& [wave, slots] : wave_slots) {
    EXPECT_LE(slots, opt.device_slot_budget) << "wave " << wave;
  }
  const CorpusServer::Stats& stats = (*server)->stats();
  EXPECT_LE(stats.peak_admitted_slots, opt.device_slot_budget);
  EXPECT_EQ(stats.waves, wave_slots.size());
  EXPECT_EQ(stats.served, tasks.size());
}

TEST(CorpusServerTest, RunLargerThanBudgetIsRejectedAtSubmit) {
  PartitionedCorpus corpus = MakeCorpus(8, 2);
  CorpusServer::Options opt;
  opt.engine = GpuOptions();
  opt.device_slot_budget = 1;  // nothing real fits
  auto server = CorpusServer::Create(&corpus, opt);
  ASSERT_TRUE(server.ok());
  auto tenant = (*server)->OpenTenant({});
  ASSERT_TRUE(tenant.ok());
  CorpusServer::RunRequest req;
  req.task = Task::kWordCount;
  auto submitted = tenant->Submit(req);
  ASSERT_TRUE(submitted.ok());
  EXPECT_FALSE(submitted->admitted());
  ASSERT_TRUE(submitted->rejection.has_value());
  EXPECT_EQ(submitted->rejection->reason,
            CorpusServer::Rejection::Reason::kOverBudget);
  EXPECT_EQ((*server)->stats().rejected, 1u);
  EXPECT_EQ((*server)->queued(), 0u);
}

TEST(CorpusServerTest, ServedFifoAndBitIdenticalToSerialBatchRuns) {
  PartitionedCorpus corpus = MakeCorpus(12, 4);
  const std::vector<Task> tasks = {Task::kWordCount, Task::kInvertedIndex,
                                   Task::kTopKWords, Task::kSequenceCount,
                                   Task::kTermVector};

  CorpusServer::Options opt;
  opt.engine = GpuOptions();
  auto server = CorpusServer::Create(&corpus, opt);
  ASSERT_TRUE(server.ok());
  auto tenant = (*server)->OpenTenant({});
  ASSERT_TRUE(tenant.ok());
  std::vector<CorpusServer::RunTicket> tickets;
  for (Task t : tasks) {
    CorpusServer::RunRequest req;
    req.task = t;
    auto submitted = tenant->Submit(req);
    ASSERT_TRUE(submitted.ok());
    ASSERT_TRUE(submitted->admitted());
    tickets.push_back(*submitted->ticket);
  }
  auto served = ServeAndAwait(server->get(), tickets,
                              AdmissionMode::kBarrierWaves);
  ASSERT_TRUE(served.ok()) << served.status().ToString();
  ASSERT_EQ(served->size(), tasks.size());

  for (size_t i = 0; i < served->size(); ++i) {
    // FIFO: runs are served in ticket (submission) order.
    EXPECT_EQ((*served)[i].admission.ticket, tickets[i].id());
    if (i > 0) EXPECT_GE((*served)[i].wave, (*served)[i - 1].wave);

    // Bit-identity: the served output equals a standalone serial
    // BatchEngine run of the same task with the same options.
    BatchEngine::Options bopt;
    bopt.engine = GpuOptions();
    auto batch = BatchEngine::Create(&corpus, bopt);
    ASSERT_TRUE(batch.ok());
    auto serial = (*batch)->Run(tasks[i]);
    ASSERT_TRUE(serial.ok());
    EXPECT_TRUE((*served)[i].batch.merged.SameAs(serial->merged))
        << TaskName(tasks[i]);
    ASSERT_EQ((*served)[i].batch.documents.size(),
              serial->documents.size());
    for (size_t d = 0; d < serial->documents.size(); ++d) {
      EXPECT_TRUE((*served)[i].batch.documents[d].result.SameAs(
          serial->documents[d].result))
          << TaskName(tasks[i]) << " doc " << d;
    }

    // Execution consumed the plans admission probed: zero planning.
    EXPECT_EQ((*served)[i].batch.timing.plan_seconds, 0.0)
        << TaskName(tasks[i]);
  }
}

TEST(CorpusServerTest, AdmissionPreSizingLeavesZeroMidRunGrowth) {
  PartitionedCorpus corpus = MakeCorpus(16, 4);
  CorpusServer::Options opt;
  opt.engine = GpuOptions();
  auto server = CorpusServer::Create(&corpus, opt);
  ASSERT_TRUE(server.ok());
  auto tenant = (*server)->OpenTenant({});
  ASSERT_TRUE(tenant.ok());
  std::vector<CorpusServer::RunTicket> tickets;
  for (Task t : {Task::kWordCount, Task::kInvertedIndex, Task::kTermVector}) {
    CorpusServer::RunRequest req;
    req.task = t;
    auto submitted = tenant->Submit(req);
    ASSERT_TRUE(submitted.ok());
    ASSERT_TRUE(submitted->admitted());
    tickets.push_back(*submitted->ticket);
  }
  auto served = ServeAndAwait(server->get(), tickets, AdmissionMode::kRolling);
  ASSERT_TRUE(served.ok());
  EXPECT_EQ((*server)->stats().mid_run_pool_growths, 0u);
  for (const auto& run : *served) {
    EXPECT_EQ(run.batch.mid_run_pool_growths, 0u);
  }

  // Contrast: the same corpus through a bare BatchEngine (no pre-sizing)
  // grows its context pools while documents are executing.
  BatchEngine::Options bopt;
  bopt.engine = GpuOptions();
  auto batch = BatchEngine::Create(&corpus, bopt);
  ASSERT_TRUE(batch.ok());
  auto run = (*batch)->Run(Task::kInvertedIndex);
  ASSERT_TRUE(run.ok());
  EXPECT_GT(run->mid_run_pool_growths, 0u);
}

// --------------------------------------------------------------------------
// Root-Bloom corpus skip.
// --------------------------------------------------------------------------

TEST(CorpusServerTest, BloomSkipIsBitIdenticalWithStrictlyLessWork) {
  MarkerCorpus mc = MakeMarkerCorpus(/*num_docs=*/12, /*relevant=*/4,
                                     /*num_markers=*/4);
  CorpusServer::Options opt;
  opt.engine = GpuOptions();
  opt.engine.charge_pcie = true;  // uploads visible, so the skip shows up
  auto server = CorpusServer::Create(&mc.corpus, opt);
  ASSERT_TRUE(server.ok());
  auto tenant = (*server)->OpenTenant({});
  ASSERT_TRUE(tenant.ok());

  CorpusServer::RunRequest req;
  req.task = Task::kKeywordSearch;
  for (uint32_t m : mc.markers) req.query_sets.push_back({m});
  auto submitted = tenant->Submit(req);
  ASSERT_TRUE(submitted.ok()) << submitted.status().ToString();
  ASSERT_TRUE(submitted->admitted());
  // Every marker-free document's root Bloom provably rejects every marker.
  EXPECT_EQ(submitted->admission->documents_skipped, 12u - 4u);
  EXPECT_EQ(submitted->admission->documents_to_execute, 4u);

  auto served = submitted->ticket->Await();
  ASSERT_TRUE(served.ok()) << served.status().ToString();
  EXPECT_EQ((*server)->stats().served, 1u);
  const BatchEngine::BatchRun& skipped = served->batch;
  EXPECT_EQ(skipped.documents_skipped, 8u);
  for (size_t d = 0; d < skipped.documents.size(); ++d) {
    EXPECT_EQ(skipped.documents[d].skipped, d >= 4) << "doc " << d;
  }

  // The unskipped baseline: a serial BatchEngine run with identical
  // options. Results must be bit-identical; work must be strictly less.
  BatchEngine::Options bopt;
  bopt.engine = opt.engine;
  bopt.engine.plan_cache = nullptr;
  bopt.engine.query_sets = req.query_sets;
  auto batch = BatchEngine::Create(&mc.corpus, bopt);
  ASSERT_TRUE(batch.ok());
  auto full = (*batch)->Run(Task::kKeywordSearch);
  ASSERT_TRUE(full.ok());
  EXPECT_TRUE(skipped.merged.SameAs(full->merged))
      << skipped.merged.Digest() << " vs " << full->merged.Digest();
  for (size_t d = 0; d < full->documents.size(); ++d) {
    EXPECT_TRUE(
        skipped.documents[d].result.SameAs(full->documents[d].result))
        << "doc " << d;
  }
  EXPECT_LT(skipped.timing.traversal_ops, full->timing.traversal_ops);
  EXPECT_LT(skipped.timing.upload_seconds, full->timing.upload_seconds);
  // Only executed documents resolve plans — and all as admission-time hits.
  EXPECT_EQ(skipped.timing.plan_cache_hits, 4u);
  EXPECT_EQ(skipped.timing.plan_seconds, 0.0);
}

TEST(CorpusServerTest, BloomFalsePositiveDocExecutesAndStaysCorrect) {
  MarkerCorpus mc = MakeMarkerCorpus(/*num_docs=*/12, /*relevant=*/4,
                                     /*num_markers=*/2);
  ASSERT_NE(mc.false_positive, UINT32_MAX)
      << "no Bloom-false-positive candidate found for this seed";

  CorpusServer::Options opt;
  opt.engine = GpuOptions();
  auto server = CorpusServer::Create(&mc.corpus, opt);
  ASSERT_TRUE(server.ok());
  auto tenant = (*server)->OpenTenant({});
  ASSERT_TRUE(tenant.ok());

  // Query the false-positive word: document 4 (the first marker-free doc)
  // passes the Bloom probe without containing the word — a superset, never
  // an error. It must execute, contribute nothing, and the merged result
  // must still equal the unskipped baseline.
  CorpusServer::RunRequest req;
  req.task = Task::kKeywordSearch;
  req.query_words = {mc.false_positive};
  auto submitted = tenant->Submit(req);
  ASSERT_TRUE(submitted.ok());
  ASSERT_TRUE(submitted->admitted());
  auto served = submitted->ticket->Await();
  ASSERT_TRUE(served.ok());
  const BatchEngine::BatchRun& run = served->batch;
  EXPECT_FALSE(run.documents[4].skipped)
      << "a Bloom hit must execute, even when it is a false positive";
  EXPECT_TRUE(run.documents[4].result.keyword_search.empty());

  BatchEngine::Options bopt;
  bopt.engine = opt.engine;
  bopt.engine.plan_cache = nullptr;
  bopt.engine.query_words = req.query_words;
  auto batch = BatchEngine::Create(&mc.corpus, bopt);
  ASSERT_TRUE(batch.ok());
  auto full = (*batch)->Run(Task::kKeywordSearch);
  ASSERT_TRUE(full.ok());
  EXPECT_TRUE(run.merged.SameAs(full->merged));
  // Real hits land only in the marker-carrying documents' files.
  for (const auto& [file, hits] : run.merged.keyword_search) {
    EXPECT_LT(file, mc.corpus.file_base[4]) << "hit in a marker-free doc";
    EXPECT_GT(hits, 0u);
  }
}

TEST(CorpusServerTest, PhraseSkipNeedsEveryWordOfASet) {
  MarkerCorpus mc = MakeMarkerCorpus(/*num_docs=*/10, /*relevant=*/3,
                                     /*num_markers=*/2);
  const TaskKernel& phrase = **TaskRegistry::Get(Task::kPhraseSearch);
  const TaskKernel& keyword = **TaskRegistry::Get(Task::kKeywordSearch);

  // A document carrying marker 0 but not marker 1 can match the keyword
  // query {m0} but never the phrase "m0 m1" — the sequence-shape mask may
  // skip it for the phrase while the weight-shape mask must execute it.
  std::vector<std::vector<uint32_t>> extra_files = {
      {1, 2, 3, mc.markers[0], 5, 6}};
  auto partial = CompressTokenStreams(extra_files, mc.num_words);
  ASSERT_TRUE(partial.ok());
  std::vector<Grammar> docs;
  for (auto& g : mc.corpus.partitions) docs.push_back(std::move(g));
  docs.push_back(std::move(*partial));
  auto corpus = CorpusFromDocuments(std::move(docs));
  ASSERT_TRUE(corpus.ok());
  const size_t partial_doc = corpus->partitions.size() - 1;

  TaskInput input;
  input.query_sets = {{mc.markers[0], mc.markers[1]}};
  input.query_words = {mc.markers[0], mc.markers[1]};

  std::vector<uint8_t> phrase_mask =
      BloomExecuteMask(*corpus, phrase, input);
  ASSERT_EQ(phrase_mask.size(), corpus->partitions.size());
  EXPECT_EQ(phrase_mask[partial_doc], 0)
      << "phrase needs every word; a doc missing one is skippable";
  std::vector<uint8_t> keyword_mask =
      BloomExecuteMask(*corpus, keyword, input);
  EXPECT_EQ(keyword_mask[partial_doc], 1)
      << "keyword needs any word; a doc holding one must execute";
  for (uint32_t d = 0; d < 3; ++d) {
    EXPECT_EQ(phrase_mask[d], 1) << "marker doc " << d;
    EXPECT_EQ(keyword_mask[d], 1) << "marker doc " << d;
  }

  // End to end: the phrase run over the extended corpus is bit-identical
  // to the unskipped baseline.
  CorpusServer::Options opt;
  opt.engine = GpuOptions();
  auto server = CorpusServer::Create(&*corpus, opt);
  ASSERT_TRUE(server.ok());
  auto tenant = (*server)->OpenTenant({});
  ASSERT_TRUE(tenant.ok());
  CorpusServer::RunRequest req;
  req.task = Task::kPhraseSearch;
  req.query_sets = input.query_sets;
  auto submitted = tenant->Submit(req);
  ASSERT_TRUE(submitted.ok());
  ASSERT_TRUE(submitted->admitted());
  EXPECT_GE(submitted->admission->documents_skipped, 7u);
  auto served = submitted->ticket->Await();
  ASSERT_TRUE(served.ok()) << served.status().ToString();

  BatchEngine::Options bopt;
  bopt.engine = opt.engine;
  bopt.engine.plan_cache = nullptr;
  bopt.engine.query_sets = req.query_sets;
  auto batch = BatchEngine::Create(&*corpus, bopt);
  ASSERT_TRUE(batch.ok());
  auto full = (*batch)->Run(Task::kPhraseSearch);
  ASSERT_TRUE(full.ok());
  EXPECT_TRUE(served->batch.merged.SameAs(full->merged))
      << served->batch.merged.Digest() << " vs " << full->merged.Digest();
}

TEST(CorpusServerTest, EmptyQuerySkipsEveryDocumentAndStaysCorrect) {
  MarkerCorpus mc = MakeMarkerCorpus(/*num_docs=*/6, /*relevant=*/2,
                                     /*num_markers=*/2);
  CorpusServer::Options opt;
  opt.engine = GpuOptions();
  auto server = CorpusServer::Create(&mc.corpus, opt);
  ASSERT_TRUE(server.ok());
  auto tenant = (*server)->OpenTenant({});
  ASSERT_TRUE(tenant.ok());
  CorpusServer::RunRequest req;
  req.task = Task::kKeywordSearch;  // empty query: nothing can match
  auto submitted = tenant->Submit(req);
  ASSERT_TRUE(submitted.ok());
  ASSERT_TRUE(submitted->admitted());
  EXPECT_EQ(submitted->admission->documents_to_execute, 0u);
  EXPECT_EQ(submitted->admission->footprint_slots, 0u);
  auto served = submitted->ticket->Await();
  ASSERT_TRUE(served.ok());
  EXPECT_TRUE(served->batch.merged.keyword_search.empty());

  BatchEngine::Options bopt;
  bopt.engine = opt.engine;
  bopt.engine.plan_cache = nullptr;
  auto batch = BatchEngine::Create(&mc.corpus, bopt);
  ASSERT_TRUE(batch.ok());
  auto full = (*batch)->Run(Task::kKeywordSearch);
  ASSERT_TRUE(full.ok());
  EXPECT_TRUE(served->batch.merged.SameAs(full->merged));
}

TEST(CorpusServerTest, FullyMaskedShardHoldsNoDeviceState) {
  // With two worker contexts over 8 documents and a query whose markers
  // live only in documents 0-3, the second shard [4, 8) is fully masked:
  // admission must price ONE context (the reservation) and execution must
  // hold no pool for the masked shard — the two must agree, which is
  // observable as the multi-shard footprint equalling the single-shard one.
  MarkerCorpus mc = MakeMarkerCorpus(/*num_docs=*/8, /*relevant=*/4,
                                     /*num_markers=*/2);
  CorpusServer::RunRequest req;
  req.task = Task::kKeywordSearch;
  for (uint32_t m : mc.markers) req.query_sets.push_back({m});

  CorpusServer::Options one;
  one.engine = GpuOptions();
  one.host_workers = 1;
  auto server_one = CorpusServer::Create(&mc.corpus, one);
  ASSERT_TRUE(server_one.ok());
  auto tenant_one = (*server_one)->OpenTenant({});
  ASSERT_TRUE(tenant_one.ok());
  auto submitted_one = tenant_one->Submit(req);
  ASSERT_TRUE(submitted_one.ok());
  ASSERT_TRUE(submitted_one->admitted());

  CorpusServer::Options two = one;
  two.host_workers = 2;
  auto server_two = CorpusServer::Create(&mc.corpus, two);
  ASSERT_TRUE(server_two.ok());
  auto tenant_two = (*server_two)->OpenTenant({});
  ASSERT_TRUE(tenant_two.ok());
  auto submitted_two = tenant_two->Submit(req);
  ASSERT_TRUE(submitted_two.ok());
  ASSERT_TRUE(submitted_two->admitted());
  EXPECT_EQ(submitted_two->admission->footprint_slots,
            submitted_one->admission->footprint_slots)
      << "a fully-masked shard must not be priced (or allocated)";

  auto served = submitted_two->ticket->Await();
  ASSERT_TRUE(served.ok()) << served.status().ToString();
  EXPECT_EQ((*server_two)->stats().mid_run_pool_growths, 0u);

  BatchEngine::Options bopt;
  bopt.engine = one.engine;
  bopt.engine.query_sets = req.query_sets;
  auto batch = BatchEngine::Create(&mc.corpus, bopt);
  ASSERT_TRUE(batch.ok());
  auto full = (*batch)->Run(Task::kKeywordSearch);
  ASSERT_TRUE(full.ok());
  EXPECT_TRUE(served->batch.merged.SameAs(full->merged));
}

TEST(CorpusServerTest, EmptyRequestFieldsInheritServerDefaults) {
  MarkerCorpus mc = MakeMarkerCorpus(/*num_docs=*/6, /*relevant=*/2,
                                     /*num_markers=*/1);
  CorpusServer::Options opt;
  opt.engine = GpuOptions();
  opt.engine.query_words = {mc.markers[0]};  // the server-wide default query
  auto server = CorpusServer::Create(&mc.corpus, opt);
  ASSERT_TRUE(server.ok());
  auto tenant = (*server)->OpenTenant({});
  ASSERT_TRUE(tenant.ok());

  // An empty-query request inherits the default instead of silently
  // running (and Bloom-skipping) an empty accept set.
  CorpusServer::RunRequest inherit;
  inherit.task = Task::kKeywordSearch;
  auto inherited = tenant->Submit(inherit);
  ASSERT_TRUE(inherited.ok());
  ASSERT_TRUE(inherited->admitted());
  EXPECT_EQ(inherited->admission->documents_to_execute, 2u);

  CorpusServer::RunRequest explicit_req = inherit;
  explicit_req.query_words = {mc.markers[0]};
  auto explicit_submitted = tenant->Submit(explicit_req);
  ASSERT_TRUE(explicit_submitted.ok());
  ASSERT_TRUE(explicit_submitted->admitted());
  auto served =
      ServeAndAwait(server->get(),
                    {*inherited->ticket, *explicit_submitted->ticket},
                    AdmissionMode::kRolling);
  ASSERT_TRUE(served.ok());
  ASSERT_EQ(served->size(), 2u);
  EXPECT_TRUE(
      (*served)[0].batch.merged.SameAs((*served)[1].batch.merged));
  EXPECT_FALSE((*served)[0].batch.merged.keyword_search.empty());
}

TEST(CorpusServerTest, ExplicitQueryWordsReplaceDefaultQuerySets) {
  // A server-wide default query_sets must not shadow a request's explicit
  // query_words (the engines prefer query_sets whenever non-empty): an
  // explicit query replaces the default as a whole.
  MarkerCorpus mc = MakeMarkerCorpus(/*num_docs=*/6, /*relevant=*/2,
                                     /*num_markers=*/2);
  CorpusServer::Options opt;
  opt.engine = GpuOptions();
  opt.engine.query_sets = {{mc.markers[0]}, {mc.markers[1]}};
  auto server = CorpusServer::Create(&mc.corpus, opt);
  ASSERT_TRUE(server.ok());
  auto tenant = (*server)->OpenTenant({});
  ASSERT_TRUE(tenant.ok());
  CorpusServer::RunRequest req;
  req.task = Task::kKeywordSearch;
  req.query_words = {mc.markers[1]};
  auto submitted = tenant->Submit(req);
  ASSERT_TRUE(submitted.ok());
  ASSERT_TRUE(submitted->admitted());
  auto served = submitted->ticket->Await();
  ASSERT_TRUE(served.ok());
  // The run answered the request's single word, not the default sets.
  EXPECT_TRUE(served->batch.merged.keyword_multi.empty());

  CorpusServer::Options plain;
  plain.engine = GpuOptions();
  auto reference = CorpusServer::Create(&mc.corpus, plain);
  ASSERT_TRUE(reference.ok());
  auto reference_tenant = (*reference)->OpenTenant({});
  ASSERT_TRUE(reference_tenant.ok());
  auto reference_submitted = reference_tenant->Submit(req);
  ASSERT_TRUE(reference_submitted.ok());
  ASSERT_TRUE(reference_submitted->admitted());
  auto expected = reference_submitted->ticket->Await();
  ASSERT_TRUE(expected.ok());
  EXPECT_TRUE(served->batch.merged.SameAs(expected->batch.merged));
  EXPECT_FALSE(served->batch.merged.keyword_search.empty());
}

TEST(CorpusServerTest, NonSelectiveTasksNeverSkip) {
  MarkerCorpus mc = MakeMarkerCorpus(/*num_docs=*/6, /*relevant=*/2,
                                     /*num_markers=*/2);
  CorpusServer::Options opt;
  opt.engine = GpuOptions();
  auto server = CorpusServer::Create(&mc.corpus, opt);
  ASSERT_TRUE(server.ok());
  auto tenant = (*server)->OpenTenant({});
  ASSERT_TRUE(tenant.ok());
  CorpusServer::RunRequest req;
  req.task = Task::kWordCount;
  auto submitted = tenant->Submit(req);
  ASSERT_TRUE(submitted.ok());
  ASSERT_TRUE(submitted->admitted());
  EXPECT_EQ(submitted->admission->documents_skipped, 0u);
  EXPECT_EQ(submitted->admission->documents_to_execute, 6u);
}

// --------------------------------------------------------------------------
// Request validation: the same refusal on every path.
// --------------------------------------------------------------------------

/// A four-document corpus built from arithmetic token streams (no Zipf
/// sampling, so no libm call feeds the simulated schedule): word 40 appears
/// only in documents 0 and 1, and every document's root Bloom rejects
/// word 41.
PartitionedCorpus ArithmeticCorpus() {
  std::vector<Grammar> docs;
  for (uint32_t d = 0; d < 4; ++d) {
    std::vector<std::vector<uint32_t>> files;
    for (uint32_t f = 0; f < 2; ++f) {
      std::vector<uint32_t> tokens;
      for (uint32_t i = 0; i < 80; ++i) {
        tokens.push_back((i * 7 + d * 3 + f * 11) % 29);
        if (d < 2 && i % 23 == 5) tokens.push_back(40);
      }
      files.push_back(std::move(tokens));
    }
    auto grammar = CompressTokenStreams(files, /*num_words=*/48);
    EXPECT_TRUE(grammar.ok()) << grammar.status().ToString();
    docs.push_back(std::move(*grammar));
  }
  auto corpus = CorpusFromDocuments(std::move(docs));
  EXPECT_TRUE(corpus.ok()) << corpus.status().ToString();
  return std::move(*corpus);
}

/// Options with one CPU lane, so both backends can be asked for.
CorpusServer::Options HybridOptions(uint64_t budget) {
  CorpusServer::Options opt;
  opt.engine = GpuOptions();
  opt.engine.charge_pcie = true;
  opt.device_slot_budget = budget;
  opt.scheduler.cpu_lanes = 1;
  opt.cpu = gpu::PascalPlatform().cpu;
  return opt;
}

TEST(CorpusServerTest, NgramLenBelowTwoIsMalformedOnEveryPath) {
  PartitionedCorpus corpus = ArithmeticCorpus();
  auto server = CorpusServer::Create(&corpus, HybridOptions(0));
  ASSERT_TRUE(server.ok());
  auto tenant = (*server)->OpenTenant({});
  ASSERT_TRUE(tenant.ok());

  CorpusServer::RunRequest sequence;
  sequence.task = Task::kSequenceCount;
  sequence.ngram_len = 1;
  // A keyword run whose every document the root Blooms skip: no probe
  // would run, so only the request check can refuse it.
  CorpusServer::RunRequest skipped;
  skipped.task = Task::kKeywordSearch;
  skipped.query_words = {41};
  skipped.ngram_len = 1;
  CorpusServer::RunOptions gpu_run;
  gpu_run.backend = CorpusServer::RunBackend::kGpu;
  CorpusServer::RunOptions auto_run;
  auto_run.backend = CorpusServer::RunBackend::kAuto;
  CorpusServer::RunOptions cpu_run;
  cpu_run.backend = CorpusServer::RunBackend::kCpu;

  const std::vector<std::pair<CorpusServer::RunRequest,
                              CorpusServer::RunOptions>>
      cases = {{sequence, gpu_run},
               {sequence, auto_run},
               {sequence, cpu_run},
               {skipped, gpu_run}};
  for (size_t i = 0; i < cases.size(); ++i) {
    auto submitted = tenant->Submit(cases[i].first, cases[i].second);
    ASSERT_TRUE(submitted.ok()) << "case " << i << ": "
                                << submitted.status().ToString();
    ASSERT_FALSE(submitted->admitted()) << "case " << i;
    EXPECT_EQ(submitted->rejection->reason,
              CorpusServer::Rejection::Reason::kMalformed)
        << "case " << i;
  }
  EXPECT_EQ((*server)->stats().rejected, cases.size());
  EXPECT_EQ((*server)->stats().tenants.at(tenant->id()).rejected,
            cases.size());
  EXPECT_EQ((*server)->stats().submitted, 0u);
  EXPECT_EQ((*server)->queued(), 0u);

  // The server-wide default is checked once, at Create.
  CorpusServer::Options bad_default = HybridOptions(0);
  bad_default.engine.ngram_len = 1;
  EXPECT_TRUE(
      CorpusServer::Create(&corpus, bad_default).status().IsInvalidArgument());
}

// --------------------------------------------------------------------------
// Golden one-device schedule.
// --------------------------------------------------------------------------

/// One served run's place on the simulated schedule.
struct GoldenRun {
  uint64_t footprint_slots;
  uint32_t documents_to_execute;
  double start_seconds;
  double completion_seconds;
  double queue_wait_seconds;
  bool backfilled;
  uint64_t wave;
};

/// The literals below were printed with %.17g from a server that still ran
/// its one device on a hand-written path beside the sharded one. A group of
/// one must reproduce that schedule bit for bit: the single device runs
/// every GPU run (the fully skipped one included) and merges inside its
/// shard, so no gather tail or reassociated sum moves a clock.
///
/// Workload: tenant "alpha" submits wordCount, invertedIndex and a keyword
/// run Bloom-routed to documents 0-1; tenant "beta" a keyword run every
/// document's root Bloom skips, a sequenceCount forced onto the CPU lane
/// and termVector; "alpha" closes with sort. The budget (86 slots) is the
/// largest footprint, so the two 86-slot runs serialize and the rest pack
/// around them.
void ExpectGoldenSchedule(AdmissionMode mode, const GoldenRun (&golden)[7],
                          double makespan_seconds) {
  PartitionedCorpus corpus = ArithmeticCorpus();
  auto server = CorpusServer::Create(&corpus, HybridOptions(86));
  ASSERT_TRUE(server.ok());
  CorpusServer::TenantOptions alpha_options;
  alpha_options.name = "alpha";
  CorpusServer::TenantOptions beta_options;
  beta_options.name = "beta";
  auto alpha = (*server)->OpenTenant(alpha_options);
  auto beta = (*server)->OpenTenant(beta_options);
  ASSERT_TRUE(alpha.ok() && beta.ok());

  struct Submission {
    Task task;
    std::vector<uint32_t> query_words;
    CorpusServer::RunBackend backend;
    CorpusServer::TenantHandle* tenant;
  };
  const CorpusServer::RunBackend gpu = CorpusServer::RunBackend::kGpu;
  const std::vector<Submission> workload = {
      {Task::kWordCount, {}, gpu, &*alpha},
      {Task::kInvertedIndex, {}, gpu, &*alpha},
      {Task::kKeywordSearch, {40}, gpu, &*alpha},
      {Task::kKeywordSearch, {41}, gpu, &*beta},
      {Task::kSequenceCount, {}, CorpusServer::RunBackend::kCpu, &*beta},
      {Task::kTermVector, {}, gpu, &*beta},
      {Task::kSort, {}, gpu, &*alpha}};
  std::vector<CorpusServer::RunTicket> tickets;
  for (const Submission& submission : workload) {
    CorpusServer::RunRequest request;
    request.task = submission.task;
    request.query_words = submission.query_words;
    CorpusServer::RunOptions run_options;
    run_options.backend = submission.backend;
    auto submitted = submission.tenant->Submit(request, run_options);
    ASSERT_TRUE(submitted.ok()) << submitted.status().ToString();
    ASSERT_TRUE(submitted->admitted());
    tickets.push_back(*submitted->ticket);
  }
  auto served = ServeAndAwait(server->get(), tickets, mode);
  ASSERT_TRUE(served.ok()) << served.status().ToString();

  for (size_t i = 0; i < tickets.size(); ++i) {
    SCOPED_TRACE("ticket " + std::to_string(i));
    const CorpusServer::ServedRun& run = (*served)[i];
    EXPECT_EQ(run.admission.footprint_slots, golden[i].footprint_slots);
    EXPECT_EQ(run.admission.documents_to_execute,
              golden[i].documents_to_execute);
    EXPECT_EQ(run.start_seconds, golden[i].start_seconds);
    EXPECT_EQ(run.completion_seconds, golden[i].completion_seconds);
    EXPECT_EQ(run.queue_wait_seconds, golden[i].queue_wait_seconds);
    EXPECT_EQ(run.backfilled, golden[i].backfilled);
    EXPECT_EQ(run.wave, golden[i].wave);
    EXPECT_EQ(run.gather_seconds, 0.0);
    if (workload[i].backend == gpu) {
      // One entry per device, at N = 1 too: the run's whole duration.
      EXPECT_EQ(run.device_durations,
                std::vector<double>{run.batch.timing.total_seconds()});
    } else {
      EXPECT_TRUE(run.device_durations.empty());
    }
  }

  const CorpusServer::Stats& stats = (*server)->stats();
  EXPECT_EQ(stats.makespan_seconds, makespan_seconds);
  EXPECT_EQ(stats.peak_admitted_slots, 86u);
  EXPECT_EQ(stats.documents_executed, 22u);
  EXPECT_EQ(stats.documents_skipped, 6u);
  ASSERT_EQ(stats.devices.size(), 1u);
  const CorpusServer::Stats::DeviceStats& device = stats.devices[0];
  EXPECT_EQ(device.runs_routed, 5u);
  EXPECT_EQ(device.documents_executed, 18u);
  EXPECT_EQ(device.peak_admitted_slots, 86u);
  EXPECT_EQ(device.init_ops, 1456u);
  EXPECT_EQ(device.traversal_ops, 11880u);
  EXPECT_EQ(device.upload_seconds, 1.9293333333333333e-06);
  EXPECT_EQ(device.busy_seconds, 0.00034513932167376895);
  EXPECT_EQ(device.slot_seconds_held, 0.016175153864287403);
  EXPECT_EQ(device.mid_run_pool_growths, 0u);
  EXPECT_EQ(stats.tenants.size(), 2u);
  EXPECT_EQ(stats.tenants.at(alpha->id()).slot_seconds_held,
            0.0095375614321141083);
  EXPECT_EQ(stats.tenants.at(beta->id()).slot_seconds_held,
            0.0066375924321732949);
}

TEST(OneDeviceScheduleGoldenTest, RollingAdmission) {
  const GoldenRun golden[7] = {
      {19, 4, 0, 6.291720670572916e-05, 0, false, 0},
      {86, 4, 8.7593476236979173e-05, 0.00016477478358783144,
       8.7593476236979173e-05, false, 0},
      {1, 2, 0, 4.0266024029356064e-05, 0, true, 0},
      {0, 0, 0, 0, 0, true, 0},
      {0, 4, 0, 5.636507936507937e-06, 0, true, 0},
      {86, 4, 0.00016477478358783144, 0.00024195609093868371,
       0.00016477478358783144, false, 0},
      {19, 4, 0, 8.7593476236979173e-05, 0, true, 0}};
  ExpectGoldenSchedule(AdmissionMode::kRolling, golden,
                       0.00024195609093868371);
}

TEST(OneDeviceScheduleGoldenTest, BarrierWaves) {
  const GoldenRun golden[7] = {
      {19, 4, 0, 6.291720670572916e-05, 0, false, 1},
      {86, 4, 6.291720670572916e-05, 0.00014009851405658144,
       6.291720670572916e-05, false, 2},
      {1, 2, 0.00014009851405658144, 0.00018036453808593751,
       0.00014009851405658144, false, 3},
      {0, 0, 0.00014009851405658144, 0.00014009851405658144,
       0.00014009851405658144, false, 3},
      {0, 4, 0.00014009851405658144, 0.00014573502199308937,
       0.00014009851405658144, false, 3},
      {86, 4, 0.00018036453808593751, 0.00025754584543678978,
       0.00018036453808593751, false, 4},
      {19, 4, 0.00025754584543678978, 0.00034513932167376895,
       0.00025754584543678978, false, 5}};
  ExpectGoldenSchedule(AdmissionMode::kBarrierWaves, golden,
                       0.00034513932167376895);
}

// --------------------------------------------------------------------------
// Masked BatchEngine runs (the server's execution seam).
// --------------------------------------------------------------------------

TEST(BatchMaskTest, MaskSizeMismatchIsInvalidArgument) {
  PartitionedCorpus corpus = MakeCorpus(8, 4);
  BatchEngine::Options bopt;
  bopt.engine = GpuOptions();
  auto batch = BatchEngine::Create(&corpus, bopt);
  ASSERT_TRUE(batch.ok());
  auto run = (*batch)->Run(Task::kWordCount, std::vector<uint8_t>{1, 0});
  EXPECT_FALSE(run.ok());
}

}  // namespace
}  // namespace gtadoc
