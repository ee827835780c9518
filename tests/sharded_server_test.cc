#include "analytics/sharding.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "analytics/batch.h"
#include "analytics/server.h"
#include "analytics/task_kernel.h"
#include "datagen/datagen.h"
#include "gpu/platform.h"
#include "gtadoc/engine.h"
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

CorpusServer::Options ServerOptions(size_t num_devices, size_t replication,
                                    uint64_t budget = 0) {
  CorpusServer::Options opt;
  opt.engine = GpuOptions();
  opt.device_slot_budget = budget;
  opt.num_devices = num_devices;
  opt.replication = replication;
  return opt;
}

/// The mixed workload every identity test serves: a marker-selective
/// multi-query run, two non-selective corpus runs, and a Bloom
/// false-positive probe (when the fixture found one).
std::vector<CorpusServer::RunRequest> MixedRequests(const MarkerCorpus& mc) {
  std::vector<CorpusServer::RunRequest> requests;
  CorpusServer::RunRequest keyword;
  keyword.task = Task::kKeywordSearch;
  for (uint32_t m : mc.markers) keyword.query_sets.push_back({m});
  requests.push_back(keyword);

  CorpusServer::RunRequest word_count;
  word_count.task = Task::kWordCount;
  requests.push_back(word_count);

  CorpusServer::RunRequest index;
  index.task = Task::kInvertedIndex;
  requests.push_back(index);

  if (mc.false_positive != UINT32_MAX) {
    CorpusServer::RunRequest probe;
    probe.task = Task::kKeywordSearch;
    probe.query_words.push_back(mc.false_positive);
    requests.push_back(probe);
  }
  return requests;
}

// --------------------------------------------------------------------------
// ShardedCorpus topology and routing.
// --------------------------------------------------------------------------

TEST(ShardedCorpusTest, RoundRobinPlacementWithReplication) {
  MarkerCorpus mc = MakeMarkerCorpus(/*num_docs=*/7, /*relevant=*/2,
                                     /*num_markers=*/1);
  ShardedCorpus::Options opt;
  opt.num_devices = 3;
  opt.replication = 2;
  auto sharded = ShardedCorpus::Create(&mc.corpus, opt);
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();

  EXPECT_EQ((*sharded)->num_devices(), 3u);
  EXPECT_EQ((*sharded)->replication(), 2u);
  size_t placements = 0;
  for (uint32_t g = 0; g < 7; ++g) {
    const std::vector<uint32_t>& homes = (*sharded)->replicas(g);
    ASSERT_EQ(homes.size(), 2u) << "doc " << g;
    EXPECT_EQ(homes[0], g % 3) << "doc " << g;           // primary
    EXPECT_EQ(homes[1], (g + 1) % 3) << "doc " << g;     // next replica
  }
  // Device slices are index lists into the one global corpus (no grammar
  // copies), so per-device results carry global file bases and are
  // gather-ready.
  const PartitionedCorpus* global = (*sharded)->global_corpus();
  ASSERT_EQ(global, &mc.corpus);
  for (size_t d = 0; d < 3; ++d) {
    const std::vector<uint32_t>& docs = (*sharded)->device_docs(d);
    placements += docs.size();
    for (size_t i = 0; i < docs.size(); ++i) {
      const uint32_t g = docs[i];
      ASSERT_LT(g, global->partitions.size());
      if (i > 0) EXPECT_LT(docs[i - 1], g) << "device " << d;
      const std::vector<uint32_t>& homes = (*sharded)->replicas(g);
      EXPECT_NE(std::find(homes.begin(), homes.end(), d), homes.end())
          << "doc " << g << " listed on device " << d;
      // The global file base of document g is the file count before it.
      uint32_t files_before = 0;
      for (uint32_t p = 0; p < g; ++p) {
        files_before += global->partitions[p].num_files();
      }
      EXPECT_EQ(global->file_base[g], files_before) << "doc " << g;
    }
  }
  EXPECT_EQ(placements, 7u * 2u);
}

TEST(ShardedCorpusTest, RouteKeepsPrimaryOnTiesAndFollowsLoad) {
  MarkerCorpus mc = MakeMarkerCorpus(/*num_docs=*/4, /*relevant=*/1,
                                     /*num_markers=*/1);
  ShardedCorpus::Options opt;
  opt.num_devices = 2;
  opt.replication = 2;
  auto sharded = ShardedCorpus::Create(&mc.corpus, opt);
  ASSERT_TRUE(sharded.ok());

  // Idle group, unit weights: pure round-robin (ties keep the primary).
  ShardedCorpus::RoutePlan balanced = (*sharded)->Route({}, {}, {});
  EXPECT_EQ(balanced.doc_device[0], 0u);
  EXPECT_EQ(balanced.doc_device[1], 1u);
  EXPECT_EQ(balanced.doc_device[2], 0u);
  EXPECT_EQ(balanced.doc_device[3], 1u);
  EXPECT_EQ(balanced.device_documents[0], 2u);
  EXPECT_EQ(balanced.device_documents[1], 2u);

  // A heavily loaded device 0 pushes every replicated document to 1.
  ShardedCorpus::RoutePlan drained = (*sharded)->Route({}, {}, {100.0, 0.0});
  for (uint32_t g = 0; g < 4; ++g) {
    EXPECT_EQ(drained.doc_device[g], 1u) << "doc " << g;
  }

  // Masked documents route nowhere, and their devices get no mask bit.
  ShardedCorpus::RoutePlan masked =
      (*sharded)->Route({1, 0, 0, 0}, {}, {});
  EXPECT_EQ(masked.doc_device[0], 0u);
  for (uint32_t g = 1; g < 4; ++g) {
    EXPECT_EQ(masked.doc_device[g], ShardedCorpus::kUnrouted);
  }
  EXPECT_EQ(masked.device_documents[0], 1u);
  EXPECT_EQ(masked.device_documents[1], 0u);
}

// --------------------------------------------------------------------------
// Bit-identity: merged AND per-document results match the single-device
// serial server under every shard count and replication factor.
// --------------------------------------------------------------------------

TEST(ShardedServerTest, BitIdenticalToSingleDeviceAcrossShardsAndReplication) {
  MarkerCorpus mc = MakeMarkerCorpus(/*num_docs=*/12, /*relevant=*/4,
                                     /*num_markers=*/2);
  const std::vector<CorpusServer::RunRequest> requests = MixedRequests(mc);

  // The reference: the one-device serial server.
  auto baseline_server = CorpusServer::Create(&mc.corpus, ServerOptions(1, 1));
  ASSERT_TRUE(baseline_server.ok());
  auto baseline = SubmitAndServe(baseline_server->get(), requests,
                                 AdmissionMode::kBarrierWaves);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
  ASSERT_EQ(baseline->size(), requests.size());

  for (size_t num_devices : {2, 3, 4}) {
    for (size_t replication : {1, 2}) {
      SCOPED_TRACE("devices=" + std::to_string(num_devices) +
                   " replication=" + std::to_string(replication));
      auto server = CorpusServer::Create(
          &mc.corpus, ServerOptions(num_devices, replication));
      ASSERT_TRUE(server.ok());
      auto served = SubmitAndServe(server->get(), requests,
                                   AdmissionMode::kBarrierWaves);
      ASSERT_TRUE(served.ok()) << served.status().ToString();
      ASSERT_EQ(served->size(), baseline->size());

      for (size_t r = 0; r < served->size(); ++r) {
        const BatchEngine::BatchRun& sharded = (*served)[r].batch;
        const BatchEngine::BatchRun& reference = (*baseline)[r].batch;
        EXPECT_TRUE(sharded.merged.SameAs(reference.merged))
            << "run " << r << ": " << sharded.merged.Digest() << " vs "
            << reference.merged.Digest();
        ASSERT_EQ(sharded.documents.size(), reference.documents.size());
        for (size_t d = 0; d < sharded.documents.size(); ++d) {
          EXPECT_TRUE(
              sharded.documents[d].result.SameAs(reference.documents[d].result))
              << "run " << r << " doc " << d;
          EXPECT_EQ(sharded.documents[d].skipped,
                    reference.documents[d].skipped)
              << "run " << r << " doc " << d;
          EXPECT_EQ(sharded.documents[d].file_base,
                    reference.documents[d].file_base);
        }
        EXPECT_EQ(sharded.documents_skipped, reference.documents_skipped);
        EXPECT_EQ(sharded.mid_run_pool_growths, 0u);
      }
      // Aggregate document accounting matches the reference server too.
      EXPECT_EQ((*server)->stats().documents_executed,
                (*baseline_server)->stats().documents_executed);
      EXPECT_EQ((*server)->stats().documents_skipped,
                (*baseline_server)->stats().documents_skipped);
    }
  }
}

// --------------------------------------------------------------------------
// Bloom-driven routing: rejected shards receive no work at all.
// --------------------------------------------------------------------------

TEST(ShardedServerTest, BloomRejectedShardReceivesNoWork) {
  // Markers live only in documents 0 and 1; with 4 devices and round-robin
  // placement those are devices 0 and 1. Devices 2 and 3 hold only
  // documents whose root Blooms provably reject the query.
  MarkerCorpus mc = MakeMarkerCorpus(/*num_docs=*/8, /*relevant=*/2,
                                     /*num_markers=*/2);
  auto server = CorpusServer::Create(&mc.corpus, ServerOptions(4, 1));
  ASSERT_TRUE(server.ok());

  auto tenant = (*server)->OpenTenant({});
  ASSERT_TRUE(tenant.ok());
  CorpusServer::RunRequest request;
  request.task = Task::kKeywordSearch;
  for (uint32_t m : mc.markers) request.query_sets.push_back({m});
  auto submitted = tenant->Submit(request);
  ASSERT_TRUE(submitted.ok()) << submitted.status().ToString();
  ASSERT_TRUE(submitted->admitted());
  EXPECT_EQ(submitted->admission->documents_to_execute, 2u);
  EXPECT_EQ(submitted->admission->documents_skipped, 6u);

  auto served = submitted->ticket->Await();
  ASSERT_TRUE(served.ok()) << served.status().ToString();

  const CorpusServer::Stats& stats = (*server)->stats();
  ASSERT_EQ(stats.devices.size(), 4u);
  for (size_t d : {0, 1}) {
    EXPECT_EQ(stats.devices[d].runs_routed, 1u) << "device " << d;
    EXPECT_EQ(stats.devices[d].documents_executed, 1u) << "device " << d;
    EXPECT_GT(stats.devices[d].traversal_ops, 0u) << "device " << d;
  }
  // The witness: un-routed devices did NO work — no run, no upload, no
  // plan, no traversal, and never a slot reserved.
  for (size_t d : {2, 3}) {
    EXPECT_EQ(stats.devices[d].runs_routed, 0u) << "device " << d;
    EXPECT_EQ(stats.devices[d].documents_executed, 0u) << "device " << d;
    EXPECT_EQ(stats.devices[d].init_ops, 0u) << "device " << d;
    EXPECT_EQ(stats.devices[d].traversal_ops, 0u) << "device " << d;
    EXPECT_EQ(stats.devices[d].upload_seconds, 0.0) << "device " << d;
    EXPECT_EQ(stats.devices[d].peak_admitted_slots, 0u) << "device " << d;
    EXPECT_EQ(stats.devices[d].slot_seconds_held, 0.0) << "device " << d;
  }
  // Only routed devices ran, and only their shard durations are non-zero.
  EXPECT_EQ(stats.served, 1u);
  const CorpusServer::ServedRun& run = *served;
  ASSERT_EQ(run.device_durations.size(), 4u);
  EXPECT_GT(run.device_durations[0], 0.0);
  EXPECT_GT(run.device_durations[1], 0.0);
  EXPECT_EQ(run.device_durations[2], 0.0);
  EXPECT_EQ(run.device_durations[3], 0.0);
  EXPECT_GT(run.gather_seconds, 0.0);
  const double longest =
      std::max(run.device_durations[0], run.device_durations[1]);
  EXPECT_DOUBLE_EQ(run.completion_seconds,
                   run.start_seconds + longest + run.gather_seconds);
}

// Replica selection balances against the runs admitted and not yet
// completed: a run's routed load leaves its device when the run completes,
// so a device that was busy early wins the primary's tie again once idle.
TEST(ShardedServerTest, CompletedRunsReleaseTheirRouteLoad) {
  // The marker lives only in document 0, whose replicas are devices 0
  // (primary) and 1.
  MarkerCorpus mc = MakeMarkerCorpus(/*num_docs=*/4, /*relevant=*/1,
                                     /*num_markers=*/1);
  auto server = CorpusServer::Create(&mc.corpus, ServerOptions(2, 2));
  ASSERT_TRUE(server.ok());
  auto tenant = (*server)->OpenTenant({});
  ASSERT_TRUE(tenant.ok());
  CorpusServer::RunRequest request;
  request.task = Task::kKeywordSearch;
  request.query_words = {mc.markers[0]};

  // Submits `n` runs, serves them all, and returns how many runs each
  // device was routed meanwhile.
  std::vector<uint64_t> routed_before(2, 0);
  auto serve = [&](size_t n) -> std::vector<uint64_t> {
    std::vector<CorpusServer::RunTicket> tickets;
    for (size_t i = 0; i < n; ++i) {
      auto submitted = tenant->Submit(request);
      EXPECT_TRUE(submitted.ok() && submitted->admitted());
      if (!submitted.ok() || !submitted->admitted()) return {};
      EXPECT_EQ(submitted->admission->documents_to_execute, 1u);
      tickets.push_back(*submitted->ticket);
    }
    auto served = ServeAndAwait(server->get(), tickets,
                                AdmissionMode::kRolling);
    EXPECT_TRUE(served.ok()) << served.status().ToString();
    std::vector<uint64_t> routed(2);
    for (size_t d = 0; d < 2; ++d) {
      const uint64_t total = (*server)->stats().devices[d].runs_routed;
      routed[d] = total - routed_before[d];
      routed_before[d] = total;
    }
    return routed;
  };

  // An idle group: the primary keeps the tie.
  EXPECT_EQ(serve(1), (std::vector<uint64_t>{1, 0}));
  // After that run completed the group is idle again, so the primary wins
  // again: the early run's load did not stay on device 0.
  EXPECT_EQ(serve(1), (std::vector<uint64_t>{1, 0}));
  // Two runs admitted together: the second sees the first's standing load
  // and takes the other replica.
  EXPECT_EQ(serve(2), (std::vector<uint64_t>{1, 1}));
  EXPECT_EQ(serve(1), (std::vector<uint64_t>{1, 0}));
}

TEST(ShardedServerTest, BloomFalsePositiveShardExecutesAndStaysCorrect) {
  MarkerCorpus mc = MakeMarkerCorpus(/*num_docs=*/12, /*relevant=*/4,
                                     /*num_markers=*/2);
  ASSERT_NE(mc.false_positive, UINT32_MAX)
      << "no Bloom-false-positive candidate found for this seed";

  CorpusServer::RunRequest probe;
  probe.task = Task::kKeywordSearch;
  probe.query_words.push_back(mc.false_positive);

  // The fixture only guarantees that document `relevant` (= 4) FALSELY
  // passes the probe word's Bloom test; other marker-free documents may
  // pass or reject depending on the seed. Derive the ground-truth execute
  // set the same way the server does, so the per-device assertions below
  // are exact rather than seed-lucky.
  GTadocEngine::Options query = GpuOptions();
  query.query_words = probe.query_words;
  const TaskKernel& kernel = **TaskRegistry::Get(Task::kKeywordSearch);
  std::vector<uint8_t> mask = BloomExecuteMask(
      mc.corpus, kernel, GTadocEngine::InputFromOptions(query));
  if (mask.empty()) mask.assign(mc.corpus.partitions.size(), 1);
  ASSERT_EQ(mask[4], 1u) << "the false-positive document must pass";

  auto baseline_server =
      CorpusServer::Create(&mc.corpus, ServerOptions(1, 1));
  ASSERT_TRUE(baseline_server.ok());
  auto baseline = SubmitAndServe(baseline_server->get(), {probe},
                                 AdmissionMode::kBarrierWaves);
  ASSERT_TRUE(baseline.ok());

  auto server = CorpusServer::Create(&mc.corpus, ServerOptions(3, 1));
  ASSERT_TRUE(server.ok());
  auto tenant = (*server)->OpenTenant({});
  ASSERT_TRUE(tenant.ok());
  auto submitted = tenant->Submit(probe);
  ASSERT_TRUE(submitted.ok());
  ASSERT_TRUE(submitted->admitted());
  uint32_t expected_execute = 0;
  for (uint8_t e : mask) expected_execute += e;
  EXPECT_EQ(submitted->admission->documents_to_execute, expected_execute);
  auto served = submitted->ticket->Await();
  ASSERT_TRUE(served.ok());

  // The false-positive document executed on its round-robin device (doc 4
  // -> device 1 over 3 devices), contributed NOTHING — it passed the Bloom
  // without containing the word — and every result still matches the
  // unsharded server bit for bit.
  const CorpusServer::Stats& stats = (*server)->stats();
  ASSERT_EQ(stats.devices.size(), 3u);
  std::vector<uint64_t> expected_per_device(3, 0);
  for (uint32_t g = 0; g < 12; ++g) {
    if (mask[g] != 0) ++expected_per_device[g % 3];
  }
  for (size_t d = 0; d < 3; ++d) {
    EXPECT_EQ(stats.devices[d].documents_executed, expected_per_device[d])
        << "device " << d;
  }
  EXPECT_GE(stats.devices[4 % 3].documents_executed, 1u);
  const BatchEngine::BatchRun& run = served->batch;
  EXPECT_FALSE(run.documents[4].skipped);
  EXPECT_TRUE(run.documents[4].result.keyword_search.empty());
  EXPECT_TRUE(run.merged.SameAs((*baseline)[0].batch.merged));
  for (size_t d = 0; d < 12; ++d) {
    EXPECT_TRUE(run.documents[d].result.SameAs(
        (*baseline)[0].batch.documents[d].result))
        << "doc " << d;
  }
}

// --------------------------------------------------------------------------
// Per-device budgets, rolling release, and cross-shard quotas.
// --------------------------------------------------------------------------

TEST(ShardedServerTest, PerDeviceBudgetNeverExceededUnderRollingAdmission) {
  MarkerCorpus mc = MakeMarkerCorpus(/*num_docs=*/8, /*relevant=*/8,
                                     /*num_markers=*/2);
  CorpusServer::RunRequest request;
  request.task = Task::kInvertedIndex;

  // Sizing pass: one run on an unmetered sharded server exposes the
  // per-device footprint through each device's reservation peak.
  auto sizing = CorpusServer::Create(&mc.corpus, ServerOptions(2, 1));
  ASSERT_TRUE(sizing.ok());
  ASSERT_TRUE(SubmitAndServe(sizing->get(), {request},
                             AdmissionMode::kRolling).ok());
  uint64_t max_device_footprint = 0;
  for (const auto& device : (*sizing)->stats().devices) {
    max_device_footprint =
        std::max(max_device_footprint, device.peak_admitted_slots);
  }
  ASSERT_GT(max_device_footprint, 0u);

  // A budget of 1.5x one run's per-device share admits at most one run per
  // device at a time: three identical runs must serialize, and no device's
  // peak may ever exceed its budget.
  const uint64_t budget = max_device_footprint * 3 / 2;
  auto server =
      CorpusServer::Create(&mc.corpus, ServerOptions(2, 1, budget));
  ASSERT_TRUE(server.ok());
  auto tenant = (*server)->OpenTenant({});
  ASSERT_TRUE(tenant.ok());
  std::vector<CorpusServer::RunTicket> tickets;
  for (int i = 0; i < 3; ++i) {
    auto submitted = tenant->Submit(request);
    ASSERT_TRUE(submitted.ok());
    ASSERT_TRUE(submitted->admitted())
        << submitted->rejection->detail;
    tickets.push_back(*submitted->ticket);
  }
  ASSERT_TRUE((*server)->ServeUntilIdle().ok());

  const CorpusServer::Stats& stats = (*server)->stats();
  ASSERT_EQ(stats.devices.size(), 2u);
  for (const auto& device : stats.devices) {
    EXPECT_LE(device.peak_admitted_slots, budget);
    EXPECT_GT(device.peak_admitted_slots, 0u);
  }
  // Serialized: the later runs waited on the simulated timeline.
  EXPECT_GT(stats.queue_wait_seconds, 0.0);
  EXPECT_EQ(stats.served, 3u);
  // Per-device slot-second slices add up to the tenant aggregate.
  const CorpusServer::TenantStats& tstats = stats.tenants.at(tenant->id());
  ASSERT_EQ(tstats.slot_seconds_per_device.size(), 2u);
  EXPECT_NEAR(
      tstats.slot_seconds_per_device[0] + tstats.slot_seconds_per_device[1],
      tstats.slot_seconds_held, 1e-9);
}

TEST(ShardedServerTest, TenantQuotaSpansShards) {
  MarkerCorpus mc = MakeMarkerCorpus(/*num_docs=*/8, /*relevant=*/8,
                                     /*num_markers=*/2);
  CorpusServer::RunRequest request;
  request.task = Task::kInvertedIndex;

  auto sizing = CorpusServer::Create(&mc.corpus, ServerOptions(4, 1));
  ASSERT_TRUE(sizing.ok());
  auto sizing_tenant = (*sizing)->OpenTenant({});
  ASSERT_TRUE(sizing_tenant.ok());
  auto sized = sizing_tenant->Submit(request);
  ASSERT_TRUE(sized.ok());
  ASSERT_TRUE(sized->admitted());
  const uint64_t total_footprint = sized->admission->footprint_slots;
  ASSERT_GT(total_footprint, 0u);

  // Generous per-device budget; the tenant's quota is one slot short of
  // the run's TOTAL footprint, so the cross-shard sum — not any single
  // device's share — is what rejects it.
  auto server = CorpusServer::Create(
      &mc.corpus, ServerOptions(4, 1, total_footprint));
  ASSERT_TRUE(server.ok());
  CorpusServer::TenantOptions topt;
  topt.name = "quota-bound";
  topt.slot_quota = total_footprint - 1;
  auto tenant = (*server)->OpenTenant(topt);
  ASSERT_TRUE(tenant.ok());

  auto submitted = tenant->Submit(request);
  ASSERT_TRUE(submitted.ok());
  ASSERT_FALSE(submitted->admitted());
  EXPECT_EQ(submitted->rejection->reason,
            CorpusServer::Rejection::Reason::kOverQuota);
  EXPECT_EQ(submitted->rejection->requested_slots, total_footprint);

  // At exactly the total footprint the same run admits and serves.
  CorpusServer::TenantOptions fits;
  fits.name = "quota-fits";
  fits.slot_quota = total_footprint;
  auto tenant2 = (*server)->OpenTenant(fits);
  ASSERT_TRUE(tenant2.ok());
  auto admitted = tenant2->Submit(request);
  ASSERT_TRUE(admitted.ok());
  ASSERT_TRUE(admitted->admitted());
  auto run = admitted->ticket->Await();
  ASSERT_TRUE(run.ok()) << run.status().ToString();

  // OpenTenant bounds quotas by the GROUP capacity (4 devices x budget).
  CorpusServer::TenantOptions too_big;
  too_big.slot_quota = total_footprint * 4 + 1;
  EXPECT_FALSE((*server)->OpenTenant(too_big).ok());
  CorpusServer::TenantOptions group_wide;
  group_wide.slot_quota = total_footprint * 4;
  EXPECT_TRUE((*server)->OpenTenant(group_wide).ok());
}

TEST(ShardedServerTest, SingleDeviceStatsMirrorAggregates) {
  MarkerCorpus mc = MakeMarkerCorpus(/*num_docs=*/6, /*relevant=*/2,
                                     /*num_markers=*/1);
  auto server = CorpusServer::Create(&mc.corpus, ServerOptions(1, 1));
  ASSERT_TRUE(server.ok());
  auto tenant = (*server)->OpenTenant({});
  ASSERT_TRUE(tenant.ok());
  CorpusServer::RunRequest request;
  request.task = Task::kWordCount;
  auto submitted = tenant->Submit(request);
  ASSERT_TRUE(submitted.ok());
  ASSERT_TRUE(submitted->admitted());
  ASSERT_TRUE((*server)->ServeUntilIdle().ok());

  const CorpusServer::Stats& stats = (*server)->stats();
  ASSERT_EQ(stats.devices.size(), 1u);
  EXPECT_EQ(stats.devices[0].runs_routed, 1u);
  EXPECT_EQ(stats.devices[0].documents_executed, stats.documents_executed);
  EXPECT_EQ(stats.devices[0].peak_admitted_slots, stats.peak_admitted_slots);
  EXPECT_GT(stats.devices[0].busy_seconds, 0.0);
  EXPECT_GT(stats.makespan_seconds, 0.0);
}

}  // namespace
}  // namespace gtadoc
