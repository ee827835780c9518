#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <utility>
#include <vector>

#include "format/dag.h"
#include "gpu/platform.h"
#include "gtadoc/engine.h"
#include "sequitur/compressor.h"

namespace gtadoc {
namespace {

/// One Run's simulated init bill and device counter deltas.
struct BindCharge {
  double init_seconds;
  double upload_seconds;
  uint64_t kernels_launched;
  uint64_t total_ops;
  uint64_t device_allocs;
  uint64_t h2d_bytes;
};

using Files = std::vector<std::vector<uint32_t>>;

/// Seeded documents of different shapes. Each shape sets the file count, the
/// file length range and the vocabulary; std::mt19937's raw output is fully
/// specified, so the seed names the same sweep everywhere.
std::vector<Grammar> SweepDocuments() {
  struct Shape {
    uint32_t files, min_len, max_len, vocab;
  };
  const Shape shapes[] = {{3, 200, 300, 20}, {2, 50, 80, 8},
                          {6, 400, 500, 40}, {3, 150, 250, 15},
                          {8, 100, 120, 6},  {1, 3000, 3600, 30},
                          {1, 2100, 2100, 300}};
  std::mt19937 rng(16);
  std::vector<Grammar> docs;
  for (const Shape& s : shapes) {
    Files files(s.files);
    for (auto& file : files) {
      const uint32_t len = s.min_len + rng() % (s.max_len - s.min_len + 1);
      for (uint32_t i = 0; i < len; ++i) file.push_back(rng() % s.vocab);
    }
    auto g = CompressTokenStreams(files, s.vocab);
    EXPECT_TRUE(g.ok()) << g.status().ToString();
    docs.push_back(std::move(*g));
  }
  return docs;
}

/// Bind order over the sweep documents: document 5 is bound twice in a row
/// (equal sizes never grow the arena).
const size_t kBindOrder[] = {0, 1, 2, 3, 4, 5, 5, 6};

/// Binds the sweep documents in kBindOrder onto one engine (Create, then
/// Rebind) and runs four tasks on each: one global, one per-file top-down,
/// one per-file bottom-up and one sequence task. Odd bind steps are first
/// probed with PlanOnly, so their bind happens inside planning.
std::vector<BindCharge> RunSweep(bool charge_pcie) {
  const std::vector<Grammar> docs = SweepDocuments();
  std::vector<PreparedDocument> prepared;
  for (const Grammar& g : docs) {
    auto p = PreparedDocument::Prepare(g);
    EXPECT_TRUE(p.ok()) << p.status().ToString();
    prepared.push_back(std::move(*p));
  }
  GTadocEngine::Options opt;
  opt.gpu = gpu::PascalPlatform().gpu;
  opt.host_workers = 1;
  opt.charge_pcie = charge_pcie;
  opt.ngram_len = 3;
  std::vector<BindCharge> charges;
  auto created = GTadocEngine::Create(&docs[0], &prepared[0], opt);
  if (!created.ok()) {
    ADD_FAILURE() << created.status().ToString();
    return charges;
  }
  GTadocEngine& engine = **created;
  // Appends the counters moved since `before`, with the given seconds.
  auto record = [&](const gpu::DeviceStats& before, double init,
                    double upload) {
    const gpu::DeviceStats& after = engine.device()->stats();
    charges.push_back({init, upload,
                       after.kernels_launched - before.kernels_launched,
                       after.total_ops - before.total_ops,
                       after.device_allocs - before.device_allocs,
                       after.h2d_bytes - before.h2d_bytes});
  };

  const std::pair<Task, TraversalStrategy> runs[] = {
      {Task::kWordCount, TraversalStrategy::kAuto},
      {Task::kInvertedIndex, TraversalStrategy::kTopDown},
      {Task::kTermVector, TraversalStrategy::kBottomUp},
      {Task::kSequenceCount, TraversalStrategy::kAuto}};
  for (size_t i = 0; i < sizeof(kBindOrder) / sizeof(kBindOrder[0]); ++i) {
    const size_t d = kBindOrder[i];
    if (i > 0) engine.Rebind(&docs[d], &prepared[d]);
    if (i % 2 == 1) {
      const gpu::DeviceStats before = engine.device()->stats();
      EXPECT_TRUE(engine.PlanOnly(Task::kWordCount).ok());
      record(before, engine.device()->SimSeconds(), 0);
    }
    for (const auto& [task, strategy] : runs) {
      const gpu::DeviceStats before = engine.device()->stats();
      auto run = engine.Run(task, strategy);
      if (!run.ok()) {
        ADD_FAILURE() << run.status().ToString();
        return charges;
      }
      record(before, run->timing.init_seconds, run->timing.upload_seconds);
    }
  }
  return charges;
}

// Pinned figures of the sweep: one row per Run, plus one row per PlanOnly
// probe (its init field holds the probe's own clock, which restarts after
// the bind; its upload field is 0). Binds that grow the modelled grammar
// arena: documents 0 (Create), 2 (in Run), 5 (first bind, in PlanOnly) and
// 6 (in PlanOnly; only its root length exceeds the high-water mark).
// Binds that fit and charge no allocation: documents 1 and 3 (in
// PlanOnly), 4 and the second bind of 5 (in Run). The doubles are printed
// with %.17g, so they compare exactly.
const BindCharge kGoldenPcieOff[] = {
    {2.7709090909090909e-05, 0, 8, 4188, 2, 0},
    {2.7709090909090909e-05, 0, 7, 5734, 1, 0},
    {3.288347727272727e-05, 0, 9, 7108, 1, 0},
    {3.6591431818181814e-05, 0, 11, 22874, 1, 0},
    {0, 0, 4, 292, 0, 0},
    {5.6295454545454545e-06, 0, 4, 400, 0, 0},
    {5.6295454545454545e-06, 0, 7, 827, 0, 0},
    {1.0513848484848485e-05, 0, 9, 1138, 0, 0},
    {1.4184871212121212e-05, 0, 11, 2910, 0, 0},
    {1.770909090909091e-05, 0, 8, 13756, 1, 0},
    {2.7709090909090909e-05, 0, 7, 21217, 1, 0},
    {2.3647621212121212e-05, 0, 9, 23240, 0, 0},
    {3.7412393939393937e-05, 0, 11, 74203, 1, 0},
    {0, 0, 4, 1300, 0, 0},
    {7.7090909090909091e-06, 0, 4, 1536, 0, 0},
    {7.7090909090909091e-06, 0, 7, 3897, 0, 0},
    {1.2781378787878788e-05, 0, 9, 5012, 0, 0},
    {1.6477969696969696e-05, 0, 11, 14414, 0, 0},
    {7.7090909090909091e-06, 0, 9, 2783, 0, 0},
    {7.7090909090909091e-06, 0, 8, 5345, 0, 0},
    {1.4048037878787878e-05, 0, 11, 7885, 0, 0},
    {1.7716219696969694e-05, 0, 12, 19997, 0, 0},
    {0, 0, 4, 7828, 1, 0},
    {1.770909090909091e-05, 0, 4, 7850, 0, 0},
    {1.770909090909091e-05, 0, 7, 15802, 0, 0},
    {2.3887151515151517e-05, 0, 9, 28811, 0, 0},
    {2.7620674242424245e-05, 0, 11, 93092, 0, 0},
    {7.7090909090909091e-06, 0, 8, 15678, 0, 0},
    {7.7090909090909091e-06, 0, 7, 15802, 0, 0},
    {7.7090909090909091e-06, 0, 5, 25939, 0, 0},
    {1.1351704545454545e-05, 0, 7, 89339, 0, 0},
    {0, 0, 4, 8128, 1, 0},
    {1.770909090909091e-05, 0, 3, 3754, 0, 0},
    {1.770909090909091e-05, 0, 6, 13970, 0, 0},
    {2.141987878787879e-05, 0, 7, 12558, 0, 0},
    {2.4694878787878788e-05, 0, 9, 49432, 0, 0},
};
const BindCharge kGoldenPcieOn[] = {
    {2.8612424242424241e-05, 9.033333333333333e-07, 8, 4188, 2, 10840},
    {2.8612424242424241e-05, 9.033333333333333e-07, 7, 5734, 1, 0},
    {3.3786810606060606e-05, 9.033333333333333e-07, 9, 7108, 1, 0},
    {3.7494765151515149e-05, 9.033333333333333e-07, 11, 22874, 1, 0},
    {0, 0, 4, 292, 0, 1856},
    {5.7842121212121215e-06, 1.5466666666666668e-07, 4, 400, 0, 0},
    {5.7842121212121215e-06, 1.5466666666666668e-07, 7, 827, 0, 0},
    {1.0668515151515152e-05, 1.5466666666666668e-07, 9, 1138, 0, 0},
    {1.4339537878787879e-05, 1.5466666666666668e-07, 11, 2910, 0, 0},
    {2.0615757575757577e-05, 2.9066666666666666e-06, 8, 13756, 1, 34880},
    {3.0615757575757576e-05, 2.9066666666666666e-06, 7, 21217, 1, 0},
    {2.6554287878787879e-05, 2.9066666666666666e-06, 9, 23240, 0, 0},
    {4.0319060606060607e-05, 2.9066666666666666e-06, 11, 74203, 1, 0},
    {0, 0, 4, 1300, 0, 7632},
    {8.3450909090909077e-06, 6.3600000000000003e-07, 4, 1536, 0, 0},
    {8.3450909090909077e-06, 6.3600000000000003e-07, 7, 3897, 0, 0},
    {1.3417378787878786e-05, 6.3600000000000003e-07, 9, 5012, 0, 0},
    {1.7113969696969694e-05, 6.3600000000000003e-07, 11, 14414, 0, 0},
    {8.4504242424242416e-06, 7.413333333333333e-07, 9, 2783, 0, 8896},
    {8.4504242424242416e-06, 7.413333333333333e-07, 8, 5345, 0, 0},
    {1.4789371212121211e-05, 7.413333333333333e-07, 11, 7885, 0, 0},
    {1.8457553030303026e-05, 7.413333333333333e-07, 12, 19997, 0, 0},
    {0, 0, 4, 7828, 1, 41556},
    {2.1172090909090914e-05, 3.4630000000000001e-06, 4, 7850, 0, 0},
    {2.1172090909090914e-05, 3.4630000000000001e-06, 7, 15802, 0, 0},
    {2.7350151515151521e-05, 3.4630000000000001e-06, 9, 28811, 0, 0},
    {3.1083674242424249e-05, 3.4630000000000001e-06, 11, 93092, 0, 0},
    {1.1172090909090908e-05, 3.4630000000000001e-06, 8, 15678, 0, 41556},
    {1.1172090909090908e-05, 3.4630000000000001e-06, 7, 15802, 0, 0},
    {1.1172090909090908e-05, 3.4630000000000001e-06, 5, 25939, 0, 0},
    {1.4814704545454544e-05, 3.4630000000000001e-06, 7, 89339, 0, 0},
    {0, 0, 4, 8128, 1, 13028},
    {1.8794757575757575e-05, 1.0856666666666666e-06, 3, 3754, 0, 0},
    {1.8794757575757575e-05, 1.0856666666666666e-06, 6, 13970, 0, 0},
    {2.2505545454545455e-05, 1.0856666666666666e-06, 7, 12558, 0, 0},
    {2.5780545454545457e-05, 1.0856666666666666e-06, 9, 49432, 0, 0},
    
};

void ExpectCharges(const std::vector<BindCharge>& got,
                   const BindCharge* want, size_t size) {
  ASSERT_EQ(got.size(), size);
  for (size_t i = 0; i < size; ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(got[i].init_seconds, want[i].init_seconds);
    EXPECT_EQ(got[i].upload_seconds, want[i].upload_seconds);
    EXPECT_EQ(got[i].kernels_launched, want[i].kernels_launched);
    EXPECT_EQ(got[i].total_ops, want[i].total_ops);
    EXPECT_EQ(got[i].device_allocs, want[i].device_allocs);
    EXPECT_EQ(got[i].h2d_bytes, want[i].h2d_bytes);
  }
}

// The device-grammar bind's simulated bill (arena allocation on growth, the
// optional H2D upload and the four root-scan launches), together with every
// Run's init and traversal charges, over a sweep that rebinds one engine
// across documents of different shapes.
TEST(BindChargeGoldenTest, PcieOff) {
  ExpectCharges(RunSweep(false), kGoldenPcieOff,
                sizeof(kGoldenPcieOff) / sizeof(kGoldenPcieOff[0]));
}

TEST(BindChargeGoldenTest, PcieOn) {
  ExpectCharges(RunSweep(true), kGoldenPcieOn,
                sizeof(kGoldenPcieOn) / sizeof(kGoldenPcieOn[0]));
}

}  // namespace
}  // namespace gtadoc
