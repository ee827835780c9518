// Micro-benchmarks (google-benchmark): wall-clock throughput of the
// substrate pieces — Sequitur compression, the thread-safe hash table, the
// n-gram table, parallel scan/sort primitives, the memory pool, one-worker
// kernel launches, and the host-side n-gram row orders of the sequence
// tasks. These measure the real host implementation (not the simulated
// clock).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <random>

#include "analytics/results.h"
#include "analytics/task_kernel.h"
#include "common/ngram_rows.h"
#include "common/random.h"
#include "datagen/datagen.h"
#include "format/dag.h"
#include "gpu/device.h"
#include "gpu/hash_table.h"
#include "gpu/memory_pool.h"
#include "gpu/ngram_table.h"
#include "gpu/platform.h"
#include "gpu/primitives.h"
#include "sequitur/compressor.h"

namespace gtadoc {
namespace {

void BM_SequiturCompress(benchmark::State& state) {
  DatasetSpec spec = DatasetE();
  spec.total_tokens = state.range(0);
  TokenizedCorpus tokens = GenerateTokens(spec);
  for (auto _ : state) {
    auto g = CompressTokens(tokens);
    benchmark::DoNotOptimize(g->rules.size());
  }
  state.SetItemsProcessed(state.iterations() * tokens.total_tokens());
}
BENCHMARK(BM_SequiturCompress)->Arg(10000)->Arg(50000)->Arg(200000);

void BM_GrammarExpand(benchmark::State& state) {
  DatasetSpec spec = DatasetE();
  spec.total_tokens = state.range(0);
  TokenizedCorpus tokens = GenerateTokens(spec);
  auto g = CompressTokens(tokens);
  for (auto _ : state) {
    auto files = ExpandFiles(*g);
    benchmark::DoNotOptimize(files->size());
  }
  state.SetItemsProcessed(state.iterations() * tokens.total_tokens());
}
BENCHMARK(BM_GrammarExpand)->Arg(50000)->Arg(200000);

void BM_HashTableInsert(benchmark::State& state) {
  gpu::Device device(gpu::VoltaPlatform().gpu, 1);
  Rng rng(7);
  std::vector<uint64_t> keys(1 << 16);
  for (auto& k : keys) k = rng.Uniform(1 << 14);
  for (auto _ : state) {
    state.PauseTiming();
    gpu::GpuHashTable table(
        &device, {.num_entries = 1u << 14, .max_nodes = (1u << 14) + 64,
                  .lock_mode = static_cast<gpu::LockMode>(state.range(0))});
    state.ResumeTiming();
    gpu::ThreadCtx ctx(0, 1);
    for (uint64_t k : keys) {
      benchmark::DoNotOptimize(table.AddOrInsert(ctx, k, 1));
    }
  }
  state.SetItemsProcessed(state.iterations() * keys.size());
}
BENCHMARK(BM_HashTableInsert)->Arg(0)->Arg(1)->Arg(2);

void BM_NgramTableInsert(benchmark::State& state) {
  gpu::Device device(gpu::VoltaPlatform().gpu, 1);
  Rng rng(9);
  const uint32_t l = 3;
  std::vector<uint32_t> grams((1 << 15) * l);
  for (auto& w : grams) w = static_cast<uint32_t>(rng.Uniform(64));
  for (auto _ : state) {
    state.PauseTiming();
    gpu::GpuNgramTable table(
        &device,
        {.num_entries = 1u << 14, .max_nodes = (1u << 15) + 64, .ngram_len = l});
    state.ResumeTiming();
    gpu::ThreadCtx ctx(0, 1);
    for (size_t i = 0; i + l <= grams.size(); i += l) {
      benchmark::DoNotOptimize(table.AddOrInsert(ctx, 0, &grams[i], 1));
    }
  }
  state.SetItemsProcessed(state.iterations() * (grams.size() / l));
}
BENCHMARK(BM_NgramTableInsert);

void BM_DeviceSort(benchmark::State& state) {
  gpu::Device device(gpu::VoltaPlatform().gpu, 0);
  Rng rng(4);
  std::vector<std::pair<uint64_t, uint64_t>> base(state.range(0));
  for (auto& p : base) p = {rng.NextU64(), rng.NextU64()};
  for (auto _ : state) {
    auto pairs = base;
    gpu::DeviceSortPairs(&device, &pairs);
    benchmark::DoNotOptimize(pairs.front());
  }
  state.SetItemsProcessed(state.iterations() * base.size());
}
BENCHMARK(BM_DeviceSort)->Arg(1 << 12)->Arg(1 << 16);

void BM_MemoryPoolAlloc(benchmark::State& state) {
  gpu::Device device(gpu::VoltaPlatform().gpu, 1);
  for (auto _ : state) {
    state.PauseTiming();
    gpu::MemoryPool pool(&device, 1 << 20);
    state.ResumeTiming();
    gpu::ThreadCtx ctx(0, 1);
    for (int i = 0; i < 1 << 16; ++i) {
      benchmark::DoNotOptimize(pool.AtomicAlloc(ctx, 8));
    }
  }
  state.SetItemsProcessed(state.iterations() * (1 << 16));
}
BENCHMARK(BM_MemoryPoolAlloc);

void BM_DeviceLaunchOneWorker(benchmark::State& state) {
  gpu::Device device(gpu::VoltaPlatform().gpu, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(device.Launch(
        "noop", 256, [](gpu::ThreadCtx& ctx) { ctx.Charge(1); }));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DeviceLaunchOneWorker);

/// One document's l = 3 windows over 4 zipfian files of `tokens` words in
/// all, one row per window with count 1, as the CPU engine's walk emits
/// them before its collapse.
NgramRows DocumentWindows(uint64_t tokens, uint64_t seed) {
  constexpr uint32_t kFiles = 4;
  constexpr uint32_t l = 3;
  ZipfSampler words(5000, 0.9, seed);
  NgramRows rows;
  rows.ngram_len = l;
  std::vector<uint32_t> window;
  for (uint32_t f = 0; f < kFiles; ++f) {
    window.clear();
    for (uint64_t i = 0; i < tokens / kFiles; ++i) {
      window.push_back(static_cast<uint32_t>(words.Next()));
      if (window.size() > l) window.erase(window.begin());
      if (window.size() == l) rows.Append(f, window.data(), 1);
    }
  }
  return rows;
}

void BM_SortByFileGram(benchmark::State& state) {
  const NgramRows windows = DocumentWindows(state.range(0), 1);
  for (auto _ : state) {
    NgramRows rows = windows;
    rows.SortByFileGram();
    benchmark::DoNotOptimize(rows.size());
  }
  state.SetItemsProcessed(state.iterations() * windows.size());
}
BENCHMARK(BM_SortByFileGram)->Arg(10000)->Arg(40000);

/// Appends one l-gram row per (file, gram) of `doc` in shuffled order, as a
/// device table's drain returns them, then groups them as one document's
/// rankedInvertedIndex result.
AnalyticsResult RankedDocument(NgramRows doc, uint64_t seed) {
  doc.SortByFileGram();
  std::vector<size_t> order(doc.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::shuffle(order.begin(), order.end(), std::mt19937_64(seed));
  NgramRows drained;
  drained.ngram_len = doc.ngram_len;
  for (size_t i : order) {
    drained.Append(doc.files[i], doc.gram(i), doc.counts[i]);
  }

  class NoCharges : public AssemblyOps {
   public:
    void ChargeUpdates(uint64_t) override {}
    void ChargeSort(uint64_t) override {}
    void ChargeGroupSort(uint64_t, uint64_t) override {}
    void SortPairs(std::vector<std::pair<uint64_t, uint64_t>>*) override {}
    void SelectTopK(
        uint32_t,
        std::vector<std::vector<std::pair<uint32_t, uint64_t>>>*) override {}
  } ops;
  TaskInput input;
  input.ngram_len = doc.ngram_len;
  AnalyticsResult out;
  out.task = Task::kRankedInvertedIndex;
  TaskRegistry::Find(Task::kRankedInvertedIndex)
      ->AssembleSequence(input, std::move(drained), &ops, &out);
  return out;
}

void BM_RankedFinalizeMerge(benchmark::State& state) {
  constexpr uint32_t kDocs = 16;
  AnalyticsResult merged;
  merged.task = Task::kRankedInvertedIndex;
  uint64_t merge_ops = 0;
  for (uint32_t d = 0; d < kDocs; ++d) {
    const AnalyticsResult doc =
        RankedDocument(DocumentWindows(state.range(0), 100 + d), d);
    MergeResult(doc, 4 * d, &merged, &merge_ops);
  }
  for (auto _ : state) {
    AnalyticsResult acc = merged;
    FinalizeMergedResult(&acc, &merge_ops);
    benchmark::DoNotOptimize(acc.ranked_inverted_index.size());
  }
  state.SetItemsProcessed(state.iterations() *
                          merged.ranked_inverted_index.postings.size());
}
BENCHMARK(BM_RankedFinalizeMerge)->Arg(10000);

}  // namespace
}  // namespace gtadoc

BENCHMARK_MAIN();
