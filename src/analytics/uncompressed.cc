#include "analytics/uncompressed.h"

#include <algorithm>

#include "analytics/run_plan.h"
#include "common/logging.h"
#include "common/timer.h"
#include "gpu/hash_table.h"
#include "gpu/ngram_table.h"
#include "gpu/round_loop.h"

namespace gtadoc {

namespace {

/// Packs two 32-bit ids into one table key.
uint64_t Pack(uint32_t hi, uint32_t lo) {
  return (static_cast<uint64_t>(hi) << 32) | lo;
}

}  // namespace

size_t UncompressedAnalytics::total_tokens() const {
  size_t n = 0;
  for (const auto& f : files_) n += f.size();
  return n;
}

TaskInput UncompressedAnalytics::MakeInput() const {
  // The flattening rule lives in query_spec.h, shared with every engine.
  return MakeTaskInput(query_);
}

// ---------------------------------------------------------------------------
// Sequential reference: the kernel's own uncompressed loop.
// ---------------------------------------------------------------------------

AnalyticsResult UncompressedAnalytics::RunSequential(
    Task task, CpuCostMeter* meter) const {
  const TaskKernel* kernel = TaskRegistry::Find(task);
  if (kernel == nullptr) {
    AnalyticsResult out;
    out.task = task;
    return out;
  }
  AnalyticsResult out = kernel->RunUncompressed(files_, MakeInput(), meter);
  kernel->Canonicalize(&out);
  return out;
}

// ---------------------------------------------------------------------------
// GPU-parallel implementation (Section VI-E baseline): one driver per
// traversal shape; the kernel assembles the drained tables.
// ---------------------------------------------------------------------------

Result<EngineRun> UncompressedAnalytics::RunOnDevice(Task task,
                                                     gpu::Device* device,
                                                     bool charge_pcie) const {
  auto kernel_lookup = TaskRegistry::Get(task);
  if (!kernel_lookup.ok()) return kernel_lookup.status();
  const TaskKernel& kernel = **kernel_lookup;
  const TaskInput input = MakeInput();

  EngineRun run;
  run.result.task = task;
  Timer wall;
  device->ResetClock();

  // Initialization: lay out the flat token stream and per-file offsets on the
  // device (PCIe transfer for the raw data).
  std::vector<uint32_t> stream;
  std::vector<uint32_t> file_of_token;
  std::vector<size_t> file_begin(files_.size(), 0);
  uint32_t max_word = 0;
  for (uint32_t f = 0; f < files_.size(); ++f) {
    file_begin[f] = stream.size();
    for (uint32_t w : files_[f]) {
      stream.push_back(w);
      file_of_token.push_back(f);
      max_word = std::max(max_word, w);
    }
  }
  if (charge_pcie) device->CopyHostToDevice(stream.size() * sizeof(uint32_t));
  run.timing.init_seconds = device->SimSeconds();

  const size_t n = stream.size();
  if (n == 0) return Status::InvalidArgument("empty input");
  const size_t chunk = 256;
  // Kernel-resolved window (query-derived for phraseSearch): the same hook
  // every compressed engine's plan consults.
  const uint32_t l = kernel.SequenceWindow(input);
  const WordFilter filter(kernel, input, max_word + 1);
  GpuAssembly ops(device);

  switch (kernel.shape()) {
    case TraversalShape::kGlobalWeight: {
      gpu::GpuHashTable::Options opt;
      opt.max_nodes = max_word + 2;
      opt.num_entries = std::max<uint32_t>(64, (max_word + 2) / 2);
      gpu::GpuHashTable table(device, opt);
      const bool ok = gpu::RoundLoop(
          device, "uncGlobal", n, chunk,
          [&](size_t i, gpu::ThreadCtx& ctx) {
            ctx.Charge(1);
            if (!filter.Accepts(stream[i])) return gpu::InsertOutcome::kDone;
            return table.AddOrInsert(ctx, stream[i], 1);
          });
      if (!ok) return Status::Internal("hash table sized too small");
      auto pairs = table.Drain();
      if (charge_pcie) device->CopyDeviceToHost(pairs.size() * 16);
      std::vector<std::pair<uint32_t, uint64_t>> counts;
      counts.reserve(pairs.size());
      for (const auto& [w, c] : pairs) {
        counts.emplace_back(static_cast<uint32_t>(w), c);
      }
      kernel.AssembleGlobal(input, counts, &ops, &run.result);
      break;
    }
    case TraversalShape::kPerFileWeight: {
      // The structural bound (one node per token) capped by the kernel's
      // distinct-key hint: selective kernels get a query-sized table.
      StateDims dims;
      dims.num_files = static_cast<uint32_t>(files_.size());
      dims.num_words = max_word + 1;
      dims.ngram_len = l;
      dims.top_k = query_.top_k;
      const uint64_t structural = std::min<uint64_t>(n, 1u << 26);
      // The plan layer's shared geometry: structural bound capped by the
      // kernel's distinct-key hint.
      gpu::GpuHashTable::Options opt;
      opt.max_nodes = static_cast<uint32_t>(PlannedTableNodes(
          structural, kernel.ExpectedDistinctKeys(dims, input)));
      opt.num_entries = static_cast<uint32_t>(structural / 2) + 64;
      gpu::GpuHashTable table(device, opt);
      const bool ok = gpu::RoundLoop(
          device, "uncPerFile", n, chunk,
          [&](size_t i, gpu::ThreadCtx& ctx) {
            ctx.Charge(2);
            if (!filter.Accepts(stream[i])) return gpu::InsertOutcome::kDone;
            return table.AddOrInsert(ctx, Pack(file_of_token[i], stream[i]),
                                     1);
          });
      if (!ok) return Status::Internal("hash table sized too small");
      auto pairs = table.Drain();
      if (charge_pcie) device->CopyDeviceToHost(pairs.size() * 16);
      std::vector<FileWordCount> triples;
      triples.reserve(pairs.size());
      for (const auto& [key, c] : pairs) {
        if (c == 0) continue;
        triples.push_back(
            FileWordCount{static_cast<uint32_t>(key >> 32),
                          static_cast<uint32_t>(key & 0xffffffffu), c});
      }
      kernel.AssembleFileWord(input, static_cast<uint32_t>(files_.size()),
                              triples, &ops, &run.result);
      break;
    }
    case TraversalShape::kSequence: {
      // One work item per window start; windows never span files.
      std::vector<uint32_t> starts;
      for (uint32_t f = 0; f < files_.size(); ++f) {
        if (files_[f].size() < l) continue;
        const size_t base = file_begin[f];
        for (size_t i = 0; i + l <= files_[f].size(); ++i) {
          starts.push_back(static_cast<uint32_t>(base + i));
        }
      }
      gpu::GpuNgramTable::Options opt;
      opt.ngram_len = l;
      opt.max_nodes = static_cast<uint32_t>(starts.size()) + 64;
      opt.num_entries = opt.max_nodes / 2 + 64;
      gpu::GpuNgramTable table(device, opt);
      const bool ok = gpu::RoundLoop(
          device, "uncSequence", starts.size(), chunk,
          [&](size_t i, gpu::ThreadCtx& ctx) {
            const uint32_t pos = starts[i];
            ctx.Charge(l);
            return table.AddOrInsert(ctx, file_of_token[pos], &stream[pos], 1);
          });
      if (!ok) return Status::Internal("ngram table sized too small");
      NgramRows rows = table.Drain();
      if (charge_pcie) device->CopyDeviceToHost(rows.size() * (16 + 4 * l));
      kernel.AssembleSequence(input, std::move(rows), &ops, &run.result);
      break;
    }
  }

  Canonicalize(&run.result);
  run.timing.traversal_seconds = device->SimSeconds() - run.timing.init_seconds;
  run.timing.wall_seconds = wall.ElapsedSeconds();
  return run;
}

}  // namespace gtadoc
