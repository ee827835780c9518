#include "gtadoc/engine.h"

#include <algorithm>

#include "common/logging.h"
#include "common/timer.h"
#include "gtadoc/traversal_util.h"

namespace gtadoc {

GTadocEngine::GTadocEngine(const Grammar* g, const PreparedDocument* doc,
                           const Options& options)
    : g_(g), doc_(doc), options_(options) {}

Result<std::unique_ptr<GTadocEngine>> GTadocEngine::Create(
    const Grammar* g, const Options& options) {
  auto prepared = PreparedDocument::Prepare(*g);
  if (!prepared.ok()) return prepared.status();
  auto doc = std::make_unique<PreparedDocument>(std::move(*prepared));
  auto engine = Create(g, doc.get(), options);
  if (engine.ok()) (*engine)->owned_doc_ = std::move(doc);
  return engine;
}

Result<std::unique_ptr<GTadocEngine>> GTadocEngine::Create(
    const Grammar* g, const PreparedDocument* doc, const Options& options) {
  if (options.ngram_len < 2) {
    return Status::InvalidArgument("ngram_len must be >= 2");
  }
  if (options.shared_pool != nullptr && options.shared_device == nullptr) {
    return Status::InvalidArgument("shared_pool requires shared_device");
  }
  std::unique_ptr<GTadocEngine> engine(new GTadocEngine(g, doc, options));
  if (options.shared_device != nullptr) {
    engine->device_ = options.shared_device;
  } else {
    engine->owned_device_ =
        std::make_unique<gpu::Device>(options.gpu, options.host_workers);
    engine->device_ = engine->owned_device_.get();
  }
  if (options.shared_pool == nullptr) {
    engine->owned_pool_ = std::make_unique<gpu::MemoryPool>(engine->device_);
  }
  if (options.plan_cache != nullptr) {
    engine->plan_cache_ = options.plan_cache;
  } else {
    engine->owned_plan_cache_ = std::make_shared<PlanCache>();
    engine->plan_cache_ = engine->owned_plan_cache_.get();
  }
  return engine;
}

void GTadocEngine::Rebind(const Grammar* g, const PreparedDocument* doc) {
  g_ = g;
  doc_ = doc;
  owned_doc_.reset();
  bind_pending_ = true;
}

void GTadocEngine::BindDeviceGrammar() {
  if (!bind_pending_) return;
  bind_pending_ = false;
  device_->ResetClock();
  const gpu::DeviceStats before = device_->stats();
  const DagView& d = dag();
  const uint64_t n = d.num_rules();
  const uint64_t body = d.body_off(n);
  const uint64_t edges = d.num_edges();
  const uint64_t words = d.num_word_entries();
  const uint64_t root = g_->root().size();
  // One packed arena holds every array: an allocation call is charged when
  // the document outgrows it in any of these sizes (always on a cold
  // engine), and a rebind onto a document that fits pays nothing.
  const std::array<uint64_t, 5> sizes = {n, body, edges, words, root};
  bool grown = false;
  for (size_t i = 0; i < sizes.size(); ++i) {
    if (sizes[i] > arena_high_water_[i]) {
      arena_high_water_[i] = sizes[i];
      grown = true;
    }
  }
  if (grown) device_->ChargeDeviceAlloc(1);
  // PCIe upload (large datasets only; the paper keeps resident datasets
  // on-device): 64-bit body offsets, the body symbols and 32-bit arrays —
  // three CSR offset arrays, child id/freq, word id/freq, parent ids, a
  // per-edge inbox slot, per-rule in-edges, out-degrees and root
  // frequencies. The root file ids are derived on the device, not shipped.
  if (options_.charge_pcie) {
    device_->CopyHostToDevice(
        (n + 1) * sizeof(uint64_t) + body * sizeof(uint32_t) +
        (3 * (n + 1) + 4 * edges + 2 * words + 3 * n) * sizeof(uint32_t));
  }
  // Root scan (Figure 3's "light-weight scanning"): splitter indicator, the
  // exclusive scan's reduce and rescan rounds, file assignment; each one op
  // per root position in chunks of 256. Its result is the DagView's
  // root_file, built once at load.
  const uint32_t chunks = static_cast<uint32_t>((root + 255) / 256);
  for (const char* kernel : {"rootSplitterIndicator", "scanReduce",
                             "scanRescan", "rootFileAssign"}) {
    device_->Launch(kernel, chunks, [root](gpu::ThreadCtx& ctx) {
      const uint64_t lo = static_cast<uint64_t>(ctx.tid()) * 256;
      ctx.Charge(std::min(root, lo + 256) - lo);
    });
  }
  create_seconds_ = device_->SimSeconds();
  create_ops_ = device_->stats().total_ops - before.total_ops;
  upload_seconds_ = device_->TransferSeconds(
      device_->stats().h2d_bytes - before.h2d_bytes);
}

TraversalStrategy GTadocEngine::ChosenStrategy(Task task) const {
  if (options_.strategy != TraversalStrategy::kAuto) return options_.strategy;
  const TaskInput input = MakeInput();
  return SelectStrategy(task, *g_, dag(), &input);
}

TaskInput GTadocEngine::InputFromOptions(const Options& options) {
  // Options IS-A QuerySpec; the flattening rule lives in query_spec.h.
  return MakeTaskInput(options);
}

TaskInput GTadocEngine::MakeInput() const { return InputFromOptions(options_); }

PlanShape GTadocEngine::MakeShape() const {
  PlanShape shape;
  shape.input = MakeInput();
  shape.scheduling = static_cast<int>(options_.scheduling);
  shape.vertical_partition =
      options_.scheduling == SchedulingMode::kVerticalPartition;
  shape.lock_mode = static_cast<int>(options_.lock_mode);
  shape.split_threshold = options_.split_threshold;
  return shape;
}

PlanKey GTadocEngine::MakePlanKey(Task task,
                                  TraversalStrategy* strategy_override,
                                  const PlanShape& shape) const {
  if (*strategy_override == TraversalStrategy::kAuto) {
    *strategy_override = options_.strategy;
  }
  PlanKey key;
  key.backend = kGpuPlanBackend;
  key.grammar_fp = doc_->fingerprint;
  key.task = static_cast<int>(task);
  key.strategy_override = static_cast<int>(*strategy_override);
  key.shape_fp = shape.Fingerprint();
  return key;
}

// ---------------------------------------------------------------------------
// Planning: the engine's charged passes + the cache-fronted resolution.
// ---------------------------------------------------------------------------

struct GTadocEngine::GpuPlanner : public Planner {
  explicit GpuPlanner(GTadocEngine* e) : engine(e) {}
  GTadocEngine* engine;

 protected:
  std::vector<uint8_t> RelevanceTraversal(const WordFilter& filter) override {
    return engine->RelevancePass(filter);
  }
  std::vector<uint64_t> BoundsTraversal(const WordFilter& filter,
                                        uint64_t vocab_clamp) override {
    return engine->BoundsPass(filter, vocab_clamp);
  }
  std::vector<uint64_t> ExpansionPass() override {
    return engine->ExpansionLengths();
  }
  void ChargeFlat(const char* what, uint64_t items,
                  uint64_t ops_per_item) override {
    engine->device_->Launch(
        what, static_cast<uint32_t>(std::max<uint64_t>(1, items)),
        [ops_per_item](gpu::ThreadCtx& ctx) { ctx.Charge(ops_per_item); });
  }
  CostEstimate PriceEstimate(const PlanWorkProfile& p) override {
    // GPU pricing: a fixed dispatch floor (round-ordered launches + one pool
    // allocation + the grammar upload when transfers are charged) plus work
    // spread across the device's sustained throughput. Atomic table updates
    // are an additive serialization term, as in the executors. The expanded
    // token stream is absent: the pipeline never leaves the compressed
    // domain.
    const gpu::GpuSpec& gpu = engine->options_.gpu;
    CostEstimate e;
    e.fixed_seconds =
        static_cast<double>(p.rounds) * gpu.kernel_launch_us * 1e-6 +
        gpu.device_alloc_us * 1e-6;
    if (engine->options_.charge_pcie) {
      e.fixed_seconds += static_cast<double>(p.upload_bytes) /
                         (gpu.pcie_bandwidth_gbps * 1e9);
    }
    e.work_items = p.traversal_items + p.reduce_items + p.state_slots;
    e.seconds =
        e.fixed_seconds +
        static_cast<double>(p.state_slots + 8 * p.traversal_items) /
            gpu.device_ops_per_sec() +
        static_cast<double>(p.reduce_items) / gpu.atomic_ops_per_sec;
    return e;
  }
};

Result<std::shared_ptr<const RunPlan>> GTadocEngine::ResolvePlan(
    const TaskKernel& kernel, TraversalStrategy strategy_override,
    bool* cache_hit) {
  const PlanShape shape = MakeShape();
  const PlanKey key = MakePlanKey(kernel.task(), &strategy_override, shape);
  std::shared_ptr<const RunPlan> plan = plan_cache_->Get(key);
  if (plan != nullptr) {
    *cache_hit = true;
    return plan;
  }
  *cache_hit = false;
  if (bind_pending_) {
    // The planning passes run on the device grammar. Binding is not
    // planning: the clock restarts after it, so a probe bracket meters
    // exactly the passes.
    BindDeviceGrammar();
    device_->ResetClock();
  }
  GpuPlanner planner(this);
  auto built = planner.BuildPlan(kernel, *g_, dag(), shape, strategy_override,
                                 key);
  if (!built.ok()) return built.status();
  plan_cache_->Put(*built);
  return *built;
}

Result<std::shared_ptr<const RunPlan>> GTadocEngine::PlanOnly(
    Task task, TraversalStrategy strategy_override) {
  auto kernel_lookup = TaskRegistry::Get(task);
  if (!kernel_lookup.ok()) return kernel_lookup.status();
  bool cache_hit = false;
  return ResolvePlan(**kernel_lookup, strategy_override, &cache_hit);
}

std::shared_ptr<const RunPlan> GTadocEngine::CachedPlan(
    Task task, TraversalStrategy strategy_override) const {
  const PlanShape shape = MakeShape();
  return plan_cache_->Peek(MakePlanKey(task, &strategy_override, shape));
}

std::vector<uint8_t> GTadocEngine::RelevancePass(const WordFilter& filter) {
  const DagView& d = dag();
  const uint32_t n = static_cast<uint32_t>(d.num_rules());
  if (!filter.selective()) return std::vector<uint8_t>(n, 1);
  // genQueryReachKernel: bottom-up reachability of accepted words — the
  // selective kernel's grammar exploit. A rule is relevant iff it owns an
  // accepted word or any child subtree does; irrelevant rules carry no
  // accumulator state and are skipped by the reduce kernels.
  std::vector<uint8_t> relevant(n, 0);
  internal::BottomUpRounds(
      device_, d, "genQueryReach", [&](uint32_t r, gpu::ThreadCtx& ctx) {
        uint8_t rel = 0;
        for (const RuleWordEntry& w : d.words(r)) {
          ctx.Charge(1);
          if (filter.Accepts(w.word)) {
            rel = 1;
            break;
          }
        }
        if (rel == 0) {
          for (const RuleChildEntry& e : d.children(r)) {
            ctx.Charge(1);
            if (relevant[e.child] != 0) {
              rel = 1;
              break;
            }
          }
        }
        relevant[r] = rel;
      });
  return relevant;
}

std::vector<uint64_t> GTadocEngine::BoundsPass(const WordFilter& filter,
                                               uint64_t vocab_clamp) {
  // genLocTblBoundKernel: bound[r] = own distinct (accepted) words + sum of
  // children's bounds, clamped by the accepted vocabulary (Algorithm 2
  // lines 5-9) — the init-traversal memory-requirement transmission the
  // plan turns into resolved region offsets.
  const DagView& d = dag();
  std::vector<uint64_t> bound(d.num_rules(), 0);
  internal::BottomUpRounds(
      device_, d, "genLocTblBound", [&](uint32_t r, gpu::ThreadCtx& ctx) {
        uint64_t b;
        if (filter.selective()) {
          b = 0;
          for (const RuleWordEntry& w : d.words(r)) {
            ctx.Charge(1);
            if (filter.Accepts(w.word)) ++b;
          }
        } else {
          b = d.words(r).size();
        }
        for (const RuleChildEntry& e : d.children(r)) {
          b += bound[e.child];
          ctx.Charge(1);
        }
        bound[r] = std::min<uint64_t>(std::max<uint64_t>(vocab_clamp, 1), b);
      });
  return bound;
}

std::vector<uint64_t> GTadocEngine::ExpansionLengths() {
  // expLenKernel: per-rule expansion lengths, leaves to root — the sequence
  // pipeline's sizing pass, cached with the plan so same-shape rebind runs
  // skip it.
  const DagView& d = dag();
  std::vector<uint64_t> exp_len(d.num_rules(), 0);
  internal::BottomUpRounds(
      device_, d, "expLen", [&](uint32_t r, gpu::ThreadCtx& ctx) {
        uint64_t total = 0;
        for (const RuleWordEntry& w : d.words(r)) {
          total += w.freq;
          ctx.Charge(1);
        }
        for (const RuleChildEntry& e : d.children(r)) {
          total += exp_len[e.child] * e.freq;
          ctx.Charge(1);
        }
        exp_len[r] = std::min<uint64_t>(total, 1ull << 62);
      });
  return exp_len;
}

// ---------------------------------------------------------------------------
// Execution.
// ---------------------------------------------------------------------------

gpu::GpuHashTable::Options GTadocEngine::WordTableOptions(
    const RunPlan& plan, uint64_t structural_bound) const {
  gpu::GpuHashTable::Options topt;
  // The plan's hint caps the node pool (the memory win); the bucket count
  // keeps the structural bound so chains — and try-lock contention per
  // bucket — stay as short as under generic sizing.
  topt.max_nodes = static_cast<uint32_t>(
      PlannedTableNodes(structural_bound, plan.expected_keys));
  topt.num_entries = static_cast<uint32_t>(
      std::min<uint64_t>(structural_bound + 64, 1ull << 28) / 2 + 64);
  topt.lock_mode = options_.lock_mode;
  return topt;
}

GTadocEngine::PlannedLease GTadocEngine::AcquirePlanned(const RunPlan& plan) {
  PlannedLease lease;
  gpu::MemoryPool* pool = options_.shared_pool != nullptr
                              ? options_.shared_pool
                              : owned_pool_.get();
  // A grown slab arrives zeroed; only a kept slab needs the scrub.
  if (!pool->EnsureCapacity(plan.total_slots)) pool->ResetForReuse();
  lease.pool = pool;
  lease.plan = &plan;
  return lease;
}

Result<EngineRun> GTadocEngine::Run(Task task,
                                    TraversalStrategy strategy_override) {
  auto kernel_lookup = TaskRegistry::Get(task);
  if (!kernel_lookup.ok()) return kernel_lookup.status();
  const TaskKernel& kernel = **kernel_lookup;

  // A pending device-grammar bind is init work measured on its own clock
  // (create_seconds_), so it happens before this run's clock starts.
  BindDeviceGrammar();
  EngineRun run;
  run.result.task = task;
  Timer wall;
  device_->ResetClock();
  const uint64_t ops_before = device_->stats().total_ops;
  const uint64_t allocs_before = device_->stats().device_allocs;

  // Plan resolution: a cache hit costs nothing; a miss runs the charged
  // planning passes (relevance/bounds/expansion traversals).
  bool cache_hit = false;
  auto plan_lookup = ResolvePlan(kernel, strategy_override, &cache_hit);
  if (!plan_lookup.ok()) return plan_lookup.status();
  const RunPlan& plan = **plan_lookup;
  const double plan_seconds = device_->SimSeconds();
  const uint64_t plan_ops = device_->stats().total_ops - ops_before;

  Status st;
  double phase1_extra = 0;  // shape-specific init (e.g. head/tail rounds)
  switch (kernel.shape()) {
    case TraversalShape::kGlobalWeight:
      if (options_.scheduling == SchedulingMode::kVerticalPartition) {
        st = GlobalVerticalPartition(kernel, plan, &run.result);
      } else if (plan.strategy == TraversalStrategy::kBottomUp) {
        st = GlobalBottomUp(kernel, plan, &run.result);
      } else {
        st = GlobalTopDown(kernel, plan, &run.result);
      }
      break;
    case TraversalShape::kPerFileWeight:
      st = plan.strategy == TraversalStrategy::kBottomUp
               ? FileTaskBottomUp(kernel, plan, &run.result)
               : FileTaskTopDown(kernel, plan, &run.result);
      break;
    case TraversalShape::kSequence:
      st = SequenceTask(kernel, plan, &run.result, &phase1_extra);
      break;
  }
  if (!st.ok()) return st;

  Canonicalize(&run.result);
  const double sim = device_->SimSeconds();
  // Mid-run allocation calls (pools, per-run tables) and the planning phase
  // belong to the paper's phase 1 ("pool planning"), not to graph traversal.
  const double alloc_seconds =
      device_->AllocSeconds(device_->stats().device_allocs - allocs_before);
  run.timing.init_seconds =
      create_seconds_ + plan_seconds + phase1_extra + alloc_seconds;
  run.timing.traversal_seconds =
      sim - plan_seconds - phase1_extra - alloc_seconds;
  run.timing.plan_seconds = plan_seconds;
  run.timing.plan_cache_hits = cache_hit ? 1 : 0;
  run.timing.upload_seconds = upload_seconds_;
  run.timing.wall_seconds = wall.ElapsedSeconds();
  run.timing.init_ops = create_ops_ + plan_ops;
  run.timing.traversal_ops =
      device_->stats().total_ops - ops_before - plan_ops;
  return run;
}

uint32_t GTadocEngine::ComputeGlobalWeights(const TaskKernel& kernel,
                                            const PlannedLease& lease,
                                            std::vector<uint64_t>* weights) {
  const DagView& d = dag();
  const uint32_t n = static_cast<uint32_t>(d.num_rules());
  weights->assign(n, 0);
  std::vector<uint64_t>& weight = *weights;

  // The per-rule weight state lives in the plan's pool regions, described by
  // the kernel's top-down layout (a scalar for the built-ins; custom kernels
  // may carry e.g. saturating counters through the same rounds).
  const StateLayout& layout = kernel.Layout(TraversalStrategy::kTopDown);

  std::vector<std::atomic<uint32_t>> cur_in(n);
  std::vector<uint8_t> mask(n, 0);
  std::vector<std::atomic<uint8_t>> mask_next(n);

  // initTopDownMaskKernel: weights seeded with root frequencies; rules whose
  // only parent is the root start the traversal (Algorithm 1 lines 2, 9-11).
  device_->Launch("initTopDownMask", n, [&](gpu::ThreadCtx& ctx) {
    const uint32_t r = ctx.tid();
    ctx.Charge(2);
    if (r == 0) return;
    GpuStateOps ops(&ctx);
    layout.Init(lease.state_at(r), ops);
    if (d.root_freq(r) != 0) {
      layout.Absorb(lease.state_at(r), 0, d.root_freq(r), ops);
    }
    if (d.num_in_edges_nonroot(r) == 0) mask[r] = 1;
  });

  // topDownKernel rounds (Algorithm 1 lines 3-7): a ready rule folds its
  // state into every child, scaled by the edge frequency.
  uint32_t rounds = 0;
  std::atomic<bool> stop{false};
  while (!stop.load(std::memory_order_relaxed)) {
    stop.store(true, std::memory_order_relaxed);
    ++rounds;
    device_->Launch("topDown", n, [&](gpu::ThreadCtx& ctx) {
      const uint32_t r = ctx.tid();
      ctx.Charge(1);
      if (r == 0 || !mask[r]) return;
      GpuStateOps ops(&ctx);
      for (const RuleChildEntry& e : d.children(r)) {
        const uint32_t c = e.child;
        layout.Merge(lease.state_at(c), lease.state_at(r), e.freq, ops);
        const uint32_t got =
            cur_in[c].fetch_add(1, std::memory_order_relaxed) + 1;
        ctx.ChargeAtomic(1);
        if (got == d.num_in_edges_nonroot(c)) {
          mask_next[c].store(1, std::memory_order_relaxed);
          stop.store(false, std::memory_order_relaxed);
        }
      }
    });
    // Swap masks: rules that just finished never rerun; newly-ready rules run
    // in the next round (rule.mask <- false, subRule.mask <- true).
    // Double-buffered masks: the production kernels read the mask through a
    // pointer the host swaps between rounds, so this costs no device work.
    for (uint32_t r = 0; r < n; ++r) {
      mask[r] = mask_next[r].exchange(0, std::memory_order_relaxed);
    }
  }

  weight[0] = 1;
  for (uint32_t r = 1; r < n; ++r) {
    uint32_t key;
    uint64_t value;
    weight[r] =
        layout.ReadSlot(lease.state_at(r), 0, &key, &value) ? value : 0;
  }
  return rounds;
}

void GTadocEngine::DrainWordTable(
    const gpu::GpuHashTable& table,
    std::vector<std::pair<uint32_t, uint64_t>>* counts) {
  auto pairs = table.Drain();
  if (options_.charge_pcie) device_->CopyDeviceToHost(pairs.size() * 16);
  counts->reserve(pairs.size());
  for (const auto& [w, c] : pairs) {
    counts->emplace_back(static_cast<uint32_t>(w), c);
  }
}

}  // namespace gtadoc
