#include "analytics/task_kernel.h"

#include <algorithm>
#include <map>
#include <mutex>
#include <numeric>
#include <unordered_map>

#include "common/hash.h"
#include "common/logging.h"
#include "common/status.h"
#include "gpu/device.h"
#include "gpu/memory_pool.h"
#include "gpu/primitives.h"

namespace gtadoc {

namespace {

/// Orders (id, count) by count desc then id asc — the canonical tie-break for
/// sort, termVector and rankedInvertedIndex outputs.
bool CountDescIdAsc(const std::pair<uint32_t, uint64_t>& a,
                    const std::pair<uint32_t, uint64_t>& b) {
  if (a.second != b.second) return a.second > b.second;
  return a.first < b.first;
}

uint64_t Log2Ceil(uint64_t n) {
  uint64_t l = 1;
  while ((1ull << l) < n + 1) ++l;
  return l;
}

/// Per-rule bytes at which the default strategy heuristic abandons top-down:
/// the paper's observation that a 16-byte file buffer (4 files) is negligible
/// scales to kFileCountThreshold files of dense+list state (16 bytes each).
constexpr uint64_t kTopDownStateByteLimit = 16ull * kFileCountThreshold;

/// log2(num/den) in 1/1024 fixed-point units (num >= den > 0), pure integer
/// math so every engine computes bit-identical idf scores.
uint64_t FixedLog2(uint64_t num, uint64_t den) {
  // Normalize num/den into [1, 2) as a Q32 value.
  uint64_t e = 0;
  while (num / den >= 2) {
    den <<= 1;
    ++e;
  }
  unsigned __int128 x = ((static_cast<unsigned __int128>(num)) << 32) / den;
  uint64_t frac = 0;
  for (int bit = 0; bit < 10; ++bit) {
    x = (x * x) >> 32;  // square in Q32
    frac <<= 1;
    if (x >= (static_cast<unsigned __int128>(2) << 32)) {
      x >>= 1;
      frac |= 1;
    }
  }
  return (e << 10) | frac;
}

/// The scaled inverse document frequency of a word present in `df` of `n`
/// files: log2(n/df) in 1/1024 units.
uint64_t ScaledIdf(uint64_t n, uint64_t df) { return FixedLog2(n, df); }

}  // namespace

const char* TraversalShapeName(TraversalShape shape) {
  switch (shape) {
    case TraversalShape::kGlobalWeight:
      return "globalWeight";
    case TraversalShape::kPerFileWeight:
      return "perFileWeight";
    case TraversalShape::kSequence:
      return "sequence";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// AssemblyOps backends
// ---------------------------------------------------------------------------

void CpuAssembly::ChargeUpdates(uint64_t n) {
  if (meter_ != nullptr) meter_->Charge(n);
}

void CpuAssembly::ChargeSort(uint64_t n) {
  if (meter_ != nullptr && n > 0) meter_->Charge(4 * n * Log2Ceil(n));
}

void CpuAssembly::ChargeGroupSort(uint64_t groups, uint64_t entries) {
  (void)groups;
  if (meter_ != nullptr) meter_->Charge(2 * entries);
}

void CpuAssembly::SortPairs(std::vector<std::pair<uint64_t, uint64_t>>* kv) {
  std::sort(kv->begin(), kv->end());
  ChargeSort(kv->size());
}

void GpuAssembly::ChargeUpdates(uint64_t n) {
  // Host-side reshaping of an already-drained table: free, as in the
  // hand-written drivers this replaces (the drain's D2H copy is charged by
  // the driver).
  (void)n;
}

void GpuAssembly::ChargeSort(uint64_t n) {
  if (n == 0) return;
  const uint64_t per_thread = 2 * Log2Ceil(n);
  device_->Launch("assembleSort",
                  static_cast<uint32_t>(std::min<uint64_t>(n, 1u << 20)),
                  [&](gpu::ThreadCtx& ctx) { ctx.Charge(per_thread); });
}

void GpuAssembly::ChargeGroupSort(uint64_t groups, uint64_t entries) {
  (void)entries;
  if (groups == 0) return;
  // One logical thread per group orders its (small) list — the old rankSort
  // kernel.
  device_->Launch("assembleGroupSort",
                  static_cast<uint32_t>(std::min<uint64_t>(groups, 1u << 26)),
                  [&](gpu::ThreadCtx& ctx) { ctx.Charge(8); });
}

void GpuAssembly::SortPairs(std::vector<std::pair<uint64_t, uint64_t>>* kv) {
  gpu::DeviceSortPairs(device_, kv);
}

void CpuAssembly::SelectTopK(
    uint32_t k,
    std::vector<std::vector<std::pair<uint32_t, uint64_t>>>* groups) {
  const StateLayout& heap = BoundedHeapLayout();
  StateDims dims;
  dims.top_k = k;
  const uint64_t group_slots = heap.SlotsForBound(dims, k);
  std::vector<uint64_t> slab(group_slots * groups->size(), 0);
  CpuStateOps ops(meter_);
  for (size_t g = 0; g < groups->size(); ++g) {
    StateView state(slab.data(), g * group_slots, group_slots);
    heap.Init(state, ops);
    for (const auto& [id, count] : (*groups)[g]) {
      heap.Absorb(state, id, count, ops);
    }
    if (meter_ != nullptr) meter_->Charge(2 * (*groups)[g].size());
    DrainHeapSorted(state, &(*groups)[g]);
  }
}

void GpuAssembly::SelectTopK(
    uint32_t k,
    std::vector<std::vector<std::pair<uint32_t, uint64_t>>>* groups) {
  if (groups->empty()) return;
  const StateLayout& heap = BoundedHeapLayout();
  StateDims dims;
  dims.top_k = k;
  const uint64_t group_slots = heap.SlotsForBound(dims, k);
  const uint64_t total_slots = group_slots * groups->size();
  // Per-group heap regions carved from the memory pool — the same Section
  // IV-C discipline as the traversal state, so the selection runs as a real
  // device stage (one logical thread per group, its sift steps on the
  // critical path) instead of a free host reshape. The run's planned lease
  // is the fast path: the planner reserved these slots inside the run's one
  // pool acquisition (AssemblyStateSlots), so assembly charges no
  // allocation call and never touches the traversal regions (heap Init
  // tolerates the dirty slab). A pool with an undersized lease (a custom
  // kernel without the hint) is recycled whole — its traversal regions are
  // dead by assembly time — and only without any pool does a scoped pool
  // pay the old per-assembly allocation.
  std::unique_ptr<gpu::MemoryPool> scoped;
  gpu::MemoryPool* pool = lease_.pool;
  uint64_t base = lease_.offset;
  if (pool != nullptr && total_slots > lease_.slots) {
    pool->Reset();
    pool->EnsureCapacity(total_slots);
    base = 0;
  } else if (pool == nullptr) {
    scoped = std::make_unique<gpu::MemoryPool>(device_, total_slots);
    pool = scoped.get();
    base = 0;
  }
  uint64_t total_entries = 0;
  device_->Launch("assembleTopK", static_cast<uint32_t>(groups->size()),
                  [&](gpu::ThreadCtx& ctx) {
                    GpuStateOps ops(&ctx);
                    StateView state(pool->slab(),
                                    base + ctx.tid() * group_slots,
                                    group_slots);
                    heap.Init(state, ops);
                    for (const auto& [id, count] : (*groups)[ctx.tid()]) {
                      heap.Absorb(state, id, count, ops);
                    }
                  });
  for (const auto& g : *groups) total_entries += g.size();
  ChargeGroupSort(groups->size(), total_entries);  // the ordered drains
  for (size_t g = 0; g < groups->size(); ++g) {
    StateView state(pool->slab(), base + g * group_slots, group_slots);
    DrainHeapSorted(state, &(*groups)[g]);
  }
}

// ---------------------------------------------------------------------------
// TaskKernel defaults
// ---------------------------------------------------------------------------

const StateLayout& TaskKernel::Layout(TraversalStrategy strategy) const {
  switch (shape()) {
    case TraversalShape::kGlobalWeight:
      return strategy == TraversalStrategy::kBottomUp ? LocalWordTableLayout()
                                                      : ScalarWeightLayout();
    case TraversalShape::kPerFileWeight:
      return strategy == TraversalStrategy::kBottomUp ? LocalWordTableLayout()
                                                      : DensePerFileLayout();
    case TraversalShape::kSequence:
      return HeadTailLayout();
  }
  return ScalarWeightLayout();
}

uint64_t TaskKernel::StateBytesPerRule(const Grammar& g, const TaskInput& input,
                                       TraversalStrategy strategy) const {
  StateDims dims;
  dims.num_files = g.num_files();
  dims.num_words = g.num_words;
  dims.ngram_len = input.ngram_len;
  dims.top_k = input.top_k;
  return Layout(strategy).PropagatedBytesPerRule(dims);
}

uint64_t TaskKernel::ExpectedDistinctKeys(const StateDims& dims,
                                          const TaskInput& input) const {
  uint64_t vocab = dims.num_words;
  const std::vector<uint32_t>* accepted = AcceptedWords(input);
  if (accepted != nullptr) {
    vocab = std::min<uint64_t>(vocab, accepted->size());
  }
  switch (shape()) {
    case TraversalShape::kGlobalWeight:
      return std::max<uint64_t>(1, vocab);
    case TraversalShape::kPerFileWeight:
      return std::max<uint64_t>(1, vocab * dims.num_files);
    case TraversalShape::kSequence:
      return 0;  // distinct windows are unknowable before the traversal
  }
  return 0;
}

bool TaskKernel::MayMatchDocument(uint64_t root_bloom,
                                  const TaskInput& input) const {
  const std::vector<uint32_t>* accepted = AcceptedWords(input);
  if (accepted == nullptr) return true;  // non-selective: always execute
  // An empty accept set provably matches nothing; otherwise the document may
  // produce output iff any accepted word may be present in it.
  for (uint32_t w : *accepted) {
    const uint64_t mask = WordBloomMask(w);
    if ((root_bloom & mask) == mask) return true;
  }
  return false;
}

TraversalStrategy TaskKernel::PreferredStrategy(const Grammar& g,
                                                const DagView& dag,
                                                const TaskInput& input) const {
  (void)dag;
  // The adaptive selector of [4], generalized: propagate top-down while the
  // per-rule accumulator footprint stays negligible, fall back to bottom-up
  // local tables once it grows with the input (Section VI-C).
  const uint64_t per_rule =
      StateBytesPerRule(g, input, TraversalStrategy::kTopDown);
  return per_rule > kTopDownStateByteLimit ? TraversalStrategy::kBottomUp
                                           : TraversalStrategy::kTopDown;
}

void TaskKernel::AssembleGlobal(
    const TaskInput& input,
    const std::vector<std::pair<uint32_t, uint64_t>>& counts, AssemblyOps* ops,
    AnalyticsResult* out) const {
  (void)input;
  (void)counts;
  (void)ops;
  (void)out;
  GTADOC_LOG(Error) << "kernel '" << name()
                    << "' does not implement AssembleGlobal";
  GTADOC_CHECK(false);
}

void TaskKernel::AssembleFileWord(const TaskInput& input, uint32_t num_files,
                                  const std::vector<FileWordCount>& counts,
                                  AssemblyOps* ops,
                                  AnalyticsResult* out) const {
  (void)input;
  (void)num_files;
  (void)counts;
  (void)ops;
  (void)out;
  GTADOC_LOG(Error) << "kernel '" << name()
                    << "' does not implement AssembleFileWord";
  GTADOC_CHECK(false);
}

void TaskKernel::AssembleSequence(const TaskInput& input, NgramRows rows,
                                  AssemblyOps* ops,
                                  AnalyticsResult* out) const {
  (void)input;
  (void)rows;
  (void)ops;
  (void)out;
  GTADOC_LOG(Error) << "kernel '" << name()
                    << "' does not implement AssembleSequence";
  GTADOC_CHECK(false);
}

void TaskKernel::FinalizeMerge(AnalyticsResult* acc,
                               uint64_t* merge_ops) const {
  (void)merge_ops;
  Canonicalize(acc);
}

// ---------------------------------------------------------------------------
// WordFilter
// ---------------------------------------------------------------------------

WordFilter::WordFilter(const TaskKernel& kernel, const TaskInput& input,
                       uint32_t num_words) {
  const std::vector<uint32_t>* accepted = kernel.AcceptedWords(input);
  if (accepted == nullptr) {
    accepted_count_ = num_words;
    return;
  }
  selective_ = true;
  bits_.assign(num_words, 0);
  for (uint32_t w : *accepted) {
    if (w < num_words && bits_[w] == 0) {
      bits_[w] = 1;
      ++accepted_count_;
    }
  }
}

// ---------------------------------------------------------------------------
// Built-in kernels. Each class is the complete definition of one task: its
// shape, its assembly from the shape's canonical accumulator, its merge and
// result operations, and its uncompressed reference loop.
// ---------------------------------------------------------------------------

namespace {

// ------------------------------------------------------------- wordCount ---

class WordCountKernel : public TaskKernel {
 public:
  Task task() const override { return Task::kWordCount; }
  const char* name() const override { return "wordCount"; }
  TraversalShape shape() const override {
    return TraversalShape::kGlobalWeight;
  }

  void AssembleGlobal(const TaskInput& input,
                      const std::vector<std::pair<uint32_t, uint64_t>>& counts,
                      AssemblyOps* ops, AnalyticsResult* out) const override {
    (void)input;
    for (const auto& [w, c] : counts) out->word_count[w] += c;
    ops->ChargeUpdates(counts.size());
  }

  void Merge(const AnalyticsResult& doc, uint32_t file_base,
             AnalyticsResult* acc, uint64_t* merge_ops) const override {
    (void)file_base;  // word-keyed: file ids do not appear
    for (const auto& [w, c] : doc.word_count) {
      acc->word_count[w] += c;
      ++*merge_ops;
    }
  }

  uint64_t ResultBytes(const AnalyticsResult& r,
                       uint32_t ngram_len) const override {
    (void)ngram_len;
    return r.word_count.size() * 12;
  }

  bool Equal(const AnalyticsResult& a,
             const AnalyticsResult& b) const override {
    return a.word_count == b.word_count;
  }

  void DigestFold(const AnalyticsResult& r, uint64_t* h,
                  size_t* entries) const override {
    for (const auto& [w, c] : r.word_count) {
      *h = HashCombine(HashCombine(*h, w), c);
      ++*entries;
    }
  }

  AnalyticsResult RunUncompressed(
      const std::vector<std::vector<uint32_t>>& files, const TaskInput& input,
      CpuCostMeter* meter) const override {
    (void)input;
    AnalyticsResult out;
    out.task = Task::kWordCount;
    std::unordered_map<uint32_t, uint64_t> counts;
    for (const auto& file : files) {
      for (uint32_t w : file) {
        ++counts[w];
        if (meter != nullptr) meter->Charge(kCpuHashUpdateOps);
      }
    }
    out.word_count.insert(counts.begin(), counts.end());
    if (meter != nullptr) meter->Charge(counts.size());
    return out;
  }
};

// ------------------------------------------------------------------ sort ---

class SortKernel : public TaskKernel {
 public:
  Task task() const override { return Task::kSort; }
  const char* name() const override { return "sort"; }
  TraversalShape shape() const override {
    return TraversalShape::kGlobalWeight;
  }

  void AssembleGlobal(const TaskInput& input,
                      const std::vector<std::pair<uint32_t, uint64_t>>& counts,
                      AssemblyOps* ops, AnalyticsResult* out) const override {
    (void)input;
    // Pack (inverted count, word id) so ascending key order equals
    // (count desc, word asc); the backend charges its sort.
    std::vector<std::pair<uint64_t, uint64_t>> kv;
    kv.reserve(counts.size());
    for (const auto& [w, c] : counts) {
      kv.emplace_back(
          (static_cast<uint64_t>(UINT32_MAX - static_cast<uint32_t>(c)) << 32) |
              w,
          c);
    }
    ops->SortPairs(&kv);
    out->sort.reserve(kv.size());
    for (const auto& [key, c] : kv) {
      out->sort.emplace_back(static_cast<uint32_t>(key & 0xffffffffu), c);
    }
  }

  void Canonicalize(AnalyticsResult* r) const override {
    std::sort(r->sort.begin(), r->sort.end(), CountDescIdAsc);
  }

  void Merge(const AnalyticsResult& doc, uint32_t file_base,
             AnalyticsResult* acc, uint64_t* merge_ops) const override {
    (void)file_base;
    // Counts accumulate by word id; FinalizeMerge re-derives the ordering.
    for (const auto& [w, c] : doc.sort) {
      acc->word_count[w] += c;
      ++*merge_ops;
    }
  }

  void FinalizeMerge(AnalyticsResult* acc, uint64_t* merge_ops) const override {
    acc->sort.assign(acc->word_count.begin(), acc->word_count.end());
    std::sort(acc->sort.begin(), acc->sort.end(), CountDescIdAsc);
    acc->word_count.clear();
    *merge_ops += acc->sort.size() * 4;
    Canonicalize(acc);
  }

  uint64_t ResultBytes(const AnalyticsResult& r,
                       uint32_t ngram_len) const override {
    (void)ngram_len;
    return r.sort.size() * 12;
  }

  bool Equal(const AnalyticsResult& a,
             const AnalyticsResult& b) const override {
    return a.sort == b.sort;
  }

  void DigestFold(const AnalyticsResult& r, uint64_t* h,
                  size_t* entries) const override {
    for (const auto& [w, c] : r.sort) {
      *h = HashCombine(HashCombine(*h, w), c);
      ++*entries;
    }
  }

  AnalyticsResult RunUncompressed(
      const std::vector<std::vector<uint32_t>>& files, const TaskInput& input,
      CpuCostMeter* meter) const override {
    (void)input;
    AnalyticsResult out;
    out.task = Task::kSort;
    std::unordered_map<uint32_t, uint64_t> counts;
    for (const auto& file : files) {
      for (uint32_t w : file) {
        ++counts[w];
        if (meter != nullptr) meter->Charge(kCpuHashUpdateOps);
      }
    }
    out.sort.assign(counts.begin(), counts.end());
    std::sort(out.sort.begin(), out.sort.end(), CountDescIdAsc);
    if (meter != nullptr) {
      meter->Charge(4 * counts.size() * Log2Ceil(counts.size()));
    }
    return out;
  }
};

// ----------------------------------------------------------- invertedIndex ---

class InvertedIndexKernel : public TaskKernel {
 public:
  Task task() const override { return Task::kInvertedIndex; }
  const char* name() const override { return "invertedIndex"; }
  TraversalShape shape() const override {
    return TraversalShape::kPerFileWeight;
  }

  void AssembleFileWord(const TaskInput& input, uint32_t num_files,
                        const std::vector<FileWordCount>& counts,
                        AssemblyOps* ops, AnalyticsResult* out) const override {
    (void)input;
    (void)num_files;
    for (const FileWordCount& e : counts) {
      out->inverted_index[e.word].push_back(e.file);
    }
    ops->ChargeUpdates(2 * counts.size());
  }

  void Canonicalize(AnalyticsResult* r) const override {
    for (auto& [word, files] : r->inverted_index) {
      (void)word;
      std::sort(files.begin(), files.end());
      files.erase(std::unique(files.begin(), files.end()), files.end());
    }
  }

  void Merge(const AnalyticsResult& doc, uint32_t file_base,
             AnalyticsResult* acc, uint64_t* merge_ops) const override {
    for (const auto& [w, files] : doc.inverted_index) {
      auto& list = acc->inverted_index[w];
      for (uint32_t f : files) list.push_back(f + file_base);
      *merge_ops += files.size();
    }
  }

  uint64_t ResultBytes(const AnalyticsResult& r,
                       uint32_t ngram_len) const override {
    (void)ngram_len;
    uint64_t bytes = 0;
    for (const auto& [w, files] : r.inverted_index) {
      (void)w;
      bytes += 8 + files.size() * 4;
    }
    return bytes;
  }

  bool Equal(const AnalyticsResult& a,
             const AnalyticsResult& b) const override {
    return a.inverted_index == b.inverted_index;
  }

  void DigestFold(const AnalyticsResult& r, uint64_t* h,
                  size_t* entries) const override {
    for (const auto& [w, files] : r.inverted_index) {
      *h = HashCombine(*h, w);
      for (uint32_t f : files) *h = HashCombine(*h, f);
      ++*entries;
    }
  }

  AnalyticsResult RunUncompressed(
      const std::vector<std::vector<uint32_t>>& files, const TaskInput& input,
      CpuCostMeter* meter) const override {
    (void)input;
    AnalyticsResult out;
    out.task = Task::kInvertedIndex;
    for (uint32_t f = 0; f < files.size(); ++f) {
      for (uint32_t w : files[f]) {
        auto& list = out.inverted_index[w];
        if (list.empty() || list.back() != f) list.push_back(f);
        if (meter != nullptr) meter->Charge(kCpuHashUpdateOps);
      }
    }
    return out;
  }
};

// -------------------------------------------------------------- termVector ---

class TermVectorKernel : public TaskKernel {
 public:
  Task task() const override { return Task::kTermVector; }
  const char* name() const override { return "termVector"; }
  TraversalShape shape() const override {
    return TraversalShape::kPerFileWeight;
  }

  void AssembleFileWord(const TaskInput& input, uint32_t num_files,
                        const std::vector<FileWordCount>& counts,
                        AssemblyOps* ops, AnalyticsResult* out) const override {
    (void)input;
    if (out->term_vector.size() < num_files) out->term_vector.resize(num_files);
    for (const FileWordCount& e : counts) {
      out->term_vector[e.file].emplace_back(e.word, e.count);
    }
    ops->ChargeUpdates(4 * counts.size());
  }

  void Canonicalize(AnalyticsResult* r) const override {
    for (auto& vec : r->term_vector) {
      std::sort(vec.begin(), vec.end(), CountDescIdAsc);
    }
  }

  void Merge(const AnalyticsResult& doc, uint32_t file_base,
             AnalyticsResult* acc, uint64_t* merge_ops) const override {
    if (acc->term_vector.size() < file_base + doc.term_vector.size()) {
      acc->term_vector.resize(file_base + doc.term_vector.size());
    }
    for (size_t f = 0; f < doc.term_vector.size(); ++f) {
      acc->term_vector[file_base + f] = doc.term_vector[f];
      *merge_ops += doc.term_vector[f].size();
    }
  }

  uint64_t ResultBytes(const AnalyticsResult& r,
                       uint32_t ngram_len) const override {
    (void)ngram_len;
    uint64_t bytes = 0;
    for (const auto& v : r.term_vector) bytes += 4 + v.size() * 12;
    return bytes;
  }

  bool Equal(const AnalyticsResult& a,
             const AnalyticsResult& b) const override {
    return a.term_vector == b.term_vector;
  }

  void DigestFold(const AnalyticsResult& r, uint64_t* h,
                  size_t* entries) const override {
    for (const auto& vec : r.term_vector) {
      for (const auto& [w, c] : vec) *h = HashCombine(HashCombine(*h, w), c);
      ++*entries;
    }
  }

  AnalyticsResult RunUncompressed(
      const std::vector<std::vector<uint32_t>>& files, const TaskInput& input,
      CpuCostMeter* meter) const override {
    (void)input;
    AnalyticsResult out;
    out.task = Task::kTermVector;
    out.term_vector.resize(files.size());
    for (uint32_t f = 0; f < files.size(); ++f) {
      std::unordered_map<uint32_t, uint64_t> counts;
      for (uint32_t w : files[f]) {
        ++counts[w];
        if (meter != nullptr) meter->Charge(kCpuHashUpdateOps);
      }
      out.term_vector[f].assign(counts.begin(), counts.end());
      std::sort(out.term_vector[f].begin(), out.term_vector[f].end(),
                CountDescIdAsc);
      if (meter != nullptr) meter->Charge(counts.size() * 4);
    }
    return out;
  }
};

// ----------------------------------------------------------- sequenceCount ---

class SequenceCountKernel : public TaskKernel {
 public:
  Task task() const override { return Task::kSequenceCount; }
  const char* name() const override { return "sequenceCount"; }
  TraversalShape shape() const override { return TraversalShape::kSequence; }

  void AssembleSequence(const TaskInput& input, NgramRows rows,
                        AssemblyOps* ops, AnalyticsResult* out) const override {
    (void)input;
    ops->ChargeUpdates(rows.size());
    rows.SortByFileGram();
    out->sequence_count = SequenceCountResult(std::move(rows));
  }

  /// Appends the document's rows with offset file ids. Documents merged in
  /// corpus order keep the rows sorted; FinalizeMerge sorts any other order
  /// (and sums rows of overlapping file ranges).
  void Merge(const AnalyticsResult& doc, uint32_t file_base,
             AnalyticsResult* acc, uint64_t* merge_ops) const override {
    const SequenceCountResult& from = doc.sequence_count;
    SequenceCountResult& to = acc->sequence_count;
    if (from.empty()) return;
    to.ngram_len = from.ngram_len;
    for (uint32_t f : from.files) to.files.push_back(f + file_base);
    to.words.insert(to.words.end(), from.words.begin(), from.words.end());
    to.counts.insert(to.counts.end(), from.counts.begin(), from.counts.end());
    *merge_ops += from.size();
  }

  void FinalizeMerge(AnalyticsResult* acc, uint64_t* merge_ops) const override {
    (void)merge_ops;
    acc->sequence_count.SortByFileGram();
  }

  uint64_t ResultBytes(const AnalyticsResult& r,
                       uint32_t ngram_len) const override {
    return r.sequence_count.size() * (12 + 4ull * ngram_len);
  }

  bool Equal(const AnalyticsResult& a,
             const AnalyticsResult& b) const override {
    return a.sequence_count == b.sequence_count;
  }

  void DigestFold(const AnalyticsResult& r, uint64_t* h,
                  size_t* entries) const override {
    const SequenceCountResult& rows = r.sequence_count;
    for (size_t i = 0; i < rows.size(); ++i) {
      *h = HashCombine(*h, rows.files[i]);
      const uint32_t* gram = rows.gram(i);
      for (uint32_t k = 0; k < rows.ngram_len; ++k) {
        *h = HashCombine(*h, gram[k]);
      }
      *h = HashCombine(*h, rows.counts[i]);
      ++*entries;
    }
  }

  /// An ordered map keyed by (file, word sequence), kept as an independent
  /// oracle of the flat rows; its iteration order is their sort order.
  AnalyticsResult RunUncompressed(
      const std::vector<std::vector<uint32_t>>& files, const TaskInput& input,
      CpuCostMeter* meter) const override {
    AnalyticsResult out;
    out.task = Task::kSequenceCount;
    const uint32_t l = input.ngram_len;
    std::map<std::pair<uint32_t, std::vector<uint32_t>>, uint64_t> counts;
    for (uint32_t f = 0; f < files.size(); ++f) {
      const auto& file = files[f];
      if (file.size() < l) continue;
      for (size_t i = 0; i + l <= file.size(); ++i) {
        std::vector<uint32_t> gram(file.begin() + i, file.begin() + i + l);
        ++counts[{f, std::move(gram)}];
        if (meter != nullptr) meter->Charge(2 * l + kCpuSeqMapDescentOps);
      }
    }
    NgramRows rows;
    rows.ngram_len = l;
    rows.Reserve(counts.size());
    for (const auto& [key, c] : counts) {
      rows.Append(key.first, key.second.data(), c);
    }
    out.sequence_count = SequenceCountResult(std::move(rows));
    return out;
  }
};

// ---------------------------------------------------- rankedInvertedIndex ---

/// Builds a rankedInvertedIndex result from (file, gram, count) rows: one
/// stable radix order by file asc, then count desc, then gram (so the rows
/// end up by gram asc, count desc, file asc), then one pass that opens a
/// group at every new gram.
RankedInvertedIndexResult GroupByGram(const NgramRows& rows) {
  const size_t n = rows.size();
  const uint32_t l = rows.ngram_len;
  std::vector<uint32_t> order(n);
  std::iota(order.begin(), order.end(), 0u);
  StableSortByKey(std::vector<uint64_t>(rows.files.begin(), rows.files.end()),
                  &order);
  std::vector<uint64_t> count_desc(n);
  for (size_t i = 0; i < n; ++i) count_desc[i] = ~rows.counts[i];
  StableSortByKey(count_desc, &order);
  rows.StableSortByGram(&order);

  RankedInvertedIndexResult r;
  r.ngram_len = l;
  r.postings.reserve(n);
  for (size_t k = 0; k < n; ++k) {
    const uint32_t i = order[k];
    const uint32_t* gram = rows.gram(i);
    if (k == 0 || CompareGrams(rows.gram(order[k - 1]), gram, l) != 0) {
      if (k > 0) r.offsets.push_back(r.postings.size());
      r.grams.insert(r.grams.end(), gram, gram + l);
    }
    r.postings.emplace_back(rows.files[i], rows.counts[i]);
  }
  if (n > 0) r.offsets.push_back(n);
  return r;
}

class RankedInvertedIndexKernel : public TaskKernel {
 public:
  using Posting = RankedInvertedIndexResult::Posting;

  Task task() const override { return Task::kRankedInvertedIndex; }
  const char* name() const override { return "rankedInvertedIndex"; }
  TraversalShape shape() const override { return TraversalShape::kSequence; }

  void AssembleSequence(const TaskInput& input, NgramRows rows,
                        AssemblyOps* ops, AnalyticsResult* out) const override {
    (void)input;
    out->ranked_inverted_index = GroupByGram(rows);
    ops->ChargeUpdates(2 * rows.size());
    ops->ChargeGroupSort(out->ranked_inverted_index.size(), rows.size());
  }

  /// Appends the document's grams and postings (file ids offset) as further
  /// groups: one run sorted by gram per document. FinalizeMerge merges the
  /// runs.
  void Merge(const AnalyticsResult& doc, uint32_t file_base,
             AnalyticsResult* acc, uint64_t* merge_ops) const override {
    const RankedInvertedIndexResult& from = doc.ranked_inverted_index;
    RankedInvertedIndexResult& to = acc->ranked_inverted_index;
    if (from.empty()) return;
    to.ngram_len = from.ngram_len;
    to.grams.insert(to.grams.end(), from.grams.begin(), from.grams.end());
    const uint64_t base = to.postings.size();
    for (size_t g = 1; g < from.offsets.size(); ++g) {
      to.offsets.push_back(base + from.offsets[g]);
    }
    for (const auto& [f, c] : from.postings) {
      to.postings.emplace_back(f + file_base, c);
    }
    *merge_ops += from.postings.size();
  }

  /// A k-way merge of the natural runs (maximal stretches of strictly
  /// ascending grams, at least one per merged document) by gram. Runs that
  /// hold the same gram merge their posting lists, each already ordered by
  /// CountDescIdAsc, so the result equals GroupByGram over all postings
  /// whatever order the documents were merged in.
  void FinalizeMerge(AnalyticsResult* acc, uint64_t* merge_ops) const override {
    RankedInvertedIndexResult& r = acc->ranked_inverted_index;
    *merge_ops += 2 * r.postings.size();
    const uint32_t l = r.ngram_len;
    // A run's head carries its gram's first two words (l >= 2) as one key,
    // so most heap comparisons never leave the heap.
    struct Run {
      uint64_t head;  ///< words 0 and 1 of the next group's gram
      size_t group;   ///< the run's next group
      size_t end;
    };
    auto head_of = [&r](size_t g) {
      const uint32_t* gram = r.gram(g);
      return (uint64_t{gram[0]} << 32) | gram[1];
    };
    std::vector<Run> heap;
    for (size_t g = 0; g < r.size(); ++g) {
      if (g == 0 || CompareGrams(r.gram(g - 1), r.gram(g), l) >= 0) {
        if (!heap.empty()) heap.back().end = g;
        heap.push_back({head_of(g), g, r.size()});
      }
    }
    if (heap.size() <= 1) return;  // no gram repeats: already final
    auto compare = [&r, l](const Run& a, const Run& b) {
      if (a.head != b.head) return a.head < b.head ? -1 : 1;
      return CompareGrams(r.gram(a.group) + 2, r.gram(b.group) + 2, l - 2);
    };
    auto later = [&compare](const Run& a, const Run& b) {
      return compare(a, b) > 0;
    };
    std::make_heap(heap.begin(), heap.end(), later);
    RankedInvertedIndexResult out;
    out.ngram_len = l;
    out.grams.reserve(r.grams.size());
    out.postings.reserve(r.postings.size());
    while (!heap.empty()) {
      const Run top = heap.front();
      const uint32_t* gram = r.gram(top.group);
      out.grams.insert(out.grams.end(), gram, gram + l);
      const size_t first = out.postings.size();
      while (!heap.empty() && compare(heap.front(), top) == 0) {
        std::pop_heap(heap.begin(), heap.end(), later);
        Run& run = heap.back();
        const size_t mid = out.postings.size();
        out.postings.insert(out.postings.end(),
                            r.postings.begin() + r.offsets[run.group],
                            r.postings.begin() + r.offsets[run.group + 1]);
        std::inplace_merge(out.postings.begin() + first,
                           out.postings.begin() + mid, out.postings.end(),
                           CountDescIdAsc);
        if (++run.group < run.end) {
          run.head = head_of(run.group);
          std::push_heap(heap.begin(), heap.end(), later);
        } else {
          heap.pop_back();
        }
      }
      out.offsets.push_back(out.postings.size());
    }
    r = std::move(out);
  }

  uint64_t ResultBytes(const AnalyticsResult& r,
                       uint32_t ngram_len) const override {
    const RankedInvertedIndexResult& index = r.ranked_inverted_index;
    return index.size() * 4ull * ngram_len + index.postings.size() * 12;
  }

  bool Equal(const AnalyticsResult& a,
             const AnalyticsResult& b) const override {
    return a.ranked_inverted_index == b.ranked_inverted_index;
  }

  void DigestFold(const AnalyticsResult& r, uint64_t* h,
                  size_t* entries) const override {
    const RankedInvertedIndexResult& index = r.ranked_inverted_index;
    for (size_t i = 0; i < index.size(); ++i) {
      const uint32_t* gram = index.gram(i);
      for (uint32_t k = 0; k < index.ngram_len; ++k) {
        *h = HashCombine(*h, gram[k]);
      }
      for (const auto& [f, c] : index.postings_of(i)) {
        *h = HashCombine(HashCombine(*h, f), c);
      }
      ++*entries;
    }
  }

  /// Per-gram ordered maps, kept as an independent oracle of the flat
  /// grouping; the map's iteration order is the result's gram order.
  AnalyticsResult RunUncompressed(
      const std::vector<std::vector<uint32_t>>& files, const TaskInput& input,
      CpuCostMeter* meter) const override {
    AnalyticsResult out;
    out.task = Task::kRankedInvertedIndex;
    const uint32_t l = input.ngram_len;
    std::map<std::vector<uint32_t>, std::unordered_map<uint32_t, uint64_t>>
        per_gram;
    for (uint32_t f = 0; f < files.size(); ++f) {
      const auto& file = files[f];
      if (file.size() < l) continue;
      for (size_t i = 0; i + l <= file.size(); ++i) {
        std::vector<uint32_t> gram(file.begin() + i, file.begin() + i + l);
        ++per_gram[std::move(gram)][f];
        if (meter != nullptr) meter->Charge(2 * l + kCpuSeqMapDescentOps);
      }
    }
    RankedInvertedIndexResult& index = out.ranked_inverted_index;
    index.ngram_len = l;
    for (auto& [gram, counts] : per_gram) {
      std::vector<Posting> list(counts.begin(), counts.end());
      std::sort(list.begin(), list.end(), CountDescIdAsc);
      index.grams.insert(index.grams.end(), gram.begin(), gram.end());
      index.postings.insert(index.postings.end(), list.begin(), list.end());
      index.offsets.push_back(index.postings.size());
      if (meter != nullptr) meter->Charge(counts.size() * 4);
    }
    return out;
  }
};

// ----------------------------------------------------------- keywordSearch ---

/// Per-file hit totals of one query word set over pre-aggregated
/// (file, word, count) triples — the shared reduction of keywordSearch's
/// single- and multi-query assemblies.
KeywordSearchResult HitsForQuery(const std::vector<uint32_t>& query,
                                 const std::vector<FileWordCount>& counts) {
  std::vector<uint32_t> sorted = query;
  std::sort(sorted.begin(), sorted.end());
  std::map<uint32_t, uint64_t> hits;
  for (const FileWordCount& e : counts) {
    if (!std::binary_search(sorted.begin(), sorted.end(), e.word)) continue;
    hits[e.file] += e.count;
  }
  return KeywordSearchResult(hits.begin(), hits.end());
}

/// Folds one document's per-set results into the accumulator with file ids
/// offset — shared by the keyword and phrase kernels' Merge.
void MergeMultiQuery(const AnalyticsResult& doc, uint32_t file_base,
                     AnalyticsResult* acc, uint64_t* merge_ops) {
  if (acc->keyword_multi.size() < doc.keyword_multi.size()) {
    acc->keyword_multi.resize(doc.keyword_multi.size());
  }
  for (size_t q = 0; q < doc.keyword_multi.size(); ++q) {
    for (const auto& [f, hits] : doc.keyword_multi[q]) {
      acc->keyword_multi[q].emplace_back(f + file_base, hits);
      ++*merge_ops;
    }
  }
}

/// The seventh task, written purely against the framework: given a query
/// word set, return the documents (files) containing at least one query word
/// with their total hit counts — a grep-style selective scan. It rides the
/// per-file-weight shape and declares its accept set, which lets every
/// driver prune rules whose subtree contains no query word: the compressed
/// traversal touches only the matching corner of the grammar instead of the
/// whole token stream. With Options::query_sets the one pruned traversal
/// serves every set at once: the accept set is the union, and the assembly
/// splits the drained triples into per-set results bit-identical to
/// single-query runs.
class KeywordSearchKernel : public TaskKernel {
 public:
  Task task() const override { return Task::kKeywordSearch; }
  const char* name() const override { return "keywordSearch"; }
  TraversalShape shape() const override {
    return TraversalShape::kPerFileWeight;
  }

  const std::vector<uint32_t>* AcceptedWords(
      const TaskInput& input) const override {
    return &input.query_words;
  }

  void AssembleFileWord(const TaskInput& input, uint32_t num_files,
                        const std::vector<FileWordCount>& counts,
                        AssemblyOps* ops, AnalyticsResult* out) const override {
    (void)num_files;
    // Defensive re-filter: the result must be query-only even under a driver
    // that forgot to filter. (query_words is the union when sets are given.)
    out->keyword_search = HitsForQuery(input.query_words, counts);
    ops->ChargeUpdates(counts.size());
    if (!input.query_sets.empty()) {
      out->keyword_multi.clear();
      out->keyword_multi.reserve(input.query_sets.size());
      for (const auto& set : input.query_sets) {
        out->keyword_multi.push_back(HitsForQuery(set, counts));
      }
      ops->ChargeUpdates(counts.size() * input.query_sets.size());
    }
  }

  void Canonicalize(AnalyticsResult* r) const override {
    std::sort(r->keyword_search.begin(), r->keyword_search.end());
    for (auto& set : r->keyword_multi) std::sort(set.begin(), set.end());
  }

  void Merge(const AnalyticsResult& doc, uint32_t file_base,
             AnalyticsResult* acc, uint64_t* merge_ops) const override {
    for (const auto& [f, hits] : doc.keyword_search) {
      acc->keyword_search.emplace_back(f + file_base, hits);
      ++*merge_ops;
    }
    MergeMultiQuery(doc, file_base, acc, merge_ops);
  }

  void FinalizeMerge(AnalyticsResult* acc, uint64_t* merge_ops) const override {
    *merge_ops += acc->keyword_search.size();
    for (const auto& set : acc->keyword_multi) *merge_ops += set.size();
    Canonicalize(acc);
  }

  uint64_t ResultBytes(const AnalyticsResult& r,
                       uint32_t ngram_len) const override {
    (void)ngram_len;
    uint64_t bytes = r.keyword_search.size() * 12;
    for (const auto& set : r.keyword_multi) bytes += set.size() * 12;
    return bytes;
  }

  bool Equal(const AnalyticsResult& a,
             const AnalyticsResult& b) const override {
    return a.keyword_search == b.keyword_search &&
           a.keyword_multi == b.keyword_multi;
  }

  void DigestFold(const AnalyticsResult& r, uint64_t* h,
                  size_t* entries) const override {
    for (const auto& [f, hits] : r.keyword_search) {
      *h = HashCombine(HashCombine(*h, f), hits);
      ++*entries;
    }
    for (const auto& set : r.keyword_multi) {
      for (const auto& [f, hits] : set) {
        *h = HashCombine(HashCombine(*h, f), hits);
      }
      ++*entries;
    }
  }

  AnalyticsResult RunUncompressed(
      const std::vector<std::vector<uint32_t>>& files, const TaskInput& input,
      CpuCostMeter* meter) const override {
    AnalyticsResult out;
    out.task = Task::kKeywordSearch;
    auto scan = [&](const std::vector<uint32_t>& words) {
      KeywordSearchResult result;
      std::vector<uint32_t> query = words;
      std::sort(query.begin(), query.end());
      for (uint32_t f = 0; f < files.size(); ++f) {
        uint64_t hits = 0;
        for (uint32_t w : files[f]) {
          // One membership probe per token: the grep-style full scan the
          // compressed traversal is benchmarked against.
          if (std::binary_search(query.begin(), query.end(), w)) ++hits;
          if (meter != nullptr) meter->Charge(2);
        }
        if (hits > 0) result.emplace_back(f, hits);
      }
      return result;
    };
    out.keyword_search = scan(input.query_words);
    for (const auto& set : input.query_sets) {
      out.keyword_multi.push_back(scan(set));
    }
    return out;
  }
};

// ------------------------------------------------------------- topKWords ---

/// Per-file bounded selection: the k most frequent words of every file,
/// k from the engines' top_k option. The first kernel impossible under the
/// fixed accumulator shapes: its selection state is a BoundedHeapLayout —
/// per-group k-best heaps carved from the memory pool and reduced on the
/// device — instead of the full sort the `sort`/termVector assembly pays.
class TopKWordsKernel : public TaskKernel {
 public:
  Task task() const override { return Task::kTopKWords; }
  const char* name() const override { return "topKWords"; }
  TraversalShape shape() const override {
    return TraversalShape::kPerFileWeight;
  }

  uint64_t AssemblyStateSlots(const StateDims& dims,
                              const TaskInput& input) const override {
    // One BoundedHeap region per file, leased from the run's pool so
    // SelectTopK charges no extra allocation call.
    StateDims heap_dims;
    heap_dims.top_k = input.top_k;
    return dims.num_files *
           BoundedHeapLayout().SlotsForBound(heap_dims, input.top_k);
  }

  void AssembleFileWord(const TaskInput& input, uint32_t num_files,
                        const std::vector<FileWordCount>& counts,
                        AssemblyOps* ops, AnalyticsResult* out) const override {
    std::vector<std::vector<std::pair<uint32_t, uint64_t>>> groups(num_files);
    for (const FileWordCount& e : counts) {
      groups[e.file].emplace_back(e.word, e.count);
    }
    ops->ChargeUpdates(counts.size());
    ops->SelectTopK(input.top_k, &groups);
    out->top_k_words = std::move(groups);
  }

  void Canonicalize(AnalyticsResult* r) const override {
    for (auto& vec : r->top_k_words) {
      std::sort(vec.begin(), vec.end(), CountDescIdAsc);
    }
  }

  void Merge(const AnalyticsResult& doc, uint32_t file_base,
             AnalyticsResult* acc, uint64_t* merge_ops) const override {
    if (acc->top_k_words.size() < file_base + doc.top_k_words.size()) {
      acc->top_k_words.resize(file_base + doc.top_k_words.size());
    }
    for (size_t f = 0; f < doc.top_k_words.size(); ++f) {
      acc->top_k_words[file_base + f] = doc.top_k_words[f];
      *merge_ops += doc.top_k_words[f].size();
    }
  }

  uint64_t ResultBytes(const AnalyticsResult& r,
                       uint32_t ngram_len) const override {
    (void)ngram_len;
    uint64_t bytes = 0;
    for (const auto& v : r.top_k_words) bytes += 4 + v.size() * 12;
    return bytes;
  }

  bool Equal(const AnalyticsResult& a,
             const AnalyticsResult& b) const override {
    return a.top_k_words == b.top_k_words;
  }

  void DigestFold(const AnalyticsResult& r, uint64_t* h,
                  size_t* entries) const override {
    for (const auto& vec : r.top_k_words) {
      for (const auto& [w, c] : vec) *h = HashCombine(HashCombine(*h, w), c);
      ++*entries;
    }
  }

  AnalyticsResult RunUncompressed(
      const std::vector<std::vector<uint32_t>>& files, const TaskInput& input,
      CpuCostMeter* meter) const override {
    AnalyticsResult out;
    out.task = Task::kTopKWords;
    out.top_k_words.resize(files.size());
    for (uint32_t f = 0; f < files.size(); ++f) {
      std::unordered_map<uint32_t, uint64_t> counts;
      for (uint32_t w : files[f]) {
        ++counts[w];
        if (meter != nullptr) meter->Charge(kCpuHashUpdateOps);
      }
      // The reference baseline pays the full count + sort the device heaps
      // avoid; the truncation afterwards makes the outputs comparable.
      std::vector<std::pair<uint32_t, uint64_t>> all(counts.begin(),
                                                     counts.end());
      std::sort(all.begin(), all.end(), CountDescIdAsc);
      if (all.size() > input.top_k) all.resize(input.top_k);
      out.top_k_words[f] = std::move(all);
      if (meter != nullptr && !counts.empty()) {
        meter->Charge(4 * counts.size() * Log2Ceil(counts.size()));
      }
    }
    return out;
  }
};

// ----------------------------------------------------------------- tfIdf ---

/// Per-file scored term vectors: tf from the file's word counts (termVector
/// state), df from the word's distinct-file presence (invertedIndex state),
/// both composed out of one per-file-weight traversal. Scores are scaled
/// integers (tf * log2(N/df) in 1/1024 units, pure integer math), so every
/// engine and the batch merge produce bit-identical vectors.
class TfIdfKernel : public TaskKernel {
 public:
  Task task() const override { return Task::kTfIdf; }
  const char* name() const override { return "tfIdf"; }
  TraversalShape shape() const override {
    return TraversalShape::kPerFileWeight;
  }

  void AssembleFileWord(const TaskInput& input, uint32_t num_files,
                        const std::vector<FileWordCount>& counts,
                        AssemblyOps* ops, AnalyticsResult* out) const override {
    (void)input;
    std::unordered_map<uint32_t, uint32_t> df;
    for (const FileWordCount& e : counts) ++df[e.word];  // (file, word) unique
    out->tf_idf.assign(num_files, std::vector<TfIdfEntry>());
    for (const FileWordCount& e : counts) {
      TfIdfEntry entry;
      entry.word = e.word;
      entry.tf = e.count;
      entry.score = e.count * ScaledIdf(num_files, df[e.word]);
      out->tf_idf[e.file].push_back(entry);
    }
    ops->ChargeUpdates(2 * counts.size());
    ops->ChargeGroupSort(num_files, counts.size());
    // The caller's canonicalize pass supplies the per-file score ordering.
  }

  void Canonicalize(AnalyticsResult* r) const override {
    for (auto& vec : r->tf_idf) {
      std::sort(vec.begin(), vec.end(),
                [](const TfIdfEntry& a, const TfIdfEntry& b) {
                  if (a.score != b.score) return a.score > b.score;
                  return a.word < b.word;
                });
    }
  }

  void Merge(const AnalyticsResult& doc, uint32_t file_base,
             AnalyticsResult* acc, uint64_t* merge_ops) const override {
    if (acc->tf_idf.size() < file_base + doc.tf_idf.size()) {
      acc->tf_idf.resize(file_base + doc.tf_idf.size());
    }
    for (size_t f = 0; f < doc.tf_idf.size(); ++f) {
      // Term frequencies merge verbatim; the scores are document-local and
      // FinalizeMerge re-derives them from the corpus-wide df.
      acc->tf_idf[file_base + f] = doc.tf_idf[f];
      *merge_ops += doc.tf_idf[f].size();
    }
  }

  void FinalizeMerge(AnalyticsResult* acc, uint64_t* merge_ops) const override {
    const uint64_t num_files = acc->tf_idf.size();
    std::unordered_map<uint32_t, uint32_t> df;
    for (const auto& vec : acc->tf_idf) {
      for (const TfIdfEntry& e : vec) ++df[e.word];
    }
    for (auto& vec : acc->tf_idf) {
      for (TfIdfEntry& e : vec) {
        e.score = e.tf * ScaledIdf(num_files, df[e.word]);
        *merge_ops += 2;
      }
    }
    Canonicalize(acc);
  }

  uint64_t ResultBytes(const AnalyticsResult& r,
                       uint32_t ngram_len) const override {
    (void)ngram_len;
    uint64_t bytes = 0;
    for (const auto& v : r.tf_idf) bytes += 4 + v.size() * 20;
    return bytes;
  }

  bool Equal(const AnalyticsResult& a,
             const AnalyticsResult& b) const override {
    return a.tf_idf == b.tf_idf;
  }

  void DigestFold(const AnalyticsResult& r, uint64_t* h,
                  size_t* entries) const override {
    for (const auto& vec : r.tf_idf) {
      for (const TfIdfEntry& e : vec) {
        *h = HashCombine(HashCombine(HashCombine(*h, e.word), e.tf), e.score);
      }
      ++*entries;
    }
  }

  AnalyticsResult RunUncompressed(
      const std::vector<std::vector<uint32_t>>& files, const TaskInput& input,
      CpuCostMeter* meter) const override {
    (void)input;
    AnalyticsResult out;
    out.task = Task::kTfIdf;
    const uint64_t num_files = files.size();
    std::vector<std::unordered_map<uint32_t, uint64_t>> tf(files.size());
    std::unordered_map<uint32_t, uint32_t> df;
    for (uint32_t f = 0; f < files.size(); ++f) {
      for (uint32_t w : files[f]) {
        if (++tf[f][w] == 1) ++df[w];
        if (meter != nullptr) meter->Charge(kCpuHashUpdateOps);
      }
    }
    out.tf_idf.assign(files.size(), std::vector<TfIdfEntry>());
    for (uint32_t f = 0; f < files.size(); ++f) {
      for (const auto& [w, count] : tf[f]) {
        TfIdfEntry entry;
        entry.word = w;
        entry.tf = count;
        entry.score = count * ScaledIdf(num_files, df[w]);
        out.tf_idf[f].push_back(entry);
        if (meter != nullptr) meter->Charge(4);
      }
    }
    return out;
  }
};

// ------------------------------------------------------------ phraseSearch ---

/// Multi-word phrase hits per file, riding the sequence pipeline and the
/// multi-query seam: the window length is the phrase's length
/// (SequenceWindow), the head/tail machinery enumerates every l-window of
/// the compressed stream exactly once, and the assembly keeps only windows
/// equal to the phrase. With Options::query_sets each set is one phrase
/// (all sets must share a length — the window — for a set to match; other
/// lengths yield empty results) and one traversal serves them all. A
/// one-word "phrase" is keywordSearch's job: the window then falls back to
/// ngram_len and nothing matches.
class PhraseSearchKernel : public TaskKernel {
 public:
  Task task() const override { return Task::kPhraseSearch; }
  const char* name() const override { return "phraseSearch"; }
  TraversalShape shape() const override { return TraversalShape::kSequence; }

  uint32_t SequenceWindow(const TaskInput& input) const override {
    const std::vector<uint32_t>* phrase = &input.query_words;
    if (!input.query_sets.empty()) phrase = &input.query_sets.front();
    return phrase->size() >= 2 ? static_cast<uint32_t>(phrase->size())
                               : input.ngram_len;
  }

  /// Conjunctive pushdown: a phrase can only occur in a document that may
  /// contain EVERY one of its words, so a document passes iff some query
  /// phrase fully passes the root Bloom. (The traversal itself declares no
  /// word filter — window adjacency needs the full stream — which is why
  /// this override exists instead of the AcceptedWords-derived default.)
  bool MayMatchDocument(uint64_t root_bloom,
                        const TaskInput& input) const override {
    auto phrase_may = [root_bloom](const std::vector<uint32_t>& phrase) {
      if (phrase.empty()) return true;  // degenerate: stay conservative
      for (uint32_t w : phrase) {
        const uint64_t mask = WordBloomMask(w);
        if ((root_bloom & mask) != mask) return false;
      }
      return true;
    };
    if (input.query_sets.empty()) return phrase_may(input.query_words);
    for (const auto& phrase : input.query_sets) {
      if (phrase_may(phrase)) return true;
    }
    return false;
  }

  void AssembleSequence(const TaskInput& input, NgramRows rows,
                        AssemblyOps* ops, AnalyticsResult* out) const override {
    auto match = [&rows](const std::vector<uint32_t>& phrase) {
      std::map<uint32_t, uint64_t> hits;
      if (phrase.size() != rows.ngram_len) return PhraseSearchResult();
      for (size_t i = 0; i < rows.size(); ++i) {
        if (std::equal(phrase.begin(), phrase.end(), rows.gram(i))) {
          hits[rows.files[i]] += rows.counts[i];
        }
      }
      return PhraseSearchResult(hits.begin(), hits.end());
    };
    if (input.query_sets.empty()) {
      out->phrase_search = match(input.query_words);
      ops->ChargeUpdates(rows.size());
    } else {
      out->keyword_multi.clear();
      out->keyword_multi.reserve(input.query_sets.size());
      for (const auto& phrase : input.query_sets) {
        out->keyword_multi.push_back(match(phrase));
      }
      ops->ChargeUpdates(rows.size() * input.query_sets.size());
    }
  }

  void Canonicalize(AnalyticsResult* r) const override {
    std::sort(r->phrase_search.begin(), r->phrase_search.end());
    for (auto& set : r->keyword_multi) std::sort(set.begin(), set.end());
  }

  void Merge(const AnalyticsResult& doc, uint32_t file_base,
             AnalyticsResult* acc, uint64_t* merge_ops) const override {
    for (const auto& [f, hits] : doc.phrase_search) {
      acc->phrase_search.emplace_back(f + file_base, hits);
      ++*merge_ops;
    }
    MergeMultiQuery(doc, file_base, acc, merge_ops);
  }

  void FinalizeMerge(AnalyticsResult* acc, uint64_t* merge_ops) const override {
    *merge_ops += acc->phrase_search.size();
    for (const auto& set : acc->keyword_multi) *merge_ops += set.size();
    Canonicalize(acc);
  }

  uint64_t ResultBytes(const AnalyticsResult& r,
                       uint32_t ngram_len) const override {
    (void)ngram_len;
    uint64_t bytes = r.phrase_search.size() * 12;
    for (const auto& set : r.keyword_multi) bytes += set.size() * 12;
    return bytes;
  }

  bool Equal(const AnalyticsResult& a,
             const AnalyticsResult& b) const override {
    return a.phrase_search == b.phrase_search &&
           a.keyword_multi == b.keyword_multi;
  }

  void DigestFold(const AnalyticsResult& r, uint64_t* h,
                  size_t* entries) const override {
    for (const auto& [f, hits] : r.phrase_search) {
      *h = HashCombine(HashCombine(*h, f), hits);
      ++*entries;
    }
    for (const auto& set : r.keyword_multi) {
      for (const auto& [f, hits] : set) {
        *h = HashCombine(HashCombine(*h, f), hits);
      }
      ++*entries;
    }
  }

  AnalyticsResult RunUncompressed(
      const std::vector<std::vector<uint32_t>>& files, const TaskInput& input,
      CpuCostMeter* meter) const override {
    AnalyticsResult out;
    out.task = Task::kPhraseSearch;
    const uint32_t l = SequenceWindow(input);
    auto scan = [&](const std::vector<uint32_t>& phrase) {
      PhraseSearchResult result;
      if (phrase.size() != l) return result;
      for (uint32_t f = 0; f < files.size(); ++f) {
        const auto& file = files[f];
        uint64_t hits = 0;
        for (size_t i = 0; i + l <= file.size(); ++i) {
          if (std::equal(phrase.begin(), phrase.end(), file.begin() + i)) {
            ++hits;
          }
          if (meter != nullptr) meter->Charge(2);
        }
        if (hits > 0) result.emplace_back(f, hits);
      }
      return result;
    };
    if (input.query_sets.empty()) {
      out.phrase_search = scan(input.query_words);
    } else {
      for (const auto& phrase : input.query_sets) {
        out.keyword_multi.push_back(scan(phrase));
      }
    }
    return out;
  }
};

}  // namespace

// ---------------------------------------------------------------------------
// TaskRegistry
// ---------------------------------------------------------------------------

struct TaskRegistry::Impl {
  mutable std::mutex mu;
  std::map<int, std::unique_ptr<TaskKernel>> kernels;
};

TaskRegistry::TaskRegistry() : impl_(new Impl) {
  auto add = [this](std::unique_ptr<TaskKernel> k) {
    impl_->kernels.emplace(static_cast<int>(k->task()), std::move(k));
  };
  add(std::make_unique<WordCountKernel>());
  add(std::make_unique<SortKernel>());
  add(std::make_unique<InvertedIndexKernel>());
  add(std::make_unique<TermVectorKernel>());
  add(std::make_unique<SequenceCountKernel>());
  add(std::make_unique<RankedInvertedIndexKernel>());
  add(std::make_unique<KeywordSearchKernel>());
  add(std::make_unique<TopKWordsKernel>());
  add(std::make_unique<TfIdfKernel>());
  add(std::make_unique<PhraseSearchKernel>());
}

TaskRegistry& TaskRegistry::Instance() {
  static TaskRegistry* registry = new TaskRegistry();
  return *registry;
}

Status TaskRegistry::Register(std::unique_ptr<TaskKernel> kernel) {
  if (kernel == nullptr) {
    return Status::InvalidArgument("cannot register a null kernel");
  }
  std::lock_guard<std::mutex> lock(impl_->mu);
  const int id = static_cast<int>(kernel->task());
  auto it = impl_->kernels.find(id);
  if (it != impl_->kernels.end()) {
    return Status::InvalidArgument(
        std::string("task id already registered: ") + it->second->name());
  }
  impl_->kernels.emplace(id, std::move(kernel));
  return Status::OK();
}

Result<const TaskKernel*> TaskRegistry::Get(Task task) {
  const TaskKernel* kernel = Find(task);
  if (kernel == nullptr) {
    return Status::NotFound("no task kernel registered for task id " +
                            std::to_string(static_cast<int>(task)));
  }
  return kernel;
}

const TaskKernel* TaskRegistry::Find(Task task) {
  TaskRegistry& reg = Instance();
  std::lock_guard<std::mutex> lock(reg.impl_->mu);
  auto it = reg.impl_->kernels.find(static_cast<int>(task));
  return it == reg.impl_->kernels.end() ? nullptr : it->second.get();
}

std::vector<Task> TaskRegistry::RegisteredTasks() {
  TaskRegistry& reg = Instance();
  std::lock_guard<std::mutex> lock(reg.impl_->mu);
  std::vector<Task> tasks;
  tasks.reserve(reg.impl_->kernels.size());
  for (const auto& [id, kernel] : reg.impl_->kernels) {
    (void)kernel;
    tasks.push_back(static_cast<Task>(id));
  }
  return tasks;
}

}  // namespace gtadoc
