#include "analytics/results.h"

#include <algorithm>
#include <sstream>

#include "analytics/task_kernel.h"

namespace gtadoc {

// Every per-task branch lives on the task's kernel (analytics/task_kernel.cc);
// these free functions are the registry-backed entry points the rest of the
// system calls, and they work for out-of-tree kernels too.

const char* TaskName(Task task) {
  const TaskKernel* kernel = TaskRegistry::Find(task);
  return kernel == nullptr ? "?" : kernel->name();
}

std::vector<Task> AllTasks() {
  return {Task::kWordCount,     Task::kSort,
          Task::kInvertedIndex, Task::kTermVector,
          Task::kSequenceCount, Task::kRankedInvertedIndex};
}

bool IsSequenceTask(Task task) {
  const TaskKernel* kernel = TaskRegistry::Find(task);
  return kernel != nullptr && kernel->sequence_sensitive();
}

void Canonicalize(AnalyticsResult* result) {
  const TaskKernel* kernel = TaskRegistry::Find(result->task);
  if (kernel != nullptr) kernel->Canonicalize(result);
}

void MergeResult(const AnalyticsResult& doc, uint32_t file_base,
                 AnalyticsResult* acc, uint64_t* merge_ops) {
  const TaskKernel* kernel = TaskRegistry::Find(acc->task);
  if (kernel != nullptr) kernel->Merge(doc, file_base, acc, merge_ops);
}

void FinalizeMergedResult(AnalyticsResult* acc, uint64_t* merge_ops) {
  const TaskKernel* kernel = TaskRegistry::Find(acc->task);
  if (kernel != nullptr) kernel->FinalizeMerge(acc, merge_ops);
}

uint64_t ResultBytes(const AnalyticsResult& r, uint32_t ngram_len) {
  const TaskKernel* kernel = TaskRegistry::Find(r.task);
  return kernel == nullptr ? 0 : kernel->ResultBytes(r, ngram_len);
}

namespace {

/// First index in [lo, hi) whose l-word gram in `grams` is not less than
/// `key`; the grams of the range must be sorted.
size_t LowerBoundGram(const uint32_t* grams, uint32_t l, size_t lo, size_t hi,
                      const uint32_t* key) {
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    if (CompareGrams(grams + mid * l, key, l) < 0) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

}  // namespace

uint64_t SequenceCountResult::Count(uint32_t file,
                                    const std::vector<uint32_t>& gram) const {
  if (gram.size() != ngram_len) return 0;
  const uint32_t* key = gram.data();
  const auto [first, last] = std::equal_range(files.begin(), files.end(), file);
  const size_t lo = first - files.begin();
  const size_t hi = last - files.begin();
  const size_t i = LowerBoundGram(words.data(), ngram_len, lo, hi, key);
  if (i == hi || CompareGrams(this->gram(i), key, ngram_len) != 0) return 0;
  return counts[i];
}

RankedInvertedIndexResult::PostingRange RankedInvertedIndexResult::Postings(
    const std::vector<uint32_t>& gram) const {
  if (gram.size() != ngram_len) return PostingRange();
  const uint32_t* key = gram.data();
  const size_t i = LowerBoundGram(grams.data(), ngram_len, 0, size(), key);
  if (i == size() || CompareGrams(this->gram(i), key, ngram_len) != 0) {
    return PostingRange();
  }
  return postings_of(i);
}

bool AnalyticsResult::SameAs(const AnalyticsResult& other) const {
  if (task != other.task) return false;
  const TaskKernel* kernel = TaskRegistry::Find(task);
  return kernel != nullptr && kernel->Equal(*this, other);
}

std::string AnalyticsResult::Digest() const {
  uint64_t h = 0;
  size_t entries = 0;
  const TaskKernel* kernel = TaskRegistry::Find(task);
  if (kernel != nullptr) kernel->DigestFold(*this, &h, &entries);
  std::ostringstream os;
  os << TaskName(task) << "{entries=" << entries << ", digest=" << std::hex << h
     << "}";
  return os.str();
}

}  // namespace gtadoc
