#ifndef GTADOC_ANALYTICS_RESULTS_H_
#define GTADOC_ANALYTICS_RESULTS_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/ngram_rows.h"

namespace gtadoc {

/// The analytics tasks: the six of TADOC/CompressDirect (Section V of the
/// paper; semantics follow the Puma benchmark suite the TADOC line evaluates)
/// plus keyword search, the first task added through the TaskKernel registry.
/// Out-of-tree kernels may register further ids beyond the named ones (see
/// analytics/task_kernel.h).
enum class Task : int {
  kWordCount = 0,
  kSort = 1,
  kInvertedIndex = 2,
  kTermVector = 3,
  kSequenceCount = 4,
  kRankedInvertedIndex = 5,
  kKeywordSearch = 6,
  kTopKWords = 7,
  kTfIdf = 8,
  kPhraseSearch = 9,
};

/// Kernel name for a registered task, "?" otherwise (display helper; the
/// authoritative name lives on the kernel).
const char* TaskName(Task task);
/// The paper's six tasks in the paper's order (benchmark drivers iterate
/// these; TaskRegistry::RegisteredTasks() lists every registered task).
std::vector<Task> AllTasks();
/// True for tasks that need the head/tail sequence machinery (delegates to
/// the kernel's traversal shape).
bool IsSequenceTask(Task task);

/// word id -> total frequency across all files.
using WordCountResult = std::map<uint32_t, uint64_t>;

/// (word id, frequency) ordered by frequency desc, then word id asc.
using SortResult = std::vector<std::pair<uint32_t, uint64_t>>;

/// word id -> sorted list of file ids containing it.
using InvertedIndexResult = std::map<uint32_t, std::vector<uint32_t>>;

/// Per file: (word id, frequency) ordered by frequency desc, word id asc.
using TermVectorResult =
    std::vector<std::vector<std::pair<uint32_t, uint64_t>>>;

/// sequenceCount: one row per distinct (file id, l-gram) with its count,
/// sorted by (file, gram) — the gram is the l concatenated word ids, so the
/// rows are in the order of an ordered map keyed by (file, word sequence).
/// Assembly is one stable radix order of the drained rows
/// (NgramRows::SortByFileGram); a corpus merge appends rows with offset file
/// ids, which keeps them sorted when documents merge in corpus order.
struct SequenceCountResult : NgramRows {
  SequenceCountResult() = default;
  /// Adopts rows already ordered by NgramRows::SortByFileGram.
  explicit SequenceCountResult(NgramRows sorted)
      : NgramRows(std::move(sorted)) {}

  /// Count of `gram` in `file`, 0 when absent (binary search).
  uint64_t Count(uint32_t file, const std::vector<uint32_t>& gram) const;
};

/// rankedInvertedIndex: every distinct l-gram in lexicographic order with
/// its postings, (file id, count) ordered by count desc then file id asc.
/// Compressed sparse rows: gram i is grams[i*l, (i+1)*l) and its postings
/// are postings[offsets[i], offsets[i+1]). Assembly is one stable radix
/// order of the drained rows (file, then count desc, then gram); a corpus
/// merge appends each document's groups as one run sorted by gram, and
/// FinalizeMergedResult merges the runs by gram.
struct RankedInvertedIndexResult {
  using Posting = std::pair<uint32_t, uint64_t>;

  /// One gram's postings (a view into `postings`).
  class PostingRange {
   public:
    PostingRange() = default;
    PostingRange(const Posting* begin, const Posting* end)
        : begin_(begin), end_(end) {}
    const Posting* begin() const { return begin_; }
    const Posting* end() const { return end_; }
    size_t size() const { return static_cast<size_t>(end_ - begin_); }
    bool empty() const { return begin_ == end_; }
    const Posting& operator[](size_t i) const { return begin_[i]; }

   private:
    const Posting* begin_ = nullptr;
    const Posting* end_ = nullptr;
  };

  uint32_t ngram_len = 0;  ///< l, the words per gram
  std::vector<uint32_t> grams;
  std::vector<uint64_t> offsets = {0};  ///< size() + 1 entries
  std::vector<Posting> postings;

  size_t size() const { return offsets.size() - 1; }
  bool empty() const { return size() == 0; }
  const uint32_t* gram(size_t i) const { return grams.data() + i * ngram_len; }
  PostingRange postings_of(size_t i) const {
    return PostingRange(postings.data() + offsets[i],
                        postings.data() + offsets[i + 1]);
  }
  /// Postings of `gram`, empty when absent (binary search).
  PostingRange Postings(const std::vector<uint32_t>& gram) const;

  bool operator==(const RankedInvertedIndexResult& o) const {
    return grams == o.grams && offsets == o.offsets && postings == o.postings;
  }
};

/// (file id, total query-word hits) for every file containing at least one
/// query word, ordered by file id asc.
using KeywordSearchResult = std::vector<std::pair<uint32_t, uint64_t>>;

/// (file id, phrase occurrence count) for every file containing the phrase
/// at least once, ordered by file id asc (kPhraseSearch).
using PhraseSearchResult = std::vector<std::pair<uint32_t, uint64_t>>;

/// Per file: the k most frequent words as (word id, frequency), ordered by
/// frequency desc then word id asc (k from the engines' top_k option).
using TopKWordsResult = std::vector<std::vector<std::pair<uint32_t, uint64_t>>>;

/// One scored term of a file's tf-idf vector. The score is
/// tf * log2(num_files / df) in 1/1024 fixed-point units, computed with pure
/// integer math so every engine produces bit-identical vectors.
struct TfIdfEntry {
  uint32_t word = 0;
  uint64_t tf = 0;     ///< term frequency in the file
  uint64_t score = 0;  ///< scaled tf-idf

  bool operator==(const TfIdfEntry& o) const {
    return word == o.word && tf == o.tf && score == o.score;
  }
};

/// Per file: tf-idf entries ordered by score desc then word id asc. Entries
/// with idf 0 (words present in every file) are kept with score 0 so merges
/// can recompute document frequencies exactly.
using TfIdfResult = std::vector<std::vector<TfIdfEntry>>;

/// \brief Union holder for one task's output, so engines can expose a single
/// `Run(task)` entry point. Only the member matching `task` is populated.
struct AnalyticsResult {
  Task task = Task::kWordCount;
  WordCountResult word_count;
  SortResult sort;
  InvertedIndexResult inverted_index;
  TermVectorResult term_vector;
  SequenceCountResult sequence_count;
  RankedInvertedIndexResult ranked_inverted_index;
  KeywordSearchResult keyword_search;
  TopKWordsResult top_k_words;
  TfIdfResult tf_idf;
  PhraseSearchResult phrase_search;
  /// Per-query-set results of a multi-query run (Options::query_sets):
  /// keyword_multi[i] is query set i's result, bit-identical to a
  /// single-query run of that set. Populated by kKeywordSearch (hits per
  /// file) and kPhraseSearch (phrase counts per file); empty otherwise.
  std::vector<KeywordSearchResult> keyword_multi;

  /// Structural equality on the member selected by `task`.
  bool SameAs(const AnalyticsResult& other) const;
  /// Small human-readable digest (sizes and a checksum) for logging.
  std::string Digest() const;
};

/// Canonicalizes orderings that the task definitions leave ambiguous (ties in
/// sort/termVector are broken by word id; file lists sorted).
void Canonicalize(AnalyticsResult* result);

/// \brief Folds one document's (or partition's) result into a corpus-level
/// accumulator, shared by the coarse-grained CPU baseline and the GPU batch
/// engine so both merge identically.
///
/// The document's local file ids are offset by `file_base` (its first global
/// file id); word-keyed tables sum, file-keyed tables concatenate. Documents
/// must share one word-id space (a common dictionary). For wordCount *and*
/// sort the counts accumulate into `acc->word_count`; FinalizeMergedResult
/// rebuilds the derived orderings afterwards. Merge work is counted into
/// `merge_ops` with the engines' charge discipline (one op per moved entry).
void MergeResult(const AnalyticsResult& doc, uint32_t file_base,
                 AnalyticsResult* acc, uint64_t* merge_ops);

/// Completes an accumulator built by MergeResult: materializes sort from the
/// accumulated word counts, merges the per-document rankedInvertedIndex
/// runs, and canonicalizes.
void FinalizeMergedResult(AnalyticsResult* acc, uint64_t* merge_ops);

/// Serialized size estimate of a result in bytes — the D2H drain volume of a
/// GPU run and the shuffle volume of the distributed baseline.
uint64_t ResultBytes(const AnalyticsResult& r, uint32_t ngram_len);

}  // namespace gtadoc

#endif  // GTADOC_ANALYTICS_RESULTS_H_
