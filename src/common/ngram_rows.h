#ifndef GTADOC_COMMON_NGRAM_ROWS_H_
#define GTADOC_COMMON_NGRAM_ROWS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace gtadoc {

/// Three-way lexicographic comparison of two l-word grams (<0, 0, >0).
int CompareGrams(const uint32_t* a, const uint32_t* b, uint32_t l);

/// Stable LSD radix sort of the row permutation `order` by `keys[i]`, the
/// key of row i. Rows with equal keys keep their relative order, so one call
/// per column, least significant column first, orders the rows by all the
/// columns. 11-bit digits; a digit on which no two keys differ is skipped.
void StableSortByKey(const std::vector<uint64_t>& keys,
                     std::vector<uint32_t>* order);

/// \brief (file, l-gram, count) rows as a struct of arrays.
///
/// The one n-gram currency of the sequence pipeline: GpuNgramTable::Drain
/// produces it, the CPU engine and the uncompressed baselines produce it,
/// and TaskKernel::AssembleSequence consumes it. Row i's gram is the l word
/// ids words[i*l, (i+1)*l), so a row owns no allocation of its own.
struct NgramRows {
  uint32_t ngram_len = 0;  ///< l, the words per gram
  std::vector<uint32_t> files;
  std::vector<uint32_t> words;  ///< size() * ngram_len word ids
  std::vector<uint64_t> counts;

  size_t size() const { return files.size(); }
  bool empty() const { return files.empty(); }
  const uint32_t* gram(size_t i) const { return words.data() + i * ngram_len; }

  void Reserve(size_t n);
  void Append(uint32_t file, const uint32_t* gram, uint64_t count);

  /// Stable-sorts the row permutation `order` by gram: one StableSortByKey
  /// pass per word column, last word first.
  void StableSortByGram(std::vector<uint32_t>* order) const;

  /// Orders the rows by (file, gram) and folds rows with equal keys into
  /// one, summing their counts. Rows that are already strictly ordered (a
  /// corpus-order merge) are left untouched after one linear check; any
  /// other order is one radix order, by gram and then by file.
  void SortByFileGram();

  /// Row-wise equality (ngram_len is implied by non-empty rows).
  bool operator==(const NgramRows& o) const {
    return files == o.files && words == o.words && counts == o.counts;
  }
};

}  // namespace gtadoc

#endif  // GTADOC_COMMON_NGRAM_ROWS_H_
