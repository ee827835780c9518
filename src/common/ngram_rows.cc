#include "common/ngram_rows.h"

#include <algorithm>
#include <numeric>
#include <utility>

namespace gtadoc {

int CompareGrams(const uint32_t* a, const uint32_t* b, uint32_t l) {
  for (uint32_t i = 0; i < l; ++i) {
    if (a[i] != b[i]) return a[i] < b[i] ? -1 : 1;
  }
  return 0;
}

void NgramRows::Reserve(size_t n) {
  files.reserve(n);
  words.reserve(n * ngram_len);
  counts.reserve(n);
}

void NgramRows::Append(uint32_t file, const uint32_t* gram, uint64_t count) {
  files.push_back(file);
  words.insert(words.end(), gram, gram + ngram_len);
  counts.push_back(count);
}

void NgramRows::SortByFileGram() {
  auto compare = [this](size_t a, size_t b) {
    if (files[a] != files[b]) return files[a] < files[b] ? -1 : 1;
    return CompareGrams(gram(a), gram(b), ngram_len);
  };
  bool ordered = true;
  for (size_t i = 1; i < size() && ordered; ++i) {
    ordered = compare(i - 1, i) < 0;
  }
  if (ordered) return;

  std::vector<uint32_t> order(size());
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(), [&compare](uint32_t a, uint32_t b) {
    return compare(a, b) < 0;
  });
  NgramRows sorted;
  sorted.ngram_len = ngram_len;
  sorted.Reserve(size());
  for (size_t k = 0; k < order.size(); ++k) {
    const uint32_t i = order[k];
    if (k > 0 && compare(order[k - 1], i) == 0) {
      sorted.counts.back() += counts[i];
    } else {
      sorted.Append(files[i], gram(i), counts[i]);
    }
  }
  *this = std::move(sorted);
}

}  // namespace gtadoc
