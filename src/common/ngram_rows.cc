#include "common/ngram_rows.h"

#include <algorithm>
#include <numeric>
#include <utility>

namespace gtadoc {

namespace {

/// Radix digit width of StableSortByKey: 2048 buckets, so a 32-bit id takes
/// at most three passes and a 64-bit key six.
constexpr int kDigitBits = 11;
constexpr uint64_t kDigitMask = (uint64_t{1} << kDigitBits) - 1;

}  // namespace

int CompareGrams(const uint32_t* a, const uint32_t* b, uint32_t l) {
  for (uint32_t i = 0; i < l; ++i) {
    if (a[i] != b[i]) return a[i] < b[i] ? -1 : 1;
  }
  return 0;
}

void StableSortByKey(const std::vector<uint64_t>& keys,
                     std::vector<uint32_t>* order) {
  const size_t n = order->size();
  if (n < 2) return;
  // The keys in permutation order travel with the indices, so every pass
  // reads them sequentially. `differ` has a bit set wherever two keys
  // differ; a digit with none set would be an identity pass.
  std::vector<uint64_t> key(n);
  uint64_t differ = 0;
  for (size_t p = 0; p < n; ++p) {
    key[p] = keys[(*order)[p]];
    differ |= key[p] ^ key[0];
  }
  if (differ == 0) return;
  std::vector<uint64_t> key_out(n);
  std::vector<uint32_t> order_out(n);
  std::vector<size_t> bucket(kDigitMask + 1);
  for (int shift = 0; shift < 64; shift += kDigitBits) {
    if (((differ >> shift) & kDigitMask) == 0) continue;
    std::fill(bucket.begin(), bucket.end(), 0);
    for (uint64_t k : key) ++bucket[(k >> shift) & kDigitMask];
    size_t start = 0;
    for (size_t& b : bucket) start += std::exchange(b, start);
    for (size_t p = 0; p < n; ++p) {
      const size_t dst = bucket[(key[p] >> shift) & kDigitMask]++;
      key_out[dst] = key[p];
      order_out[dst] = (*order)[p];
    }
    key.swap(key_out);
    order->swap(order_out);
  }
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

void NgramRows::StableSortByGram(std::vector<uint32_t>* order) const {
  std::vector<uint64_t> key(size());
  for (uint32_t j = ngram_len; j-- > 0;) {
    for (size_t i = 0; i < size(); ++i) key[i] = words[i * ngram_len + j];
    StableSortByKey(key, order);
  }
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
  StableSortByGram(&order);
  StableSortByKey(std::vector<uint64_t>(files.begin(), files.end()), &order);
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
