#include "format/dag.h"

#include <algorithm>
#include <atomic>

#include "common/hash.h"

namespace gtadoc {

namespace {

std::atomic<uint64_t> g_dag_builds{0};

/// Appends the (id, count) pairs of `touched` (ids whose `count` is
/// non-zero, in any order) sorted by id, and zeroes their counters.
void EmitSorted(std::vector<uint32_t>* touched, std::vector<uint32_t>* count,
                std::vector<uint32_t>* ids, std::vector<uint32_t>* freqs) {
  std::sort(touched->begin(), touched->end());
  for (uint32_t id : *touched) {
    ids->push_back(id);
    freqs->push_back((*count)[id]);
    (*count)[id] = 0;
  }
  touched->clear();
}

}  // namespace

uint64_t DagView::builds() {
  return g_dag_builds.load(std::memory_order_relaxed);
}

Result<DagView> DagView::Build(const Grammar& g) {
  g_dag_builds.fetch_add(1, std::memory_order_relaxed);
  if (g.rules.empty()) return Status::Corruption("grammar has no rules");
  if (g.rules[0].empty()) return Status::Corruption("root rule is empty");
  const uint32_t n = static_cast<uint32_t>(g.rules.size());

  DagView v;
  Arrays& a = v.a_;
  a.child_off.assign(n + 1, 0);
  a.word_off.assign(n + 1, 0);
  a.body_off.assign(n + 1, 0);
  a.root_file.reserve(g.rules[0].size());

  // Aggregate bodies with dense per-id counters: a counter is bumped per
  // occurrence and its id remembered on first touch, so each rule costs
  // O(body + distinct log distinct) and resets only what it touched. Word
  // ids are sorted and run-length counted instead: num_words may be far
  // larger than any body (a hostile header), so no word-indexed array is
  // allocated.
  std::vector<uint32_t> child_count(n, 0);
  std::vector<uint32_t> touched;
  std::vector<uint32_t> words;
  uint32_t file = 0;  // root file cursor: splitters seen so far
  for (uint32_t r = 0; r < n; ++r) {
    const std::vector<uint32_t>& body = g.rules[r];
    a.body_off[r + 1] = a.body_off[r] + body.size();
    for (uint32_t sym : body) {
      if (g.IsRule(sym)) {
        const uint32_t child = g.RuleIndex(sym);
        if (child >= n) return Status::Corruption("rule id out of range");
        if (child == r) return Status::Corruption("rule references itself");
        if (child_count[child]++ == 0) touched.push_back(child);
      } else if (g.IsWord(sym)) {
        words.push_back(sym);
      } else {
        // Splitters may only appear in the root, and in file order: the
        // k-th splitter must be splitter k, so counting splitters (the root
        // file ids) and reading a splitter's index agree.
        if (r != 0) return Status::Corruption("splitter outside root rule");
        if (g.SplitterIndex(sym) != file) {
          return Status::Corruption("root splitters out of file order");
        }
        ++file;
      }
      if (r == 0) a.root_file.push_back(file);
    }
    EmitSorted(&touched, &child_count, &a.child_id, &a.child_freq);
    a.child_off[r + 1] = static_cast<uint32_t>(a.child_id.size());
    std::sort(words.begin(), words.end());
    for (size_t i = 0; i < words.size();) {
      size_t j = i + 1;
      while (j < words.size() && words[j] == words[i]) ++j;
      a.word_id.push_back(words[i]);
      a.word_freq.push_back(static_cast<uint32_t>(j - i));
      i = j;
    }
    words.clear();
    a.word_off[r + 1] = static_cast<uint32_t>(a.word_id.size());
  }

  // Parents (CSR, ascending parent index), in-edge counts, root
  // frequencies. child_count is all zeros again and doubles as the fill
  // cursor.
  a.parent_off.assign(n + 1, 0);
  a.in_edges_nonroot.assign(n, 0);
  a.root_freq.assign(n, 0);
  for (uint32_t r = 0; r < n; ++r) {
    for (uint32_t e = a.child_off[r]; e < a.child_off[r + 1]; ++e) {
      const uint32_t c = a.child_id[e];
      ++a.parent_off[c + 1];
      if (r != 0) ++a.in_edges_nonroot[c];
      if (r == 0) a.root_freq[c] = a.child_freq[e];
    }
  }
  for (uint32_t r = 0; r < n; ++r) a.parent_off[r + 1] += a.parent_off[r];
  a.parent_id.resize(a.parent_off[n]);
  std::vector<uint32_t>& cursor = child_count;
  for (uint32_t r = 0; r < n; ++r) {
    for (uint32_t e = a.child_off[r]; e < a.child_off[r + 1]; ++e) {
      const uint32_t c = a.child_id[e];
      a.parent_id[a.parent_off[c] + cursor[c]++] = r;
    }
  }

  // Kahn topological sort from the root; also computes depths and rejects
  // cycles and rules unreachable from the root. topo_order doubles as the
  // FIFO queue.
  if (a.parent_off[1] != 0) return Status::Corruption("root rule has a parent");
  std::vector<uint32_t>& pending = cursor;  // distinct parents per rule
  a.depth.assign(n, 0);
  a.topo_order.reserve(n);
  a.topo_order.push_back(0);
  for (size_t head = 0; head < a.topo_order.size(); ++head) {
    const uint32_t r = a.topo_order[head];
    for (uint32_t e = a.child_off[r]; e < a.child_off[r + 1]; ++e) {
      const uint32_t c = a.child_id[e];
      a.depth[c] = std::max(a.depth[c], a.depth[r] + 1);
      if (--pending[c] == 0) a.topo_order.push_back(c);
    }
  }
  if (a.topo_order.size() != n) {
    return Status::Corruption("grammar has a cycle or unreachable rules");
  }
  v.max_depth_ = *std::max_element(a.depth.begin(), a.depth.end());
  for (std::vector<uint32_t>* grown :
       {&a.child_id, &a.child_freq, &a.word_id, &a.word_freq}) {
    grown->shrink_to_fit();
  }
  return v;
}

uint64_t GrammarFingerprint(const Grammar& g) {
  uint64_t h = HashCombine(HashCombine(0x47544443ull, g.num_words),
                           g.num_splitters);
  h = HashCombine(h, g.rules.size());
  for (const auto& body : g.rules) {
    h = HashCombine(h, body.size());
    if (!body.empty()) {
      h = HashCombine(h, Fnv1a64(body.data(), body.size() * sizeof(uint32_t)));
    }
  }
  return h;
}

Result<PreparedDocument> PreparedDocument::Prepare(const Grammar& g) {
  auto dag = DagView::Build(g);
  if (!dag.ok()) return dag.status();
  PreparedDocument doc;
  doc.dag = std::move(*dag);
  doc.fingerprint = GrammarFingerprint(g);
  return doc;
}

Result<DagStats> ComputeDagStats(const Grammar& g) {
  auto view = DagView::Build(g);
  if (!view.ok()) return view.status();
  const DagView& v = *view;

  DagStats s;
  s.num_rules = v.num_rules();
  s.vocabulary_size = g.num_words;
  s.num_files = g.num_files();
  s.max_depth = v.max_depth();
  s.num_edges = v.num_edges();
  s.total_body_symbols = v.body_off(v.num_rules());
  s.avg_body_length = static_cast<double>(s.total_body_symbols) /
                      static_cast<double>(s.num_rules);

  // Expanded token counts per rule, children before parents (reverse topo).
  std::vector<uint64_t> expanded(v.num_rules(), 0);
  const std::vector<uint32_t>& order = v.topo_order();
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const uint32_t r = *it;
    uint64_t total = 0;
    for (const RuleWordEntry& w : v.words(r)) total += w.freq;
    for (const RuleChildEntry& e : v.children(r)) {
      total += static_cast<uint64_t>(e.freq) * expanded[e.child];
    }
    expanded[r] = total;
  }
  s.expanded_tokens = expanded[0];
  s.reuse_factor = s.total_body_symbols == 0
                       ? 0.0
                       : static_cast<double>(s.expanded_tokens) /
                             static_cast<double>(s.total_body_symbols);
  return s;
}

Status ComputeRuleBlooms(Grammar* g) {
  auto view = DagView::Build(*g);
  if (!view.ok()) return view.status();
  const DagView& v = *view;
  g->rule_blooms.assign(v.num_rules(), 0);
  const std::vector<uint32_t>& order = v.topo_order();
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const uint32_t r = *it;
    uint64_t bloom = 0;
    for (const RuleWordEntry& w : v.words(r)) bloom |= WordBloomMask(w.word);
    for (const RuleChildEntry& e : v.children(r)) {
      bloom |= g->rule_blooms[e.child];
    }
    g->rule_blooms[r] = bloom;
  }
  return Status::OK();
}

}  // namespace gtadoc
