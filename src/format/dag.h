#ifndef GTADOC_FORMAT_DAG_H_
#define GTADOC_FORMAT_DAG_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/result.h"
#include "format/grammar.h"

namespace gtadoc {

/// One aggregated rule->subrule edge: `child` occurs `freq` times in the
/// parent's body (Algorithm 1's `subRuleId, subRuleFreq` pairs).
struct RuleChildEntry {
  uint32_t child;  // rule index
  uint32_t freq;
};

/// One aggregated local word: word terminal `word` occurs `freq` times
/// directly in the rule body (splitters excluded).
struct RuleWordEntry {
  uint32_t word;
  uint32_t freq;
};

/// Read-only view of one rule's aggregated (id, freq) pairs, stored as two
/// parallel arrays; iterates `Entry` values ({id, freq}).
template <typename Entry>
class DagEntryRange {
 public:
  class Iterator {
   public:
    Iterator(const uint32_t* id, const uint32_t* freq) : id_(id), freq_(freq) {}
    Entry operator*() const { return Entry{*id_, *freq_}; }
    Iterator& operator++() {
      ++id_;
      ++freq_;
      return *this;
    }
    bool operator!=(const Iterator& o) const { return id_ != o.id_; }

   private:
    const uint32_t* id_;
    const uint32_t* freq_;
  };

  DagEntryRange(const uint32_t* id, const uint32_t* freq, size_t size)
      : id_(id), freq_(freq), size_(size) {}
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  Entry operator[](size_t i) const { return Entry{id_[i], freq_[i]}; }
  Iterator begin() const { return Iterator(id_, freq_); }
  Iterator end() const { return Iterator(id_ + size_, freq_ + size_); }

 private:
  const uint32_t* id_;
  const uint32_t* freq_;
  size_t size_;
};

/// Read-only view of a run of rule indices.
class DagIdRange {
 public:
  DagIdRange(const uint32_t* begin, const uint32_t* end)
      : begin_(begin), end_(end) {}
  size_t size() const { return static_cast<size_t>(end_ - begin_); }
  bool empty() const { return begin_ == end_; }
  uint32_t operator[](size_t i) const { return begin_[i]; }
  const uint32_t* begin() const { return begin_; }
  const uint32_t* end() const { return end_; }

 private:
  const uint32_t* begin_;
  const uint32_t* end_;
};

/// \brief DAG interpretation of a grammar (Figure 1(e)).
///
/// Precomputes everything both engines traverse: aggregated child edges with
/// multiplicities, aggregated local words, distinct parent lists, in-edge
/// counts excluding the root (Algorithm 1 seeds traversal from rules whose
/// only parent is the root), topological order, per-rule depth, body
/// offsets and the file id of every root position.
///
/// Storage is flat CSR (Arrays). It is the one layout of the document: the
/// GPU engine's kernels index these arrays by thread id and read the rule
/// bodies from the grammar, so binding a document to a device copies
/// nothing. Entries of a rule are sorted by id; parents by rule index.
class DagView {
 public:
  /// Validates the grammar (id ranges, acyclicity, non-empty root, root
  /// splitters in file order) and builds the view. Returns Corruption for
  /// malformed grammars.
  static Result<DagView> Build(const Grammar& g);

  /// Number of Build calls in this process (relaxed; a diagnostics counter
  /// that lets tests and benches prove documents are prepared once).
  static uint64_t builds();

  size_t num_rules() const { return a_.in_edges_nonroot.size(); }

  DagEntryRange<RuleChildEntry> children(uint32_t r) const {
    const uint32_t lo = a_.child_off[r];
    return DagEntryRange<RuleChildEntry>(a_.child_id.data() + lo,
                                         a_.child_freq.data() + lo,
                                         a_.child_off[r + 1] - lo);
  }
  DagEntryRange<RuleWordEntry> words(uint32_t r) const {
    const uint32_t lo = a_.word_off[r];
    return DagEntryRange<RuleWordEntry>(a_.word_id.data() + lo,
                                        a_.word_freq.data() + lo,
                                        a_.word_off[r + 1] - lo);
  }
  /// Distinct parent rule indices (the root appears as parent index 0).
  DagIdRange parents(uint32_t r) const {
    return DagIdRange(a_.parent_id.data() + a_.parent_off[r],
                      a_.parent_id.data() + a_.parent_off[r + 1]);
  }

  /// Number of distinct parents other than the root (Algorithm 1's
  /// rule.numInEdge; rules with zero start the top-down traversal).
  uint32_t num_in_edges_nonroot(uint32_t r) const {
    return a_.in_edges_nonroot[r];
  }
  /// Number of distinct child rules (bottom-up readiness threshold).
  uint32_t num_out_edges(uint32_t r) const {
    return a_.child_off[r + 1] - a_.child_off[r];
  }
  /// How many times rule `r` appears directly in the root body.
  uint32_t root_freq(uint32_t r) const { return a_.root_freq[r]; }

  /// Longest path length from the root (root depth = 0).
  uint32_t depth(uint32_t r) const { return a_.depth[r]; }
  uint32_t max_depth() const { return max_depth_; }

  /// Rule indices ordered so parents precede children.
  const std::vector<uint32_t>& topo_order() const { return a_.topo_order; }

  /// Number of symbols in rule r's body (workload for the scheduler).
  uint32_t body_size(uint32_t r) const {
    return static_cast<uint32_t>(a_.body_off[r + 1] - a_.body_off[r]);
  }
  /// Offset of rule r's body in the concatenation of all bodies; r =
  /// num_rules() gives the total body symbols.
  uint64_t body_off(size_t r) const { return a_.body_off[r]; }
  /// File id of root position `pos` (see Arrays::root_file).
  uint32_t root_file(size_t pos) const { return a_.root_file[pos]; }
  /// Number of aggregated rule->rule edges and of aggregated local words.
  size_t num_edges() const { return a_.child_id.size(); }
  size_t num_word_entries() const { return a_.word_id.size(); }

 private:
  /// The flat arrays. `*_off` have num_rules + 1 entries; rule r's entries
  /// are [off[r], off[r + 1]) of the matching id/freq arrays. `body_off`
  /// is the prefix of the rule body sizes (body_off[num_rules] = all body
  /// symbols).
  struct Arrays {
    std::vector<uint32_t> child_off;
    std::vector<uint32_t> child_id;
    std::vector<uint32_t> child_freq;
    std::vector<uint32_t> word_off;
    std::vector<uint32_t> word_id;
    std::vector<uint32_t> word_freq;
    std::vector<uint32_t> parent_off;
    std::vector<uint32_t> parent_id;
    std::vector<uint32_t> in_edges_nonroot;
    std::vector<uint32_t> root_freq;
    std::vector<uint32_t> depth;
    std::vector<uint64_t> body_off;
    std::vector<uint32_t> topo_order;
    /// File id of each root position: the number of splitters at or before
    /// it, so splitter k starts file k + 1.
    std::vector<uint32_t> root_file;
  };

  Arrays a_;
  uint32_t max_depth_ = 0;
};

/// Identity of a grammar for plan-cache keying: an FNV fold of the symbol
/// space and every rule body. Host-side and O(compressed size); computed
/// once per document by PreparedDocument::Prepare.
uint64_t GrammarFingerprint(const Grammar& g);

/// \brief Everything derived from one immutable document grammar that every
/// probe, engine and device reuses: the validated DAG view and the grammar
/// fingerprint that keys the document's plans.
///
/// Built once when the document joins a corpus (CorpusFromDocuments,
/// PartitionAndCompress), which is also where a malformed grammar is
/// rejected; serving never rebuilds it.
struct PreparedDocument {
  DagView dag;
  uint64_t fingerprint = 0;

  /// Validates `g` and derives the record; Corruption for grammars
  /// DagView::Build rejects.
  static Result<PreparedDocument> Prepare(const Grammar& g);
};

/// Summary statistics of a compressed grammar (Table II plus DAG shape).
struct DagStats {
  uint64_t num_rules = 0;
  uint64_t num_edges = 0;           // aggregated rule->rule edges
  uint64_t total_body_symbols = 0;  // compressed size in symbols
  uint64_t vocabulary_size = 0;
  uint64_t num_files = 0;
  uint32_t max_depth = 0;
  double avg_body_length = 0.0;
  uint64_t expanded_tokens = 0;  // total tokens when fully expanded
  /// expanded_tokens / total_body_symbols: how much the grammar reuses.
  double reuse_factor = 0.0;
};

/// Computes statistics; requires a valid grammar (uses DagView internally).
Result<DagStats> ComputeDagStats(const Grammar& g);

/// Fills `g->rule_blooms` with per-rule subtree Bloom filters (children
/// before parents, so each filter covers the rule's full expansion). Run at
/// compression time; the serializer persists the result. Fails on grammars
/// DagView rejects.
Status ComputeRuleBlooms(Grammar* g);

}  // namespace gtadoc

#endif  // GTADOC_FORMAT_DAG_H_
