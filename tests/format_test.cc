#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/io.h"
#include "common/random.h"
#include "format/dag.h"
#include "format/grammar.h"
#include "format/serializer.h"
#include "sequitur/compressor.h"
#include "tadoc/parallel_engine.h"

namespace gtadoc {
namespace {

/// The paper's Figure 1 grammar: words w1..w4 (ids 0..3), one splitter (4),
/// rules R0=5: [R1 R1 spt1 R2 w1], R1=6: [R2 w3 R2 w4], R2=7: [w1 w2].
Grammar Figure1Grammar() {
  Grammar g;
  g.num_words = 4;
  g.num_splitters = 1;
  g.words = {"w1", "w2", "w3", "w4"};
  g.rules = {
      {6, 6, 4, 7, 0},  // R0: R1 R1 spt1 R2 w1
      {7, 2, 7, 3},     // R1: R2 w3 R2 w4
      {0, 1},           // R2: w1 w2
  };
  return g;
}

TEST(GrammarTest, IdSpaceHelpers) {
  Grammar g = Figure1Grammar();
  EXPECT_EQ(g.num_terminals(), 5u);
  EXPECT_EQ(g.num_files(), 2u);
  EXPECT_TRUE(g.IsWord(0));
  EXPECT_TRUE(g.IsWord(3));
  EXPECT_TRUE(g.IsSplitter(4));
  EXPECT_FALSE(g.IsSplitter(3));
  EXPECT_TRUE(g.IsRule(5));
  EXPECT_EQ(g.RuleIndex(5), 0u);
  EXPECT_EQ(g.RuleId(2), 7u);
  EXPECT_EQ(g.SplitterIndex(4), 0u);
}

TEST(DagViewTest, Figure1Aggregation) {
  Grammar g = Figure1Grammar();
  auto view = DagView::Build(g);
  ASSERT_TRUE(view.ok());
  const DagView& v = *view;
  ASSERT_EQ(v.num_rules(), 3u);

  // Root: children R1 (x2) and R2 (x1); own word w1 (x1).
  ASSERT_EQ(v.children(0).size(), 2u);
  EXPECT_EQ(v.children(0)[0].child, 1u);
  EXPECT_EQ(v.children(0)[0].freq, 2u);
  EXPECT_EQ(v.children(0)[1].child, 2u);
  EXPECT_EQ(v.children(0)[1].freq, 1u);
  ASSERT_EQ(v.words(0).size(), 1u);
  EXPECT_EQ(v.words(0)[0].word, 0u);

  // R1: child R2 (x2), words w3, w4.
  ASSERT_EQ(v.children(1).size(), 1u);
  EXPECT_EQ(v.children(1)[0].freq, 2u);
  EXPECT_EQ(v.words(1).size(), 2u);

  // R2: leaf with words w1, w2.
  EXPECT_TRUE(v.children(2).empty());
  EXPECT_EQ(v.num_out_edges(2), 0u);

  // Parents and in-edges: R2's parents are root and R1; only R1 is non-root.
  EXPECT_EQ(v.parents(2).size(), 2u);
  EXPECT_EQ(v.num_in_edges_nonroot(2), 1u);
  EXPECT_EQ(v.num_in_edges_nonroot(1), 0u);
  EXPECT_EQ(v.root_freq(1), 2u);
  EXPECT_EQ(v.root_freq(2), 1u);

  // Depth: root 0, R1 1, R2 2 (via R1).
  EXPECT_EQ(v.depth(0), 0u);
  EXPECT_EQ(v.depth(1), 1u);
  EXPECT_EQ(v.depth(2), 2u);
  EXPECT_EQ(v.max_depth(), 2u);

  // Topological order puts parents first.
  EXPECT_EQ(v.topo_order().front(), 0u);
  EXPECT_EQ(v.topo_order().back(), 2u);
}

TEST(DagViewTest, RejectsCycle) {
  Grammar g;
  g.num_words = 1;
  // Rule ids start at num_terminals = 1: rule0=1, rule1=2, rule2=3.
  g.rules = {{2, 0}, {3, 0}, {2, 0}};  // r1 -> r2 -> r1 cycle
  EXPECT_TRUE(DagView::Build(g).status().IsCorruption());
}

TEST(DagViewTest, RejectsSelfReference) {
  Grammar g;
  g.num_words = 1;
  g.rules = {{1, 0}};  // root references itself (id 1 = rule 0)
  EXPECT_TRUE(DagView::Build(g).status().IsCorruption());
}

TEST(DagViewTest, RejectsSplitterInSubRule) {
  Grammar g;
  g.num_words = 1;
  g.num_splitters = 1;
  g.rules = {{2, 2}, {1, 0}};  // rule 1 body contains splitter id 1
  EXPECT_TRUE(DagView::Build(g).status().IsCorruption());
}

TEST(DagViewTest, RejectsOutOfRangeRuleId) {
  Grammar g;
  g.num_words = 1;
  g.rules = {{9, 0}};
  EXPECT_TRUE(DagView::Build(g).status().IsCorruption());
}

TEST(DagViewTest, RejectsEmptyRootAndEmptyGrammar) {
  Grammar g;
  g.num_words = 1;
  EXPECT_TRUE(DagView::Build(g).status().IsCorruption());
  g.rules = {{}};
  EXPECT_TRUE(DagView::Build(g).status().IsCorruption());
}

/// A seeded random valid grammar: every rule r > 0 is referenced by some
/// rule before it (so all rules are reachable from the root) and references
/// only rules after it (so the DAG is acyclic); repeated symbols exercise
/// the aggregation, and only the root carries splitters.
Grammar RandomGrammar(Rng* rng) {
  Grammar g;
  g.num_words = 1 + static_cast<uint32_t>(rng->Uniform(40));
  g.num_splitters = static_cast<uint32_t>(rng->Uniform(4));
  const uint32_t n = 1 + static_cast<uint32_t>(rng->Uniform(30));
  g.rules.resize(n);
  for (uint32_t r = 0; r < n; ++r) {
    const uint64_t len = 1 + rng->Uniform(r == 0 ? 40 : 8);
    for (uint64_t i = 0; i < len; ++i) {
      if (r + 1 < n && rng->Bernoulli(0.4)) {
        const uint32_t child =
            r + 1 + static_cast<uint32_t>(rng->Uniform(n - r - 1));
        g.rules[r].push_back(g.RuleId(child));
      } else {
        g.rules[r].push_back(static_cast<uint32_t>(rng->Uniform(g.num_words)));
      }
    }
  }
  for (uint32_t r = 1; r < n; ++r) {
    const uint32_t parent = static_cast<uint32_t>(rng->Uniform(r));
    g.rules[parent].push_back(g.RuleId(r));
  }
  // Splitters at random root positions, in file order (splitter k is the
  // k-th splitter of the root): positions are drawn in the splitter-free
  // root and sorted, and each insert shifts the later ones by one.
  std::vector<uint64_t> pos(g.num_splitters);
  for (uint64_t& p : pos) p = rng->Uniform(g.rules[0].size() + 1);
  std::sort(pos.begin(), pos.end());
  for (uint32_t s = 0; s < g.num_splitters; ++s) {
    g.rules[0].insert(g.rules[0].begin() + pos[s] + s, g.num_words + s);
  }
  return g;
}

// The flat DagView must agree entry for entry with a straightforward
// std::map aggregation of the same grammar.
TEST(DagViewTest, FlatViewMatchesReferenceAggregation) {
  Rng rng(20240611);
  for (int trial = 0; trial < 200; ++trial) {
    SCOPED_TRACE(trial);
    const Grammar g = RandomGrammar(&rng);
    auto view = DagView::Build(g);
    ASSERT_TRUE(view.ok()) << view.status().ToString();
    const DagView& v = *view;
    const uint32_t n = static_cast<uint32_t>(g.rules.size());
    ASSERT_EQ(v.num_rules(), n);

    std::vector<std::map<uint32_t, uint32_t>> children(n);
    std::vector<std::map<uint32_t, uint32_t>> words(n);
    std::vector<std::set<uint32_t>> parents(n);
    for (uint32_t r = 0; r < n; ++r) {
      for (uint32_t sym : g.rules[r]) {
        if (g.IsRule(sym)) {
          ++children[r][g.RuleIndex(sym)];
          parents[g.RuleIndex(sym)].insert(r);
        } else if (g.IsWord(sym)) {
          ++words[r][sym];
        }
      }
    }
    // Longest-path depths: parents have lower indices, so index order is
    // a topological order of this generator's grammars.
    std::vector<uint32_t> depth(n, 0);
    for (uint32_t r = 0; r < n; ++r) {
      for (const auto& [c, freq] : children[r]) {
        depth[c] = std::max(depth[c], depth[r] + 1);
      }
    }

    uint64_t body_off = 0;
    for (uint32_t r = 0; r < n; ++r) {
      SCOPED_TRACE(r);
      EXPECT_EQ(v.body_size(r), g.rules[r].size());
      EXPECT_EQ(v.body_off(r), body_off);
      body_off += g.rules[r].size();
      ASSERT_EQ(v.children(r).size(), children[r].size());
      size_t i = 0;
      for (const auto& [c, freq] : children[r]) {
        EXPECT_EQ(v.children(r)[i].child, c);
        EXPECT_EQ(v.children(r)[i].freq, freq);
        ++i;
      }
      EXPECT_EQ(v.num_out_edges(r), children[r].size());
      ASSERT_EQ(v.words(r).size(), words[r].size());
      i = 0;
      for (const auto& [w, freq] : words[r]) {
        EXPECT_EQ(v.words(r)[i].word, w);
        EXPECT_EQ(v.words(r)[i].freq, freq);
        ++i;
      }
      EXPECT_EQ(std::vector<uint32_t>(v.parents(r).begin(),
                                      v.parents(r).end()),
                std::vector<uint32_t>(parents[r].begin(), parents[r].end()));
      EXPECT_EQ(v.num_in_edges_nonroot(r),
                parents[r].size() - parents[r].count(0));
      const auto root_it = children[0].find(r);
      EXPECT_EQ(v.root_freq(r),
                root_it == children[0].end() ? 0u : root_it->second);
      EXPECT_EQ(v.depth(r), depth[r]);
    }
    EXPECT_EQ(v.max_depth(), *std::max_element(depth.begin(), depth.end()));
    EXPECT_EQ(v.body_off(n), body_off);

    // Root file ids: the file a splitter starts holds from the splitter on.
    uint32_t file = 0;
    for (size_t p = 0; p < g.rules[0].size(); ++p) {
      const uint32_t sym = g.rules[0][p];
      if (g.IsSplitter(sym)) file = g.SplitterIndex(sym) + 1;
      EXPECT_EQ(v.root_file(p), file) << "root position " << p;
    }

    // Topological order: a permutation starting at the root in which every
    // parent precedes each of its children.
    const std::vector<uint32_t>& topo = v.topo_order();
    ASSERT_EQ(topo.size(), n);
    EXPECT_EQ(topo[0], 0u);
    std::vector<uint32_t> position(n, n);
    for (uint32_t i = 0; i < n; ++i) position[topo[i]] = i;
    for (uint32_t r = 0; r < n; ++r) {
      ASSERT_LT(position[r], n) << "rule " << r << " missing from topo order";
      for (const auto& [c, freq] : children[r]) {
        EXPECT_LT(position[r], position[c]) << r << " -> " << c;
      }
    }
  }
}

// Every grammar DagView rejects is refused when the corpus is built, as a
// Status naming the document — never a crash later in serving.
TEST(CorpusLoadTest, MalformedGrammarsAreRejectedAtLoad) {
  std::vector<std::pair<std::string, Grammar>> cases;
  Grammar g;
  g.num_words = 1;
  g.rules = {{2, 0}, {3, 0}, {2, 0}};
  cases.emplace_back("cycle", g);
  g.rules = {{1, 0}};
  cases.emplace_back("self-reference", g);
  g.rules = {{9, 0}};
  cases.emplace_back("id out of range", g);
  g.num_splitters = 1;
  g.rules = {{3, 0}, {1, 0}};
  cases.emplace_back("splitter outside the root", g);
  // Root splitters must run 0, 1, ... in file order. A repeated splitter
  // numbers a third file of a two-file grammar; swapped splitters make the
  // splitter count and the splitter index disagree on the file id.
  g.num_words = 3;
  g.rules = {{0, 3, 1, 3, 2}};
  cases.emplace_back("repeated root splitter", g);
  g.num_splitters = 2;
  g.rules = {{0, 4, 1, 3, 2}};
  cases.emplace_back("root splitters out of file order", g);
  // The same grammar through a container with a valid checksum.
  auto parsed = ParseGrammar(SerializeGrammar(g));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  cases.emplace_back("root splitters out of order, from a container",
                     std::move(*parsed));
  g.num_words = 1;
  g.num_splitters = 0;
  g.rules = {{}};
  cases.emplace_back("empty root", g);
  g.rules.clear();
  cases.emplace_back("no rules", g);

  for (const auto& [name, bad] : cases) {
    SCOPED_TRACE(name);
    EXPECT_TRUE(DagView::Build(bad).status().IsCorruption());
    std::vector<Grammar> docs = {Figure1Grammar(), bad};
    auto corpus = CorpusFromDocuments(std::move(docs));
    ASSERT_FALSE(corpus.ok());
    EXPECT_TRUE(corpus.status().IsCorruption()) << corpus.status().ToString();
    EXPECT_NE(corpus.status().message().find("document 1"), std::string::npos)
        << corpus.status().ToString();
  }

  auto good = CorpusFromDocuments({Figure1Grammar(), Figure1Grammar()});
  ASSERT_TRUE(good.ok());
  ASSERT_EQ(good->prepared.size(), 2u);
  EXPECT_EQ(good->prepared[1].fingerprint,
            GrammarFingerprint(Figure1Grammar()));
  EXPECT_EQ(good->prepared[1].dag.num_rules(), 3u);
}

TEST(DagStatsTest, Figure1Stats) {
  auto stats = ComputeDagStats(Figure1Grammar());
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->num_rules, 3u);
  EXPECT_EQ(stats->vocabulary_size, 4u);
  EXPECT_EQ(stats->num_files, 2u);
  EXPECT_EQ(stats->num_edges, 3u);          // root->R1, root->R2, R1->R2
  EXPECT_EQ(stats->total_body_symbols, 11u);
  EXPECT_EQ(stats->expanded_tokens, 15u);   // 12 (fileA) + 3 (fileB)
  EXPECT_EQ(stats->max_depth, 2u);
  EXPECT_NEAR(stats->reuse_factor, 15.0 / 11.0, 1e-9);
}

// -------------------------------------------------------------- Serializer --

TEST(SerializerTest, RoundTripWithDictionary) {
  Grammar g = Figure1Grammar();
  std::string blob = SerializeGrammar(g, /*include_dictionary=*/true);
  auto back = ParseGrammar(blob);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->num_words, g.num_words);
  EXPECT_EQ(back->num_splitters, g.num_splitters);
  EXPECT_EQ(back->rules, g.rules);
  EXPECT_EQ(back->words, g.words);
}

TEST(SerializerTest, RoundTripWithoutDictionary) {
  Grammar g = Figure1Grammar();
  std::string blob = SerializeGrammar(g, /*include_dictionary=*/false);
  auto back = ParseGrammar(blob);
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back->words.empty());
  EXPECT_EQ(back->rules, g.rules);
}

TEST(SerializerTest, DetectsBitFlipAnywhere) {
  Grammar g = Figure1Grammar();
  const std::string blob = SerializeGrammar(g);
  // Flip each byte in turn; every corruption must be caught, never crash.
  int caught = 0;
  for (size_t i = 0; i < blob.size(); ++i) {
    std::string bad = blob;
    bad[i] = static_cast<char>(bad[i] ^ 0x40);
    auto r = ParseGrammar(bad);
    if (!r.ok()) ++caught;
  }
  EXPECT_EQ(caught, static_cast<int>(blob.size()));
}

TEST(SerializerTest, DetectsTruncationAtEveryLength) {
  Grammar g = Figure1Grammar();
  const std::string blob = SerializeGrammar(g);
  for (size_t len = 0; len < blob.size(); ++len) {
    auto r = ParseGrammar(Slice(blob.data(), len));
    EXPECT_FALSE(r.ok()) << "accepted truncation at " << len;
  }
}

TEST(SerializerTest, RejectsBadMagicAndTrailingBytes) {
  Grammar g = Figure1Grammar();
  std::string blob = SerializeGrammar(g);
  std::string bad = "XXXX" + blob.substr(4);
  EXPECT_FALSE(ParseGrammar(bad).ok());
  // Trailing garbage invalidates the checksum.
  EXPECT_FALSE(ParseGrammar(blob + "zz").ok());
}

TEST(SerializerTest, FileRoundTrip) {
  Grammar g = Figure1Grammar();
  const std::string path = testing::TempDir() + "/fig1.tdc";
  ASSERT_TRUE(WriteGrammarFile(g, path).ok());
  auto back = ReadGrammarFile(path);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->rules, g.rules);
  std::remove(path.c_str());
}

TEST(SerializerTest, ParsedGrammarPassesDagValidation) {
  // Serialization must preserve enough structure for the validator.
  Grammar g = Figure1Grammar();
  auto back = ParseGrammar(SerializeGrammar(g));
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(DagView::Build(*back).ok());
}

TEST(SerializerTest, PeekGrammarHeaderSurfacesRootBloom) {
  // The serving layer's cheap load-time probe: counts and the root rule's
  // whole-document Bloom filter, without materializing rules or strings.
  Grammar g = Figure1Grammar();
  ASSERT_TRUE(ComputeRuleBlooms(&g).ok());
  auto header = PeekGrammarHeader(SerializeGrammar(g));
  ASSERT_TRUE(header.ok()) << header.status().ToString();
  EXPECT_EQ(header->version, 2);
  EXPECT_TRUE(header->has_rule_blooms);
  EXPECT_TRUE(header->has_dictionary);
  EXPECT_EQ(header->num_words, g.num_words);
  EXPECT_EQ(header->num_splitters, g.num_splitters);
  EXPECT_EQ(header->num_rules, g.rules.size());
  EXPECT_EQ(header->root_bloom, g.rule_blooms[0]);

  // Without a dictionary the Bloom section sits right after the counts.
  auto no_dict = PeekGrammarHeader(SerializeGrammar(g, false));
  ASSERT_TRUE(no_dict.ok());
  EXPECT_FALSE(no_dict->has_dictionary);
  EXPECT_EQ(no_dict->root_bloom, g.rule_blooms[0]);
}

TEST(SerializerTest, PeekGrammarHeaderOnV1ReportsNoBloom) {
  Grammar g = Figure1Grammar();  // no blooms: serializes as v1
  auto header = PeekGrammarHeader(SerializeGrammar(g));
  ASSERT_TRUE(header.ok());
  EXPECT_EQ(header->version, 1);
  EXPECT_FALSE(header->has_rule_blooms);
  EXPECT_EQ(header->root_bloom, 0u);
  EXPECT_EQ(header->num_rules, g.rules.size());
}

TEST(SerializerTest, PeekGrammarHeaderRejectsTruncation) {
  Grammar g = Figure1Grammar();
  ASSERT_TRUE(ComputeRuleBlooms(&g).ok());
  const std::string blob = SerializeGrammar(g);
  EXPECT_FALSE(PeekGrammarHeader(Slice(blob.data(), 8)).ok());
  EXPECT_FALSE(PeekGrammarHeader("XXXX" + blob.substr(4)).ok());
  // A header promising a Bloom section the container cannot hold.
  auto probe = PeekGrammarHeader(Slice(blob.data(), 16));
  EXPECT_FALSE(probe.ok());
}

TEST(SerializerTest, PeekGrammarHeaderRejectsFabricatedRuleCount) {
  // A crafted 2^61-rule count must not wrap the Bloom-section size check.
  BinaryWriter w;
  w.PutRaw("GTDC", 4);
  w.PutU8(2);     // version with Blooms
  w.PutU8(0x02);  // rule-Bloom flag, no dictionary
  w.PutVarint32(4);
  w.PutVarint32(0);
  w.PutVarint64((1ull << 61) + 1);
  std::string body = w.Release();
  body.append(8, '\0');  // checksum tail (the peek does not verify it)
  EXPECT_FALSE(PeekGrammarHeader(body).ok());
}

}  // namespace
}  // namespace gtadoc
