#ifndef GTADOC_GTADOC_DEVICE_GRAMMAR_H_
#define GTADOC_GTADOC_DEVICE_GRAMMAR_H_

#include <cstdint>
#include <vector>

#include "format/dag.h"
#include "format/grammar.h"
#include "gpu/device.h"

namespace gtadoc {

/// \brief Device-resident grammar: the flat CSR arrays every G-TADOC kernel
/// indexes by thread id.
///
/// Bound per document in the engine's initialization phase from the
/// document's prepared DagView (the same SoA layout, so a bind is bulk
/// copies); the byte total is charged as a host-to-device transfer. The
/// root's per-position file ids are produced on-device by a prefix scan
/// over the splitter indicator (the "light-weight scanning" of Figure 3).
struct DeviceGrammar {
  uint32_t num_rules = 0;
  uint32_t num_words = 0;
  uint32_t num_files = 0;

  // Rule bodies, CSR.
  std::vector<uint64_t> body_off;   // size num_rules + 1
  std::vector<uint32_t> body_sym;   // symbol ids (grammar id space)

  // Aggregated rule->rule edges, CSR over parents.
  std::vector<uint32_t> child_off;  // size num_rules + 1
  std::vector<uint32_t> child_id;   // child rule index
  std::vector<uint32_t> child_freq;

  // Aggregated local words, CSR.
  std::vector<uint32_t> word_off;  // size num_rules + 1
  std::vector<uint32_t> word_id;
  std::vector<uint32_t> word_freq;

  // Distinct parents, CSR (includes the root as parent 0).
  std::vector<uint32_t> parent_off;  // size num_rules + 1
  std::vector<uint32_t> parent_id;

  // Per-rule topology.
  std::vector<uint32_t> in_edges_nonroot;  // distinct non-root parents
  std::vector<uint32_t> num_children;      // distinct children
  std::vector<uint32_t> root_freq;         // multiplicity in the root body

  // Root scan output: file id of every root body position.
  std::vector<uint32_t> root_file_of_pos;

  /// For each aggregated edge (indexed like child_id), the edge's slot in the
  /// child's inbox segment table; see TopDownFileWeights. Filled by the
  /// per-file traversals during their own init.
  std::vector<uint32_t> edge_index_in_child;

  uint32_t num_edges() const { return static_cast<uint32_t>(child_id.size()); }

  size_t DeviceBytes() const;

  /// (Re)binds the arena to a validated grammar + its DAG view, launching
  /// the root-scan kernels on `device`. The CSR arrays form one packed
  /// device arena: its allocation call is charged only when the document
  /// outgrows the arena's storage, so the first bind (a cold engine) always
  /// pays it and a rebind onto a same-shaped document pays nothing — the
  /// batch path that lets document i+1 skip the per-document allocation
  /// bill. The root-scan kernels and, when `charge_pcie` is set, the H2D
  /// transfer of the compressed data are per-document work that reuse
  /// cannot elide; the paper assumes datasets that fit in GPU memory are
  /// resident (Section VI-A), so engines default `charge_pcie` to false and
  /// enable it only for the large-dataset experiments.
  void Rebind(const Grammar& g, const DagView& dag, gpu::Device* device,
              bool charge_pcie = false);
};

}  // namespace gtadoc

#endif  // GTADOC_GTADOC_DEVICE_GRAMMAR_H_
