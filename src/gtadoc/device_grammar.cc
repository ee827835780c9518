#include "gtadoc/device_grammar.h"

#include <numeric>

#include "gpu/primitives.h"

namespace gtadoc {

size_t DeviceGrammar::DeviceBytes() const {
  size_t bytes = 0;
  bytes += body_off.size() * sizeof(uint64_t);
  bytes += body_sym.size() * sizeof(uint32_t);
  bytes += (child_off.size() + child_id.size() + child_freq.size() +
            word_off.size() + word_id.size() + word_freq.size() +
            parent_off.size() + parent_id.size() + in_edges_nonroot.size() +
            num_children.size() + root_freq.size() + root_file_of_pos.size() +
            edge_index_in_child.size()) *
           sizeof(uint32_t);
  return bytes;
}

void DeviceGrammar::Rebind(const Grammar& g, const DagView& dag,
                           gpu::Device* device, bool charge_pcie) {
  DeviceGrammar& d = *this;
  const DagView::Arrays& a = dag.arrays();
  const uint32_t n = static_cast<uint32_t>(dag.num_rules());
  d.num_rules = n;
  d.num_words = g.num_words;
  d.num_files = g.num_files();

  // The CSR arrays live in one packed device arena (DeviceBytes() is its
  // size): the allocation call is charged when some array's storage is
  // outgrown. Reserving up front means the fills below never reallocate.
  uint64_t body_total = 0;
  for (uint32_t r = 0; r < n; ++r) body_total += g.rules[r].size();
  uint64_t grown = 0;
  auto fit = [&grown](auto& vec, size_t need) {
    if (need > vec.capacity()) {
      ++grown;
      vec.reserve(need);
    }
    vec.clear();
  };
  fit(d.body_off, n + 1);
  fit(d.body_sym, body_total);
  fit(d.child_off, n + 1);
  fit(d.word_off, n + 1);
  fit(d.parent_off, n + 1);
  fit(d.child_id, a.child_id.size());
  fit(d.child_freq, a.child_id.size());
  fit(d.word_id, a.word_id.size());
  fit(d.word_freq, a.word_id.size());
  fit(d.parent_id, a.parent_id.size());
  fit(d.in_edges_nonroot, n);
  fit(d.num_children, n);
  fit(d.root_freq, n);
  fit(d.root_file_of_pos, g.rules[0].size());
  fit(d.edge_index_in_child, a.child_id.size());
  if (grown > 0) device->ChargeDeviceAlloc(1);

  d.body_off.resize(n + 1, 0);
  for (uint32_t r = 0; r < n; ++r) {
    d.body_off[r + 1] = d.body_off[r] + g.rules[r].size();
    d.body_sym.insert(d.body_sym.end(), g.rules[r].begin(), g.rules[r].end());
  }
  // The DAG view shares this SoA layout: bulk copies.
  d.child_off = a.child_off;
  d.child_id = a.child_id;
  d.child_freq = a.child_freq;
  d.word_off = a.word_off;
  d.word_id = a.word_id;
  d.word_freq = a.word_freq;
  d.parent_off = a.parent_off;
  d.parent_id = a.parent_id;
  d.in_edges_nonroot = a.in_edges_nonroot;
  d.root_freq = a.root_freq;
  d.num_children.resize(n);
  for (uint32_t r = 0; r < n; ++r) d.num_children[r] = dag.num_out_edges(r);
  d.edge_index_in_child.assign(d.child_id.size(), 0);

  // Ship the compressed representation across PCIe (large datasets only; the
  // paper keeps resident datasets on-device).
  if (charge_pcie) device->CopyHostToDevice(d.DeviceBytes());

  // Root scan (on-device): file id of each root position is the number of
  // splitters strictly before it — an exclusive prefix sum of the splitter
  // indicator.
  const std::vector<uint32_t>& root = g.rules[0];
  std::vector<uint64_t> indicator(root.size());
  device->Launch("rootSplitterIndicator",
                 static_cast<uint32_t>((root.size() + 255) / 256),
                 [&](gpu::ThreadCtx& ctx) {
                   const size_t lo = static_cast<size_t>(ctx.tid()) * 256;
                   const size_t hi = std::min(root.size(), lo + 256);
                   for (size_t i = lo; i < hi; ++i) {
                     indicator[i] = g.IsSplitter(root[i]) ? 1 : 0;
                   }
                   ctx.Charge(hi - lo);
                 });
  std::vector<uint64_t> scanned;
  gpu::DeviceExclusiveScan(device, indicator, &scanned);
  d.root_file_of_pos.resize(root.size());
  device->Launch("rootFileAssign",
                 static_cast<uint32_t>((root.size() + 255) / 256),
                 [&](gpu::ThreadCtx& ctx) {
                   const size_t lo = static_cast<size_t>(ctx.tid()) * 256;
                   const size_t hi = std::min(root.size(), lo + 256);
                   for (size_t i = lo; i < hi; ++i) {
                     d.root_file_of_pos[i] =
                         static_cast<uint32_t>(scanned[i] + indicator[i]);
                   }
                   ctx.Charge(hi - lo);
                 });
}

}  // namespace gtadoc
