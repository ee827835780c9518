#ifndef GTADOC_GTADOC_TRAVERSAL_UTIL_H_
#define GTADOC_GTADOC_TRAVERSAL_UTIL_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <vector>

#include "format/dag.h"
#include "gpu/device.h"

namespace gtadoc {
namespace internal {

inline uint64_t PackPair(uint32_t hi, uint32_t lo) {
  return (static_cast<uint64_t>(hi) << 32) | lo;
}

/// \brief Out-edge-driven mask rounds (Algorithm 2's traversal order).
///
/// Leaves start; a rule becomes ready once all its children have fired;
/// `body(r, ctx)` runs exactly once per rule, children strictly before
/// parents. Returns the number of kernel rounds (bounded by the DAG depth k
/// in the paper's complexity analysis).
inline uint32_t BottomUpRounds(
    gpu::Device* device, const DagView& dag, const char* name,
    const std::function<void(uint32_t, gpu::ThreadCtx&)>& body) {
  const uint32_t n = static_cast<uint32_t>(dag.num_rules());
  std::vector<uint8_t> mask(n, 0);
  std::vector<std::atomic<uint8_t>> mask_next(n);
  std::vector<std::atomic<uint32_t>> cur_out(n);

  device->Launch("initBottomUpMask", n, [&](gpu::ThreadCtx& ctx) {
    const uint32_t r = ctx.tid();
    ctx.Charge(1);
    if (dag.num_out_edges(r) == 0) mask[r] = 1;
  });

  std::atomic<bool> stop{false};
  uint32_t rounds = 0;
  while (!stop.load(std::memory_order_relaxed)) {
    stop.store(true, std::memory_order_relaxed);
    ++rounds;
    device->Launch(name, n, [&](gpu::ThreadCtx& ctx) {
      const uint32_t r = ctx.tid();
      ctx.Charge(1);
      if (!mask[r]) return;
      body(r, ctx);
      for (const uint32_t p : dag.parents(r)) {
        const uint32_t got =
            cur_out[p].fetch_add(1, std::memory_order_relaxed) + 1;
        ctx.ChargeAtomic();
        if (got == dag.num_out_edges(p)) {
          mask_next[p].store(1, std::memory_order_relaxed);
          stop.store(false, std::memory_order_relaxed);
        }
      }
    });
    // Double-buffered masks: the production kernels read the mask through a
    // pointer the host swaps between rounds, so this costs no device work.
    for (uint32_t r = 0; r < n; ++r) {
      mask[r] = mask_next[r].exchange(0, std::memory_order_relaxed);
    }
  }
  return rounds;
}

}  // namespace internal
}  // namespace gtadoc

#endif  // GTADOC_GTADOC_TRAVERSAL_UTIL_H_
