#ifndef GTADOC_GPU_PRIMITIVES_H_
#define GTADOC_GPU_PRIMITIVES_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "gpu/device.h"

namespace gtadoc {
namespace gpu {

/// \brief Parallel bottom-up merge sort of (key, value) pairs by key (stable,
/// ascending). log2(n) kernel rounds; round k merges runs of width 2^k, one
/// logical thread per output run. Used by the `sort` analytics task and the
/// ranked-inverted-index final ordering.
void DeviceSortPairs(Device* device,
                     std::vector<std::pair<uint64_t, uint64_t>>* pairs);

}  // namespace gpu
}  // namespace gtadoc

#endif  // GTADOC_GPU_PRIMITIVES_H_
