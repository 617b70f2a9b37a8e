// Data-plane calibration from outside the runtime: crc32c and memcpy timed
// over a workload's own content-put sizes, so the put layer's two per-byte
// costs have a number before any change to support/checksum.cpp.
#pragma once

#include <cstdint>
#include <vector>

#include "rapid/rt/plan.hpp"

namespace perfbench {

/// One entry per content put the plan sends: (object, version, dest).
std::vector<std::int64_t> put_sizes(const rapid::rt::RunPlan& plan);

struct DataPlane {
  double crc_gbps = 0;
  double memcpy_gbps = 0;
};

/// Times crc32c and memcpy over `sizes`, repeating the list until at least
/// `min_seconds` of each have elapsed.
DataPlane calibrate(const std::vector<std::int64_t>& sizes, double min_seconds);

}  // namespace perfbench
