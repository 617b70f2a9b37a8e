#include "dataplane.hpp"

#include <algorithm>
#include <cstring>
#include <span>

#include "bench.hpp"
#include "rapid/support/checksum.hpp"

namespace perfbench {

std::vector<std::int64_t> put_sizes(const rapid::rt::RunPlan& plan) {
  std::vector<std::int64_t> sizes;
  for (std::size_t d = 0; d < plan.objects.size(); ++d) {
    const std::int64_t bytes =
        plan.graph->data(static_cast<rapid::graph::DataId>(d)).size_bytes;
    for (const auto& dests : plan.objects[d].sends_by_version) {
      sizes.insert(sizes.end(), dests.size(), bytes);
    }
  }
  return sizes;
}

DataPlane calibrate(const std::vector<std::int64_t>& sizes, double min_seconds) {
  DataPlane dp;
  if (sizes.empty()) return dp;
  const std::int64_t max_size = *std::max_element(sizes.begin(), sizes.end());
  std::vector<std::byte> src(static_cast<std::size_t>(max_size));
  std::vector<std::byte> dst(static_cast<std::size_t>(max_size));
  for (std::size_t i = 0; i < src.size(); ++i) {
    src[i] = static_cast<std::byte>((i * 2654435761u) >> 13);
  }
  volatile std::uint32_t sink = 0;
  auto measure = [&](auto&& op) {
    std::int64_t bytes = 0;
    const std::int64_t t0 = rapid::now_ns();
    do {
      for (const std::int64_t n : sizes) {
        if (n <= 0) continue;
        op(static_cast<std::size_t>(n));
        bytes += n;
      }
    } while (seconds_since(t0) < min_seconds);
    return static_cast<double>(bytes) / seconds_since(t0) / 1e9;
  };
  dp.crc_gbps = measure([&](std::size_t n) {
    sink = sink + rapid::crc32c(std::span<const std::byte>(src.data(), n));
  });
  dp.memcpy_gbps = measure([&](std::size_t n) {
    std::memcpy(dst.data(), src.data(), n);
    sink = sink + static_cast<std::uint32_t>(dst[n - 1]);
  });
  return dp;
}

}  // namespace perfbench
