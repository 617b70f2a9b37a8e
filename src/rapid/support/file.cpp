#include "rapid/support/file.hpp"

#include <cstdio>

#include "rapid/support/check.hpp"
#include "rapid/support/str.hpp"

namespace rapid {

void write_file(const std::string& path, std::string_view content) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  RAPID_CHECK(f != nullptr, cat("cannot open ", path, " for writing"));
  const std::size_t written =
      std::fwrite(content.data(), 1, content.size(), f);
  const bool closed = std::fclose(f) == 0;
  RAPID_CHECK(written == content.size(), cat("short write to ", path));
  RAPID_CHECK(closed, cat("cannot close ", path));
}

}  // namespace rapid
