// Whole-file output shared by the CLIs and benches.
#pragma once

#include <string>
#include <string_view>

namespace rapid {

/// Writes `content` to `path`, replacing the file. Throws rapid::Error if the
/// file cannot be opened, the write comes up short, or the close fails (a
/// full disk often only shows up there).
void write_file(const std::string& path, std::string_view content);

}  // namespace rapid
