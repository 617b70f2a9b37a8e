// String formatting helpers shared by logs, error messages and benches.
#pragma once

#include <charconv>
#include <sstream>
#include <string>
#include <string_view>
#include <system_error>
#include <vector>

#include "rapid/support/check.hpp"

namespace rapid {

/// Concatenates stream-printable arguments into a std::string.
template <typename... Args>
std::string cat(Args&&... args) {
  std::ostringstream os;
  (os << ... << std::forward<Args>(args));
  return os.str();
}

/// Fixed-precision decimal rendering, e.g. fixed(3.14159, 2) == "3.14".
std::string fixed(double value, int digits);

/// Renders a ratio as a signed percentage, e.g. pct(0.123) == "+12.3%".
std::string pct(double ratio, int digits = 1);

/// Splits on a single character, keeping empty fields.
std::vector<std::string> split(const std::string& text, char sep);

/// Human-readable byte count ("1.50 MB").
std::string human_bytes(double bytes);

/// `val` read strictly as one whole T: no `+` or spaces, no trailing
/// characters, in range. Anything else throws rapid::Error naming where
/// the value came from and the key, e.g. "run line 3: priority=high is not
/// a number".
template <typename T>
T parse_number(std::string_view where, std::string_view key,
               std::string_view val) {
  T out{};
  const char* end = val.data() + val.size();
  const auto [ptr, ec] = std::from_chars(val.data(), end, out);
  if (ec != std::errc() || ptr != end) {
    throw Error(cat(where, ": ", key, "=", val,
                    ec == std::errc::result_out_of_range
                        ? " is out of range"
                        : " is not a number"));
  }
  return out;
}

}  // namespace rapid
