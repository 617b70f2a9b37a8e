#include "rapid/rt/transport.hpp"

#include "rapid/support/check.hpp"
#include "rapid/support/str.hpp"

namespace rapid::rt {

const char* to_string(TransportKind k) {
  switch (k) {
    case TransportKind::kInProc: return "inproc";
    case TransportKind::kShm: return "shm";
  }
  return "?";
}

TransportKind transport_from_string(const std::string& s) {
  if (s == "inproc") return TransportKind::kInProc;
  if (s == "shm") return TransportKind::kShm;
  throw Error(cat("unknown transport '", s, "' (want inproc|shm)"));
}

}  // namespace rapid::rt
