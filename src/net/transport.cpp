#include "net/transport.h"

namespace hostsim {

std::string_view to_string(TransportKind kind) {
  switch (kind) {
    case TransportKind::tcp:
      return "tcp";
    case TransportKind::homa:
      return "homa";
  }
  return "?";
}

}  // namespace hostsim
