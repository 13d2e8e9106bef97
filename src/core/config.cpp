#include "core/config.h"

namespace hostsim {

std::string_view to_string(Pattern pattern) {
  switch (pattern) {
    case Pattern::single_flow: return "single-flow";
    case Pattern::one_to_one: return "one-to-one";
    case Pattern::incast: return "incast";
    case Pattern::outcast: return "outcast";
    case Pattern::all_to_all: return "all-to-all";
    case Pattern::rpc_incast: return "rpc-incast";
    case Pattern::mixed: return "mixed";
    case Pattern::open_loop: return "open-loop";
  }
  return "?";
}

}  // namespace hostsim
