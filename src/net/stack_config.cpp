#include "net/stack_config.h"

#include "sim/contract.h"

namespace hostsim {

StackConfig StackConfig::opt_level(int level) {
  require(level >= 0 && level <= 3, "opt level in [0,3]");
  StackConfig config = no_opt();
  if (level >= 1) {
    config.tso = config.gso = config.gro = true;
  }
  if (level >= 2) config.jumbo = true;
  if (level >= 3) config.arfs = true;
  return config;
}

std::string StackConfig::label() const {
  std::string label;
  auto append = [&label](const char* part) {
    if (!label.empty()) label += "+";
    label += part;
  };
  if (tso || gro) append("TSO/GRO");
  if (jumbo) append("Jumbo");
  if (arfs) append("aRFS");
  if (lro) append("LRO");
  if (iommu) append("IOMMU");
  if (!dca) append("noDCA");
  if (label.empty()) label = "NoOpt";
  return label;
}

}  // namespace hostsim
