#include "core/host.h"

#include <utility>

namespace hostsim {
namespace {

Nic::Config nic_config(const ExperimentConfig& config) {
  Nic::Config nic;
  nic.mtu_payload = config.stack.mtu_payload();
  nic.ring_size = config.stack.nic_ring_size;
  nic.dca = config.stack.dca;
  nic.lro = config.stack.lro;
  return nic;
}

}  // namespace

Host::Host(EventLoop& loop, const ExperimentConfig& config, Link& link,
           Link::Side side, std::string name, int host_id)
    : loop_(&loop),
      name_(std::move(name)),
      host_id_(host_id >= 0 ? host_id : (side == Link::Side::a ? 0 : 1)),
      cost_(config.cost),
      topo_(config.topo) {
  cores_.reserve(static_cast<std::size_t>(topo_.num_cores()));
  for (int id = 0; id < topo_.num_cores(); ++id) {
    cores_.push_back(
        std::make_unique<Core>(loop, cost_, id, topo_.node_of_core(id)));
  }
  llcs_.reserve(static_cast<std::size_t>(topo_.num_nodes));
  for (int node = 0; node < topo_.num_nodes; ++node) {
    llcs_.push_back(std::make_unique<LlcModel>(config.llc));
  }
  allocator_ =
      std::make_unique<PageAllocator>(topo_.num_cores(), topo_.num_nodes);
  iommu_ = std::make_unique<Iommu>(config.stack.iommu);

  std::vector<Core*> core_ptrs;
  std::vector<LlcModel*> llc_ptrs;
  for (auto& core : cores_) core_ptrs.push_back(core.get());
  for (auto& llc : llcs_) llc_ptrs.push_back(llc.get());

  nic_ = std::make_unique<Nic>(loop, nic_config(config), topo_, core_ptrs,
                               llc_ptrs, *allocator_, *iommu_, link, side,
                               host_id_);
  stack_ = std::make_unique<Stack>(loop, config.stack, host_id_,
                                   config.obs.trace_capacity, topo_, core_ptrs,
                                   llc_ptrs, *allocator_, *iommu_, *nic_);
}

}  // namespace hostsim
