#include "core/host.h"

#include <utility>

namespace hostsim {
namespace {

StackOptions stack_options(const ExperimentConfig& config, int host_id) {
  StackOptions options;
  options.trace_capacity = config.obs.trace_capacity;
  options.host_id = host_id;
  options.segmentation = config.stack.segmentation();
  options.gro = config.stack.gro;
  options.steering = config.stack.arfs ? SteeringMode::arfs
                                       : config.stack.fallback_steering;
  options.tx_zerocopy = config.stack.tx_zerocopy;
  options.rx_zerocopy = config.stack.rx_zerocopy;
  options.delayed_ack = config.stack.delayed_ack;
  options.receiver_driven = config.stack.receiver_driven;
  options.grant_policy = config.stack.grant_policy;
  options.mss = config.stack.mtu_payload();
  options.rcv_buf = config.stack.tcp_rx_buf;
  options.rcv_buf_max = config.stack.tcp_rx_buf_max;
  options.snd_buf = config.stack.tcp_tx_buf;
  options.cc = config.stack.cc;
  options.max_consecutive_rtos = config.stack.max_consecutive_rtos;
  options.transport = config.stack.transport;
  return options;
}

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
  stack_ = std::make_unique<Stack>(loop, stack_options(config, host_id_),
                                   topo_, core_ptrs, llc_ptrs, *allocator_,
                                   *iommu_, *nic_);
}

}  // namespace hostsim
