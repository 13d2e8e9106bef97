#include "app/long_flow_app.h"

namespace hostsim {

LongFlowSender::LongFlowSender(Core& core, TransportSocket& socket, Bytes chunk)
    : socket_(&socket), chunk_(chunk), thread_(core, "iperf-tx") {
  socket_->set_tx_waiter(&thread_);
  // Like iPerf, a reset connection just ends the stream: the app observes
  // the error (a dead socket's send() returns 0, so the thread blocks for
  // good) and has nothing to retry.
  socket_->set_error_callback([](SocketError) {});
  thread_.set_body([this](Core& c, Thread& thread) {
    const Bytes sent = socket_->send(c, chunk_);
    // A short write means the send buffer filled: block until the ACK
    // path frees space and notifies us.
    thread.finish_quantum(/*more_work=*/sent == chunk_);
  });
}

LongFlowReceiver::LongFlowReceiver(Core& core, TransportSocket& socket, Bytes chunk)
    : socket_(&socket), chunk_(chunk), thread_(core, "iperf-rx") {
  socket_->set_rx_waiter(&thread_);
  socket_->set_error_callback([](SocketError) {});
  thread_.set_body([this](Core& c, Thread& thread) {
    socket_->recv(c, chunk_);
    thread.finish_quantum(/*more_work=*/socket_->readable() > 0);
  });
}

}  // namespace hostsim
