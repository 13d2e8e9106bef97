#include "net/grant_scheduler.h"

#include <algorithm>

#include "net/tcp_socket.h"

namespace hostsim {

void GrantScheduler::enroll(TcpSocket& socket) {
  // Credit is granted lazily from a task context; until then the flow
  // may send its blind unscheduled window.
  per_core_[socket.app_core()].waiting.push_back(&socket);
}

void GrantScheduler::on_progress(Core& core, TcpSocket& socket) {
  auto it = per_core_.find(socket.app_core());
  if (it == per_core_.end()) return;
  pump(core, it->second);
}

void GrantScheduler::pump(Core& core, CoreQueue& queue) {
  // Retire flows whose quantum has fully arrived AND been consumed by
  // the application; they requeue at the tail for their next turn.
  // Granting on consumption (not arrival) is what bounds the receive
  // queue — credit is issued at the application's drain rate, which is
  // the whole point of receiver-driven flow control.
  for (auto it = queue.active.begin(); it != queue.active.end();) {
    if ((*it)->credit_outstanding() <= 0 && (*it)->readable() == 0) {
      queue.waiting.push_back(*it);
      it = queue.active.erase(it);
    } else {
      ++it;
    }
  }
  while (static_cast<int>(queue.active.size()) < kMaxActive &&
         !queue.waiting.empty()) {
    TcpSocket* next = queue.waiting.front();
    queue.waiting.pop_front();
    next->grant_credit(core, kGrantBytes);
    ++grants_issued_;
    queue.active.push_back(next);
  }
}

}  // namespace hostsim
