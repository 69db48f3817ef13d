#include "net/nic.hpp"

#include <algorithm>

namespace repseq::net {

sim::SimTime Nic::reserve_uplink(std::size_t wire_bytes, sim::SimTime ready) {
  const sim::SimTime start = std::max({eng_.now(), ready, uplink_free_});
  uplink_free_ = start + cfg_.link_tx_time(wire_bytes);
  return uplink_free_;
}

bool Nic::deliver(Message msg) {
  if (inbox_.size() >= cfg_.recv_buffer_msgs && !msg.reliable) {
    ++drops_;
    return false;
  }
  inbox_.push(std::move(msg));
  return true;
}

}  // namespace repseq::net
