// First-frame-immediate frame coalescing: the one window behind both places
// frames combine, net::BatchingTransport (keys (src, dst) and (src, shard))
// and the forwarding tree's piggybacking (key (parent, child)).  A push to
// an idle key sends at once and opens a NetConfig::batch_window window; a
// push to an open key queues; the close sends everything queued as ONE
// batch, in push order, and re-arms -- or, nothing queued, goes idle.
//
// Sending the idle-path item at once matters on our chained rounds: a
// delay-everything window would space each chain step a full window apart,
// so consecutive acks would never share a frame.  Immediate first frames
// keep the chain pipelined and coalesce exactly the pile-ups.  The owner's
// send callback turns a batch into one wire frame and splits its cost (the
// carrier/rider rule of transport.hpp).
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sim/clock.hpp"
#include "sim/engine.hpp"

namespace repseq::net {

template <typename Item>
class CoalescingWindow {
 public:
  /// Puts one wire frame carrying `batch` (push order, never empty) on the
  /// wire for `key`.
  using SendFn = std::function<void(std::uint64_t key, std::span<const Item> batch)>;

  CoalescingWindow(sim::Engine& eng, sim::SimDuration window, SendFn send)
      : eng_(eng), window_(window), send_(std::move(send)) {}

  CoalescingWindow(const CoalescingWindow&) = delete;
  CoalescingWindow& operator=(const CoalescingWindow&) = delete;

  void push(std::uint64_t key, Item item) {
    Key& k = keys_[key];
    if (k.open) {
      k.queued.push_back(std::move(item));
      return;
    }
    k.open = true;
    eng_.schedule_in(window_, [this, key] { close(key); });
    send_(key, std::span<const Item>(&item, 1));
  }

  /// True while `key`'s window is open, i.e. its next push queues.
  [[nodiscard]] bool is_open(std::uint64_t key) const {
    const auto it = keys_.find(key);
    return it != keys_.end() && it->second.open;
  }

 private:
  struct Key {
    std::vector<Item> queued;
    bool open = false;
  };

  void close(std::uint64_t key) {
    Key& k = keys_[key];
    if (k.queued.empty()) {
      k.open = false;
      return;
    }
    const std::vector<Item> batch = std::move(k.queued);
    k.queued.clear();
    eng_.schedule_in(window_, [this, key] { close(key); });
    send_(key, batch);
  }

  sim::Engine& eng_;
  sim::SimDuration window_;
  SendFn send_;
  std::unordered_map<std::uint64_t, Key> keys_;
};

}  // namespace repseq::net
