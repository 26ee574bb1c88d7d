#include "net/fault_channel.hpp"

#include <algorithm>
#include <chrono>
#include <thread>
#include <vector>

#include "util/error.hpp"

namespace clio::net {

using util::IoError;

NetFaultInjector::NetFaultInjector(NetFaultPlan plan)
    : plan_(plan), rng_(plan.seed) {}

void NetFaultInjector::arm(bool on) {
  std::lock_guard<std::mutex> lock(mutex_);
  armed_ = on;
}

bool NetFaultInjector::armed() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return armed_;
}

void NetFaultInjector::set_plan(NetFaultPlan plan) {
  std::lock_guard<std::mutex> lock(mutex_);
  plan_ = plan;
  rng_ = util::SplitMix64(plan.seed);
}

NetFaultPlan NetFaultInjector::plan() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return plan_;
}

NetFaultStats NetFaultInjector::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

void NetFaultInjector::reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  stats_ = NetFaultStats{};
  rng_ = util::SplitMix64(plan_.seed);
}

double NetFaultInjector::roll() {
  // 53-bit mantissa from the top of the stream, as util::Rng does.
  return static_cast<double>(rng_.next() >> 11) * 0x1.0p-53;
}

bool NetFaultInjector::should_drop_accept() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!armed_) return false;
  stats_.accepts++;
  if (plan_.accept_drop_prob > 0.0 && roll() < plan_.accept_drop_prob) {
    stats_.accept_drops++;
    return true;
  }
  return false;
}

NetFaultInjector::Decision NetFaultInjector::decide_recv() {
  std::lock_guard<std::mutex> lock(mutex_);
  Decision d;
  if (!armed_) return d;
  stats_.recv_calls++;
  if (plan_.latency_prob > 0.0 && roll() < plan_.latency_prob) {
    d.sleep_us = plan_.latency_us;
    stats_.latency_injections++;
  }
  if (plan_.recv_fail_prob > 0.0 && roll() < plan_.recv_fail_prob) {
    d.fail = true;
    stats_.recv_failures++;
    return d;
  }
  if (plan_.recv_disconnect_prob > 0.0 &&
      roll() < plan_.recv_disconnect_prob) {
    d.disconnect = true;
    stats_.recv_disconnects++;
  }
  return d;
}

NetFaultInjector::Decision NetFaultInjector::decide_send(
    std::size_t payload_bytes) {
  std::lock_guard<std::mutex> lock(mutex_);
  Decision d;
  if (!armed_) return d;
  stats_.send_calls++;
  if (plan_.latency_prob > 0.0 && roll() < plan_.latency_prob) {
    d.sleep_us = plan_.latency_us;
    stats_.latency_injections++;
  }
  if (plan_.send_fail_prob > 0.0 && roll() < plan_.send_fail_prob) {
    d.fail = true;
    stats_.send_failures++;
    return d;
  }
  if (payload_bytes > 0 && plan_.short_send_prob > 0.0 &&
      roll() < plan_.short_send_prob) {
    d.tear = true;
    d.keep_bytes = static_cast<std::size_t>(
        rng_.next() % static_cast<std::uint64_t>(payload_bytes));
    stats_.short_sends++;
  }
  return d;
}

void FaultChannel::send_all(const void* data, std::size_t n) {
  const auto d = injector_.decide_send(n);
  if (d.sleep_us > 0) {
    std::this_thread::sleep_for(std::chrono::microseconds(d.sleep_us));
  }
  if (d.fail) throw IoError("FaultChannel: injected send failure");
  if (d.tear) {
    // Mid-response disconnect: a prefix reaches the peer, then the
    // connection breaks under the sender.  shutdown, not close — the
    // owner may still have this descriptor registered (see Channel docs).
    inner_.send_all(data, d.keep_bytes);
    inner_.shutdown();
    throw IoError("FaultChannel: injected mid-send disconnect");
  }
  inner_.send_all(data, n);
}

std::size_t FaultChannel::recv_some(void* out, std::size_t n) {
  const auto d = injector_.decide_recv();
  if (d.sleep_us > 0) {
    std::this_thread::sleep_for(std::chrono::microseconds(d.sleep_us));
  }
  if (d.fail) throw IoError("FaultChannel: injected recv failure");
  if (d.disconnect) {
    // The client vanished: report orderly shutdown, like a FIN mid-request
    // (shutdown, not close — the descriptor number must stay reserved).
    inner_.shutdown();
    return 0;
  }
  return inner_.recv_some(out, n);
}

std::ptrdiff_t FaultChannel::recv_nonblock(void* out, std::size_t n) {
  const auto d = injector_.decide_recv();
  if (d.sleep_us > 0) {
    std::this_thread::sleep_for(std::chrono::microseconds(d.sleep_us));
  }
  if (d.fail) throw IoError("FaultChannel: injected recv failure");
  if (d.disconnect) {
    inner_.shutdown();
    return 0;
  }
  return inner_.recv_nonblock(out, n);
}

std::size_t FaultChannel::gather(
    std::span<const std::byte> head,
    std::span<const std::span<const std::byte>> parts, bool nonblock) {
  std::size_t total = head.size();
  for (const auto part : parts) total += part.size();
  const auto d = injector_.decide_send(total);
  if (d.sleep_us > 0) {
    std::this_thread::sleep_for(std::chrono::microseconds(d.sleep_us));
  }
  if (d.fail) throw IoError("FaultChannel: injected send failure");
  if (!d.tear) {
    if (nonblock) return inner_.send_gather_nonblock(head, parts);
    inner_.send_gather(head, parts);
    return total;
  }
  // Send a keep_bytes-long prefix of the gathered stream, then break the
  // connection — identical wire effect to send_all's tear, spread across
  // whichever parts the prefix covers.
  std::vector<std::span<const std::byte>> prefix;
  std::size_t left = d.keep_bytes;
  auto take = [&](std::span<const std::byte> piece) {
    const std::size_t n = std::min(left, piece.size());
    if (n > 0) prefix.push_back(piece.first(n));
    left -= n;
  };
  take(head);
  for (const auto part : parts) take(part);
  if (nonblock) {
    static_cast<void>(inner_.send_gather_nonblock({}, prefix));
  } else {
    inner_.send_gather({}, prefix);
  }
  inner_.shutdown();
  throw IoError("FaultChannel: injected mid-send disconnect");
}

}  // namespace clio::net
