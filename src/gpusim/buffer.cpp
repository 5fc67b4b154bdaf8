#include "mpath/gpusim/buffer.hpp"

#include <atomic>
#include <cstring>
#include <stdexcept>

#include "mpath/util/rng.hpp"

namespace mpath::gpusim {

namespace {
std::atomic<BufferId> g_next_buffer_id{1};
}

DeviceBuffer::DeviceBuffer(topo::DeviceId device, std::size_t size,
                           Payload payload)
    : id_(g_next_buffer_id.fetch_add(1, std::memory_order_relaxed)),
      device_(device),
      size_(size),
      bytes_(payload == Payload::Materialized ? size : 0) {}

void DeviceBuffer::check_region(std::size_t offset, std::size_t len) const {
  if (offset + len > size_) {
    throw std::out_of_range("DeviceBuffer::region out of bounds");
  }
}

std::span<std::byte> DeviceBuffer::bytes() {
  if (!materialized()) {
    throw std::logic_error("DeviceBuffer: simulated payload has no bytes");
  }
  return bytes_;
}

std::span<const std::byte> DeviceBuffer::bytes() const {
  if (!materialized()) {
    throw std::logic_error("DeviceBuffer: simulated payload has no bytes");
  }
  return bytes_;
}

std::span<std::byte> DeviceBuffer::region(std::size_t offset,
                                          std::size_t len) {
  check_region(offset, len);
  return bytes().subspan(offset, len);
}

std::span<const std::byte> DeviceBuffer::region(std::size_t offset,
                                                std::size_t len) const {
  check_region(offset, len);
  return bytes().subspan(offset, len);
}

void DeviceBuffer::fill_pattern(std::uint64_t seed) {
  if (!materialized()) return;
  // splitmix64 over byte index: cheap, deterministic, position-dependent.
  for (std::size_t i = 0; i < bytes_.size(); ++i) {
    bytes_[i] = static_cast<std::byte>(util::mix_seed(seed, i) & 0xFF);
  }
}

bool DeviceBuffer::same_content(const DeviceBuffer& other) const {
  if (!materialized() || !other.materialized()) {
    throw std::logic_error(
        "DeviceBuffer::same_content: simulated payloads are not comparable");
  }
  return bytes_.size() == other.bytes_.size() &&
         std::memcmp(bytes_.data(), other.bytes_.data(), bytes_.size()) == 0;
}

}  // namespace mpath::gpusim
