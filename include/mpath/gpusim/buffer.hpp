// Simulated device memory. Buffers carry real payload bytes so that every
// layer above (pipeline engine, transport, collectives) can be verified for
// data integrity, not just timing: a multi-path chunked transfer must
// deliver exactly the source bytes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "mpath/topo/topology.hpp"
#include "mpath/util/small_vec.hpp"

namespace mpath::gpusim {

using BufferId = std::uint64_t;

class GpuRuntime;

/// Whether a buffer carries real bytes. Benchmarks move hundreds of MB per
/// simulated transfer; materializing (and copying) that payload costs real
/// memory bandwidth without affecting simulated timing, so they use
/// Simulated buffers. Correctness tests use Materialized (the default).
enum class Payload { Materialized, Simulated };

class DeviceBuffer {
 public:
  DeviceBuffer(topo::DeviceId device, std::size_t size,
               Payload payload = Payload::Materialized);

  DeviceBuffer(const DeviceBuffer&) = delete;
  DeviceBuffer& operator=(const DeviceBuffer&) = delete;
  DeviceBuffer(DeviceBuffer&&) noexcept = default;
  DeviceBuffer& operator=(DeviceBuffer&&) noexcept = default;

  [[nodiscard]] BufferId id() const { return id_; }
  [[nodiscard]] topo::DeviceId device() const { return device_; }
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool materialized() const { return !bytes_.empty() || size_ == 0; }

  /// Bounds check without touching storage (valid for Simulated buffers).
  void check_region(std::size_t offset, std::size_t len) const;

  /// Byte access; throws std::logic_error on Simulated buffers.
  [[nodiscard]] std::span<std::byte> bytes();
  [[nodiscard]] std::span<const std::byte> bytes() const;
  [[nodiscard]] std::span<std::byte> region(std::size_t offset,
                                            std::size_t len);
  [[nodiscard]] std::span<const std::byte> region(std::size_t offset,
                                                  std::size_t len) const;

  /// Fill with a deterministic pattern derived from `seed` (test/bench
  /// aid); no-op on Simulated buffers.
  void fill_pattern(std::uint64_t seed);
  /// Byte-wise equality of the full payload; throws std::logic_error if
  /// either buffer is Simulated (a simulated payload has no content to
  /// compare — the check would be meaningless).
  [[nodiscard]] bool same_content(const DeviceBuffer& other) const;

  /// Typed views for collective reductions (size must divide evenly);
  /// throws std::logic_error on Simulated buffers.
  template <typename T>
  [[nodiscard]] std::span<T> as() {
    return {reinterpret_cast<T*>(bytes().data()), size_ / sizeof(T)};
  }
  template <typename T>
  [[nodiscard]] std::span<const T> as() const {
    return {reinterpret_cast<const T*>(bytes().data()), size_ / sizeof(T)};
  }

 private:
  friend class GpuRuntime;  // opens and looks up IPC handles

  /// A CUDA IPC handle opened on this buffer by `opener` through the
  /// runtime numbered `runtime`.
  struct IpcHandle {
    std::uint64_t runtime;
    topo::DeviceId opener;
  };

  BufferId id_;
  topo::DeviceId device_;
  std::size_t size_;
  std::vector<std::byte> bytes_;  // empty for Simulated buffers
  /// Handles opened on the buffer die with it, as a registration cache
  /// drops its entries when the memory is unmapped. Null until the first
  /// open, so a buffer no peer opens carries one pointer for them. Opening
  /// is a runtime-side act on a const buffer, hence mutable; like the
  /// runtime, a buffer is used from one thread.
  mutable std::unique_ptr<util::SmallVec<IpcHandle, 2>> ipc_handles_;
};

}  // namespace mpath::gpusim
