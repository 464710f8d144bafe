// ArenaPool: shared backing storage for many small dynamic arrays — in
// this codebase, FISSIONE's per-peer object stores. Each logical array is
// a Ref — {offset, size, capacity} into one contiguous vector — so the
// per-array heap allocation of a vector-of-vectors layout disappears.
// Capacities are powers of two recycled through per-size free lists, so
// membership churn reuses blocks instead of round-tripping the allocator.
//
// Refs stay valid across every operation; spans/pointers into the pool are
// invalidated by any operation that can grow it (push_back, assign,
// reserve) — take views after mutating, not across mutations.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/check.h"

namespace armada::util {

template <typename T>
class ArenaPool {
  // Elements own no resource, so slots past a list's size and blocks on the
  // free lists keep stale values and are simply overwritten on reuse.
  static_assert(std::is_trivially_copyable_v<T>);

 public:
  struct Ref {
    std::uint32_t off = 0;
    std::uint32_t size = 0;
    std::uint8_t cap_log2 = kUnallocated;
  };

  std::span<const T> view(const Ref& r) const {
    return {data_.data() + r.off, r.size};
  }
  std::span<T> mut_view(Ref& r) { return {data_.data() + r.off, r.size}; }

  void push_back(Ref& r, T v) {
    reserve(r, static_cast<std::size_t>(r.size) + 1);
    data_[r.off + r.size] = v;
    ++r.size;
  }

  /// Replace the contents (order preserved); reuses the block when it fits.
  void assign(Ref& r, std::vector<T> src) {
    reserve(r, src.size());
    std::copy(src.begin(), src.end(), data_.begin() + r.off);
    r.size = static_cast<std::uint32_t>(src.size());
  }

  void clear(Ref& r) { r.size = 0; }

  /// Return the block to its free list; the Ref becomes unallocated.
  void release(Ref& r) {
    if (r.cap_log2 != kUnallocated) {
      free_[r.cap_log2].push_back(r.off);
    }
    r = Ref{};
  }

  void reserve(Ref& r, std::size_t need) {
    if (r.cap_log2 != kUnallocated &&
        need <= (std::size_t{1} << r.cap_log2)) {
      return;
    }
    const auto log2 = static_cast<std::uint8_t>(std::max<int>(
        kMinCapLog2, std::bit_width(std::max<std::size_t>(need, 1) - 1)));
    const std::uint32_t off = allocate(log2);
    std::copy_n(data_.begin() + r.off, r.size, data_.begin() + off);
    if (r.cap_log2 != kUnallocated) {
      free_[r.cap_log2].push_back(r.off);
    }
    r.off = off;
    r.cap_log2 = log2;
  }

 private:
  static constexpr std::uint8_t kUnallocated = 0xff;
  static constexpr int kMinCapLog2 = 2;  // smallest block: 4 elements

  std::uint32_t allocate(std::uint8_t log2) {
    if (!free_[log2].empty()) {
      const std::uint32_t off = free_[log2].back();
      free_[log2].pop_back();
      return off;
    }
    const std::size_t off = data_.size();
    ARMADA_CHECK_MSG(off + (std::size_t{1} << log2) <= UINT32_MAX,
                     "arena pool exceeds 32-bit offsets");
    data_.resize(off + (std::size_t{1} << log2));
    return static_cast<std::uint32_t>(off);
  }

  std::vector<T> data_;
  std::array<std::vector<std::uint32_t>, 32> free_;
};

}  // namespace armada::util
