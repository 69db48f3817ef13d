// The instrumented shared-memory access layer.
//
// Real TreadMarks detects accesses through VM page protection; a compiled
// OpenMP/NOW binary simply loads and stores.  Here every access goes through
// a typed accessor that (a) runs the protocol's read/write barrier for the
// touched page range and (b) reads/writes the calling node's local backing
// copy.  `Sh*` types are value-semantic handles holding only a GAddr, so
// they can be captured by parallel-region closures exactly like the shared
// addresses the translator passes at fork time (paper Section 2.3).
#pragma once

#include <cstddef>
#include <type_traits>

#include "tmk/gaddr.hpp"
#include "tmk/runtime.hpp"

namespace repseq::tmk {

/// A single shared variable of trivially-copyable type T.
template <typename T>
class ShVar {
  static_assert(std::is_trivially_copyable_v<T>, "shared data must be trivially copyable");

 public:
  ShVar() = default;
  explicit ShVar(GAddr addr) : addr_(addr) {}

  [[nodiscard]] GAddr addr() const { return addr_; }

  [[nodiscard]] T load() const {
    NodeRuntime& rt = Cluster::current();
    rt.read_barrier(addr_, sizeof(T));
    return *rt.local<const T>(addr_);
  }

  void store(const T& v) const {
    NodeRuntime& rt = Cluster::current();
    rt.write_barrier(addr_, sizeof(T));
    *rt.local<T>(addr_) = v;
  }

  /// Allocates a shared variable on the cluster heap.
  static ShVar alloc(Cluster& cl) { return ShVar(cl.heap().alloc(sizeof(T), alignof(T))); }

 private:
  GAddr addr_{};
};

/// A contiguous shared array of trivially-copyable T.
template <typename T>
class ShArray {
  static_assert(std::is_trivially_copyable_v<T>, "shared data must be trivially copyable");

 public:
  ShArray() = default;
  ShArray(GAddr base, std::size_t count) : base_(base), count_(count) {}

  [[nodiscard]] GAddr addr_of(std::size_t i) const { return base_ + i * sizeof(T); }
  [[nodiscard]] GAddr base() const { return base_; }
  [[nodiscard]] std::size_t size() const { return count_; }

  [[nodiscard]] T load(std::size_t i) const {
    NodeRuntime& rt = Cluster::current();
    rt.read_barrier(addr_of(i), sizeof(T));
    return *rt.local<const T>(addr_of(i));
  }

  void store(std::size_t i, const T& v) const {
    NodeRuntime& rt = Cluster::current();
    rt.write_barrier(addr_of(i), sizeof(T));
    *rt.local<T>(addr_of(i)) = v;
  }

  /// Field-granular access for struct elements: write one member.
  template <typename F, typename C = T>
    requires std::is_class_v<C> && std::is_same_v<C, T>
  void set_field(std::size_t i, F C::* member, const F& v) const {
    NodeRuntime& rt = Cluster::current();
    const GAddr fa = field_addr(i, member);
    rt.write_barrier(fa, sizeof(F));
    *rt.local<F>(fa) = v;
  }

  /// Allocates a shared array on the cluster heap (page-aligned when asked,
  /// the usual idiom to avoid false sharing between unrelated structures).
  static ShArray alloc(Cluster& cl, std::size_t count, bool page_aligned = false) {
    const std::size_t align = page_aligned ? cl.config().page_bytes : alignof(T);
    return ShArray(cl.heap().alloc(count * sizeof(T), align), count);
  }

 private:
  template <typename F, typename C = T>
    requires std::is_class_v<C> && std::is_same_v<C, T>
  [[nodiscard]] GAddr field_addr(std::size_t i, F C::* member) const {
    // Member-pointer offset computed against a local dummy: portable and
    // constant-folded by any optimizer.
    alignas(C) static const C probe{};
    const auto off = reinterpret_cast<const char*>(&(probe.*member)) -
                     reinterpret_cast<const char*>(&probe);
    return addr_of(i) + static_cast<std::uint64_t>(off);
  }

  GAddr base_{};
  std::size_t count_ = 0;
};

}  // namespace repseq::tmk
