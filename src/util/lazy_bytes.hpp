// A zero-initialized byte buffer whose physical pages are faulted in on
// first touch.  The simulator gives every node a multi-megabyte "shared
// heap" backing store, but typical workloads touch a small fraction of it;
// a std::vector<std::byte> would memset the whole reservation up front
// (gigabytes of page faults at 256+ nodes).  An anonymous private mmap
// leaves the pages to the kernel, which materializes them lazily from the
// shared zero page.
#pragma once

#include <sys/mman.h>

#include <cstddef>

#include "util/check.hpp"

namespace repseq::util {

class LazyBytes {
 public:
  explicit LazyBytes(std::size_t bytes) : size_(bytes) {
    if (bytes == 0) return;
    void* p = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    REPSEQ_CHECK(p != MAP_FAILED, "mmap of node memory failed");
    data_ = static_cast<std::byte*>(p);
  }

  LazyBytes(const LazyBytes&) = delete;
  LazyBytes& operator=(const LazyBytes&) = delete;

  ~LazyBytes() {
    if (data_ != nullptr) ::munmap(data_, size_);
  }

  [[nodiscard]] std::byte* data() { return data_; }
  [[nodiscard]] const std::byte* data() const { return data_; }

 private:
  std::byte* data_ = nullptr;
  std::size_t size_ = 0;
};

}  // namespace repseq::util
