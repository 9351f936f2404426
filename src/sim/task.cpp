#include "sim/task.hpp"

namespace dclue::sim::detail {

void* PooledFrame::operator new(std::size_t n) {
  return FramePool::local().allocate(n);
}

void PooledFrame::operator delete(void* p, std::size_t n) noexcept {
  FramePool::local().deallocate(p, n);
}

}  // namespace dclue::sim::detail
