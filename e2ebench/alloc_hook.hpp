#pragma once

/// \file alloc_hook.hpp
/// Heap allocation count from the global operator new hook. The hook
/// (alloc_hook.cpp) is linked only into the traced binary; the untraced
/// binary measures the end-to-end metrics without it.

#include <cstdint>

namespace e2ebench {

#if E2EBENCH_TRACED
/// Calls to any global operator new since process start (all threads).
std::uint64_t allocations();
#else
inline std::uint64_t allocations() { return 0; }
#endif

}  // namespace e2ebench
