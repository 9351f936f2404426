#pragma once

/// \file alloc_hook.hpp
/// Allocation-counting hook for the benches that gate heap allocations per
/// operation. alloc_hook.cpp replaces the global operator new/delete of the
/// whole binary; a bench reads alloc_calls() around its measurement windows.
/// The replacements sit in their own translation unit, so they are never
/// inlined into the code whose allocations they count.

#include <cstdint>

namespace dclue::bench {

/// Calls to global operator new / new[] since process start (all threads).
std::uint64_t alloc_calls();

}  // namespace dclue::bench
