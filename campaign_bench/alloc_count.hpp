#pragma once

#include <cstdint>

namespace lifl::bench {

/// Heap allocations made through the global operator new (every form) by
/// all threads of this process so far. Linked into the campaign benchmark
/// binary only: the replacement operators live in alloc_count.cpp.
std::uint64_t allocation_count();

}  // namespace lifl::bench
