// Heap-traffic counters fed by the global operator new/delete replacements
// in counting_alloc.cpp. Counting is off until g_counting is set, so only
// the measured region is tallied.
#pragma once

#include <atomic>
#include <cstdint>

namespace lumichat::wire::testing_alloc {

extern std::atomic<std::uint64_t> g_allocs;
extern std::atomic<std::uint64_t> g_frees;
extern std::atomic<bool> g_counting;

}  // namespace lumichat::wire::testing_alloc
