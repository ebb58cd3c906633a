// Simulated-time units for the SODA discrete-event simulator.
//
// The paper's measurements (chapter 5) are reported in milliseconds with
// 0.1 ms resolution; we carry simulated time as integral microseconds so
// that event ordering is exact and runs are bit-for-bit deterministic.
#pragma once

#include <cstdint>

namespace soda::sim {

/// Simulated time in microseconds since simulation start.
using Time = std::int64_t;

/// A span of simulated time in microseconds.
using Duration = std::int64_t;

constexpr Duration kMicrosecond = 1;
constexpr Duration kMillisecond = 1000;
constexpr Duration kSecond = 1000 * kMillisecond;

/// Convert a duration to fractional milliseconds (for reporting only).
constexpr double to_ms(Duration d) { return static_cast<double>(d) / 1000.0; }

}  // namespace soda::sim
