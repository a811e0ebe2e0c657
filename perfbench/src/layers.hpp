// The per-layer metric set and the probes shared by several workloads.
//
// Every traced run reports every per-layer metric; a layer a workload
// never calls reads 0 there (for example the serve metrics on
// paper-repro), which is itself the prediction "this layer does no work
// on this workload". The names and units here must match the per_layer
// list of BENCHMARK.json; perfbench/run.py checks that they do.
#pragma once

#include <cstddef>
#include <string>

#include "bench.hpp"
#include "common/time.hpp"

namespace redspot {
class PriceSeries;
}

namespace perfbench {

/// Sets every metric of the run's mode to 0 with its unit: the per-layer
/// set for traced runs, nothing for untraced ones.
void declare_per_layer(Outcome& out, bool traced);

/// markov/ and linalg/: slides a two-day window one sample at a time
/// along `series` from `from`, through IncrementalMarkovModel in unique
/// mode and in the 32-bin mode Adaptive uses, and solves expected_uptime
/// at three bids after each binned slide. Sets markov.slide_us,
/// markov.binned_slide_us and markov.uptime_us.
void probe_markov(const redspot::PriceSeries& series, redspot::SimTime from,
                  Outcome& out);

/// common/transport + common/frame: median round trip of a small frame
/// echoed by a peer thread over `endpoint` ("unix:PATH" or
/// "tcp:127.0.0.1:0"), in microseconds.
double probe_transport_rtt_us(const std::string& endpoint);

}  // namespace perfbench
