#include "layers.hpp"

#include <poll.h>

#include <stdexcept>
#include <thread>
#include <vector>

#include "common/frame.hpp"
#include "common/transport/transport.hpp"
#include "markov/incremental.hpp"
#include "trace/price_series.hpp"

namespace perfbench {

using namespace redspot;

namespace {

struct LayerMetric {
  const char* name;
  const char* unit;
};

// Keep in the order of BENCHMARK.json's per_layer list.
constexpr LayerMetric kPerLayer[] = {
    {"exp.sweep_calls", "count"},
    {"exp.sweep_ms", "ms"},
    {"batch.index_builds", "count"},
    {"batch.index_build_ms", "ms"},
    {"batch.index_share", "ratio"},
    {"batch.lanes", "count"},
    {"batch.lane_us", "us"},
    {"engine.runs", "count"},
    {"engine.run_us", "us"},
    {"events.dispatched", "count"},
    {"zone.transitions", "count"},
    {"billing.line_items", "count"},
    {"ckpt.commits", "count"},
    {"deadline.switchovers", "count"},
    {"policies.calls", "count"},
    {"policies.call_us", "us"},
    {"adaptive.decisions", "count"},
    {"adaptive.reconsider_us", "us"},
    {"adaptive.decision_share", "ratio"},
    {"markov.slide_us", "us"},
    {"markov.binned_slide_us", "us"},
    {"markov.uptime_us", "us"},
    {"fault.audit_us", "us"},
    {"trace.generate_ms", "ms"},
    {"ensemble.shards", "count"},
    {"ensemble.shard_ms", "ms"},
    {"ensemble.cache_hits", "count"},
    {"fabric.dispatch_us.unix", "us"},
    {"fabric.dispatch_us.tcp", "us"},
    {"fabric.wire_codec_ns", "ns"},
    {"fabric.shards_from_fleet", "count"},
    {"fabric.shards_fallback", "count"},
    {"fabric.duplicate_partials", "count"},
    {"fabric.workers_lost", "count"},
    {"transport.rtt_us.unix", "us"},
    {"transport.rtt_us.tcp", "us"},
    {"serve.compute_advice_us", "us"},
    {"serve.server_advise_p50_us", "us"},
    {"serve.server_advise_p99_us", "us"},
    {"serve.batches_per_kreq", "count"},
    {"serve.max_batch", "count"},
    {"serve.queue_peak", "count"},
    {"serve.models", "count"},
    {"serve.evictions", "count"},
    {"serve.shed_stale", "count"},
    {"serve.shed_rejected", "count"},
    {"serve.proto_codec_ns", "ns"},
    {"serve.generator_lag_ms", "ms"},
    {"self_ms.exp", "ms"},
    {"self_ms.batch", "ms"},
    {"self_ms.engine", "ms"},
    {"self_ms.adaptive", "ms"},
    {"self_ms.trace", "ms"},
    {"self_ms.ensemble", "ms"},
    {"self_ms.fabric", "ms"},
    {"self_ms.serve", "ms"},
    {"self_ms.transport", "ms"},
    {"tracing.overhead_ratio", "ratio"},
};

/// Mean microseconds per call of `observe` over `slides` one-step slides.
double slide_us(const PriceSeries& series, SimTime from, std::size_t slides,
                std::size_t max_states, std::vector<Money>* bids,
                double* uptime_us) {
  IncrementalMarkovModel model(max_states);
  const Duration span = 2 * kDay;
  model.observe(series.view(from, from + span));
  double observe_s = 0.0;
  double uptime_s = 0.0;
  std::uint64_t uptime_calls = 0;
  for (std::size_t i = 1; i <= slides; ++i) {
    const SimTime lo = from + static_cast<SimTime>(i) * series.step();
    const PriceView window = series.view(lo, lo + span);
    observe_s += time_s([&] { model.observe(window); });
    if (bids == nullptr) continue;
    const Money now = window.sample(window.size() - 1);
    for (const Money bid : *bids) {
      uptime_s += time_s([&] { (void)model.expected_uptime(now, bid); });
      ++uptime_calls;
    }
  }
  if (uptime_us != nullptr && uptime_calls > 0)
    *uptime_us = uptime_s * 1e6 / static_cast<double>(uptime_calls);
  return observe_s * 1e6 / static_cast<double>(slides);
}

}  // namespace

void declare_per_layer(Outcome& out, bool traced) {
  if (!traced) return;
  for (const LayerMetric& m : kPerLayer) out.set(m.name, 0.0, m.unit);
}

void probe_markov(const PriceSeries& series, SimTime from, Outcome& out) {
  constexpr std::size_t kSlides = 400;
  std::vector<Money> bids = {Money::cents(27), Money::cents(81),
                             Money::dollars(2.40)};
  double uptime_us = 0.0;
  out.set("markov.slide_us",
          slide_us(series, from, kSlides, std::size_t{1} << 20, nullptr,
                   nullptr),
          "us");
  out.set("markov.binned_slide_us",
          slide_us(series, from, kSlides, 32, &bids, &uptime_us), "us");
  out.set("markov.uptime_us", uptime_us, "us");
}

double probe_transport_rtt_us(const std::string& endpoint) {
  constexpr int kRounds = 400;
  const auto ep = transport::parse_endpoint(endpoint);
  if (!ep) throw std::runtime_error("bad endpoint " + endpoint);
  const std::unique_ptr<transport::Listener> listener = transport::listen(*ep);
  const transport::Endpoint bound = listener->local_endpoint();

  // The echo peer: accept one connection, send every frame back.
  std::thread echo([&listener] {
    std::unique_ptr<transport::Stream> peer;
    while (!peer) {
      pollfd pfd{listener->fd(), POLLIN, 0};
      ::poll(&pfd, 1, 1000);
      peer = listener->accept();
    }
    FrameBuffer in;
    std::string payload;
    for (int served = 0; served < kRounds;) {
      if (in.next(&payload) == FrameStatus::kOk) {
        transport::send_frame(*peer, payload);
        ++served;
      } else if (!peer->read_into(in)) {
        return;
      }
    }
  });

  std::unique_ptr<transport::Stream> client;
  while (!client) client = transport::connect(bound);
  FrameBuffer in;
  std::string payload(64, 'x');
  std::string reply;
  std::vector<double> rtt;
  for (int r = 0; r < kRounds; ++r) {
    const auto t0 = Clock::now();
    transport::send_frame(*client, payload);
    while (in.next(&reply) != FrameStatus::kOk) {
      if (!client->read_into(in)) break;
    }
    rtt.push_back(seconds_since(t0) * 1e6);
  }
  echo.join();
  return median_of(rtt);
}

}  // namespace perfbench
