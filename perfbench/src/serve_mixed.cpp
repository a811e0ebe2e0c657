// serve-mixed: a redspot-serve daemon under the multitenant traffic of
// bench/bench_serve.cpp, with price ticks arriving beside it.
//
// One client process drives the daemon over unix sockets with three
// threads: a generator sending advise requests on one connection, a
// receiver collecting the answers, and a ticker appending one price sample
// per zone at a fixed cadence on its own connection. Each tick moves the
// trace end, so the next advise on every model slides it: a change that
// makes reads cheaper by making writes dearer shows up here. 1000 tenants
// share eight ModelSpecs, as in bench_serve.
//
// Two sessions, each against a freshly started daemon:
//  - saturation: the generator keeps kInFlight requests outstanding (the
//    closed loop of bench_serve); the answer rate is the daemon's
//    throughput and its CPU time per answer the daemon's cost.
//  - ladder: open-loop requests on a fixed schedule, each latency timed
//    from when the request was due. The rate starts at the stated rate and
//    doubles while the last rung met the latency limit and the next stays
//    within the measured throughput; the sustained rate is the highest
//    rung that met the limit.
//
// Correctness: every advice must be fresh (a shed or rejected request
// counts as failed) and bit-identical to advise_offline on the trace
// prefix it was computed from; every tick must be acknowledged.
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <map>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "bench.hpp"
#include "exp/scenario.hpp"
#include "layers.hpp"
#include "serve/advisor.hpp"
#include "serve/client.hpp"
#include "serve/proto.hpp"
#include "trace/synthetic.hpp"

namespace perfbench {

using namespace redspot;
using namespace redspot::serve;

namespace {

constexpr const char* kSocketPath = "serve.sock";
constexpr const char* kEndpoint = "unix:serve.sock";
/// The tenant and model mix of bench_serve's multitenant suite.
constexpr std::size_t kTenants = 1000;
constexpr std::size_t kModels = 8;
constexpr std::size_t kJobKinds = 5;
/// Requests the saturation phase keeps outstanding: bench_serve's 16
/// submitters with 8 requests pipelined each.
constexpr std::size_t kInFlight = 16 * 8;
/// Slots reserved per second of the saturation phase: twice the 27000
/// req/s BENCH_serve.json records for the batcher without sockets. The
/// phase ends early if it runs out of them; its rate stays valid.
constexpr double kMaxSaturationRate = 54000.0;
/// The stated advise rate the latency figures report and the ladder's
/// first rung: BENCH_serve.json's min_serve_qps floor.
constexpr double kStatedRate = 2500.0;
/// The tail-latency limit a rung must meet to count as sustained.
constexpr double kLimitMs = 50.0;
/// Shares of --seconds: the saturation phase, the stated rung and each
/// rung above it.
constexpr double kSaturationShare = 0.5;
constexpr double kStatedShare = 0.25;
constexpr double kRungShare = 0.1;
/// One tick per 50 advises at the stated rate: every (model, job) pair
/// sees a new trace end about once per tick.
constexpr double kTickIntervalS = 0.02;
constexpr std::size_t kHistorySamples = 3 * 288;  // three days of ticks
constexpr int kSetupReps = 9;

/// bench_serve's shared model fleet: windows of 1 to 1.75 days and a
/// distinct Markov resolution per spec.
std::vector<ModelSpec> model_specs() {
  std::vector<ModelSpec> specs;
  for (std::size_t i = 0; i < kModels; ++i) {
    ModelSpec spec;
    spec.history_span = kDay + static_cast<Duration>(i % 4) * (kDay / 4);
    spec.max_states = 16 + 4 * i;
    specs.push_back(std::move(spec));
  }
  return specs;
}

JobParams tenant_job(std::size_t kind) {
  JobParams job;
  job.remaining_compute = 6 * kHour;
  job.remaining_time = 12 * kHour + static_cast<Duration>(kind) * kHour;
  return job;
}

/// The daemon process and the spec hashes it registered.
struct Daemon {
  pid_t pid = -1;
  std::vector<std::uint64_t> hashes;
};

/// Starts the daemon into `d` (its pid is recorded before anything that
/// can throw), seeds its trace and registers the specs.
void start_daemon(const RunArgs& args, const ZoneTraceSet& trace,
                  std::size_t capacity, std::size_t threads, Daemon& d) {
  d.hashes.clear();
  const std::string threads_s = std::to_string(threads);
  // --shed-limit 0: the shed gate still admits every request and records
  // every answer, but never answers stale, so a rung beyond the daemon's
  // capacity shows as latency and every answer is computed and checked.
  std::vector<std::string> argv_s = {
      args.serve_bin, "--socket",     kEndpoint, "--threads",
      threads_s,      "--shed-limit", "0",       "--quiet"};
  std::vector<char*> argv_c;
  for (std::string& s : argv_s) argv_c.push_back(s.data());
  argv_c.push_back(nullptr);
  ::unlink(kSocketPath);
  d.pid = ::fork();
  if (d.pid < 0) throw std::runtime_error("fork failed");
  if (d.pid == 0) {
    ::execv(argv_c[0], argv_c.data());
    ::_exit(127);
  }
  // Connect once the daemon has bound its socket: a connect before that
  // would sleep through the client's reconnect backoff (tens of ms), which
  // set-up time would then measure instead of the daemon.
  const auto t0 = Clock::now();
  while (::access(kSocketPath, F_OK) != 0) {
    if (seconds_since(t0) > 10.0)
      throw std::runtime_error("redspot-serve did not bind its socket");
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  ServeClient client(kEndpoint, 10'000);
  TraceInitMsg init;
  init.start = trace.start();
  init.step = trace.step();
  init.capacity_samples = capacity;
  for (std::size_t z = 0; z < trace.num_zones(); ++z) {
    init.zone_names.push_back(trace.zone_name(z));
    std::vector<Money> seed;
    for (std::size_t i = 0; i < kHistorySamples; ++i)
      seed.push_back(trace.zone(z).sample(i));
    init.samples.push_back(std::move(seed));
  }
  client.trace_init(init);
  for (const ModelSpec& spec : model_specs())
    d.hashes.push_back(client.register_spec(spec));
}

/// SIGTERM drains the daemon; it exits 130 after a clean drain.
bool stop_daemon(Daemon& d) {
  if (d.pid <= 0) return true;
  ::kill(d.pid, SIGTERM);
  int status = 0;
  const bool reaped = ::waitpid(d.pid, &status, 0) == d.pid;
  d.pid = -1;
  return reaped && WIFEXITED(status) && WEXITSTATUS(status) == 130;
}

/// One advise request's timing, filled by the generator and the receiver.
struct Slot {
  double due = 0.0;    ///< seconds since the phase start
  double done = -1.0;  ///< < 0 until answered
  bool stale = false;
  bool error = false;
};

/// The tenant a request belongs to; request ids count from 1 per session.
std::size_t tenant_of(std::uint64_t request_id) {
  return static_cast<std::size_t>((request_id - 1) % kTenants);
}

/// Every fresh answer of a run, grouped by what determines it: model, job
/// kind and the trace end it saw. A group keeps its first advice and
/// whether every later one equalled it, so the oracle runs once per group
/// and the client keeps no per-request advice.
using AnswerKey = std::tuple<std::size_t, std::size_t, SimTime>;
struct AnswerGroup {
  Advice advice;
  bool all_equal = true;
  std::uint64_t count = 0;
};
using Answers = std::map<AnswerKey, AnswerGroup>;

/// One phase of a session: open loop at `offered` req/s, or the closed
/// loop when `offered` is 0.
struct Phase {
  double offered = 0.0;
  /// Answers per second: from the phase start to the last answer, or for
  /// the closed loop the median rate over half-second windows.
  double achieved = 0.0;
  Samples latency_s;
  /// The same latencies split into consecutive one-second windows (by due
  /// time); medians over windows shrug off a short burst of interference
  /// from outside the benchmark.
  std::vector<Samples> windows;
  std::uint64_t requests = 0;
  std::uint64_t unanswered = 0;
  std::uint64_t stale = 0;
  std::uint64_t rejected = 0;
  double max_lag_s = 0.0;  ///< latest open-loop send behind its due time
  bool sustained = false;

  std::uint64_t failed() const { return unanswered + stale + rejected; }
  double window_median_p50() const {
    std::vector<double> v;
    for (const Samples& w : windows) v.push_back(w.median());
    return median_of(v);
  }
  double window_median_tail() const {
    std::vector<double> v;
    for (const Samples& w : windows) v.push_back(w.tail());
    return median_of(v);
  }
};

/// The client side of one session against a started daemon: an advise
/// connection for the phases and a ticker feeding the daemon on its own
/// connection from construction until stop().
class Session {
 public:
  Session(const Daemon& daemon, const ZoneTraceSet& trace,
          std::size_t max_ticks)
      : daemon_(daemon),
        trace_(trace),
        max_ticks_(max_ticks),
        advise_(kEndpoint),
        ticker_client_(kEndpoint),
        ticker_([this] { tick_loop(); }) {}
  ~Session() { stop(); }

  void stop() {
    if (!ticker_.joinable()) return;
    ticking_.store(false);
    ticker_.join();
  }

  /// Sends the phase's requests for `seconds`, waits for every answer and
  /// adds the fresh ones to `answers`.
  Phase run(double rate, double seconds, Answers& answers);

  Samples tick_latency_s;
  std::uint64_t ticks = 0;
  std::uint64_t failed_ticks = 0;

 private:
  void tick_loop();

  const Daemon& daemon_;
  const ZoneTraceSet& trace_;
  const std::size_t max_ticks_;
  ServeClient advise_;
  ServeClient ticker_client_;
  std::uint64_t next_id_ = 0;
  std::atomic<bool> ticking_{true};
  std::thread ticker_;
};

/// Ticks on their own connection, each timed from when it was due.
void Session::tick_loop() {
  const auto t0 = Clock::now();
  for (std::size_t i = 0; ticking_.load() && i < max_ticks_; ++i) {
    const double due = kTickIntervalS * static_cast<double>(i + 1);
    std::this_thread::sleep_until(
        t0 + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(due)));
    if (!ticking_.load() || kHistorySamples + i >= trace_.zone(0).size())
      return;
    std::vector<Money> prices;
    for (std::size_t z = 0; z < trace_.num_zones(); ++z)
      prices.push_back(trace_.zone(z).sample(kHistorySamples + i));
    try {
      ticker_client_.tick(prices);
      tick_latency_s.add(seconds_since(t0) - due);
    } catch (const std::exception&) {
      ++failed_ticks;
    }
    ++ticks;
  }
}

Phase Session::run(double rate, double seconds, Answers& answers) {
  Phase p;
  p.offered = rate;
  const bool closed = rate <= 0.0;
  std::vector<Slot> slots(static_cast<std::size_t>(
      (closed ? kMaxSaturationRate : rate) * seconds));
  const std::uint64_t base = next_id_;

  // Requests sent; kDone marks the generator finished. The receiver reads
  // only as many answers as were sent.
  constexpr std::uint64_t kDone = std::uint64_t{1} << 63;
  std::atomic<std::uint64_t> sent{0};
  std::atomic<std::uint64_t> received{0};
  std::atomic<bool> lost{false};
  const auto t0 = Clock::now();

  std::thread receiver([&] {
    const auto slot_of = [&](std::uint64_t request_id) -> Slot* {
      return request_id > base && request_id - base <= slots.size()
                 ? &slots[request_id - base - 1]
                 : nullptr;
    };
    for (;;) {
      // Nothing outstanding: poll briefly rather than block, so the first
      // reply after an idle gap is read promptly.
      const std::uint64_t got = received.load();
      const std::uint64_t now = sent.load();
      if ((now & ~kDone) == got) {
        if ((now & kDone) != 0) return;
        std::this_thread::sleep_for(std::chrono::microseconds(50));
        continue;
      }
      try {
        const AdviceMsg msg = advise_.recv_advice();
        if (Slot* slot = slot_of(msg.request_id)) {
          slot->stale = msg.stale;
          slot->done = seconds_since(t0);
          if (!msg.stale) {
            const std::size_t tenant = tenant_of(msg.request_id);
            auto [it, first] = answers.try_emplace(
                {tenant % kModels, tenant % kJobKinds, msg.advice.as_of});
            AnswerGroup& group = it->second;
            if (first) group.advice = msg.advice;
            group.all_equal = group.all_equal && msg.advice == group.advice;
            ++group.count;
          }
        }
      } catch (const ServeError& e) {
        if (Slot* slot = slot_of(e.request_id())) {
          slot->error = true;
          slot->done = seconds_since(t0);
        }
      } catch (const std::exception&) {
        // Connection gone: unanswered slots count as failed. The bump
        // wakes a generator waiting for a free in-flight slot.
        lost.store(true);
        received.fetch_add(1);
        received.notify_all();
        return;
      }
      received.fetch_add(1);
      received.notify_all();
    }
  });

  // The generator: on the open-loop schedule, or whenever fewer than
  // kInFlight requests are outstanding.
  std::size_t n = 0;
  for (; n < slots.size() && !lost.load(); ++n) {
    Slot& slot = slots[n];
    if (closed) {
      for (std::uint64_t r = received.load(); !lost.load() && n - r >= kInFlight;
           r = received.load())
        received.wait(r);
      slot.due = seconds_since(t0);
      if (slot.due >= seconds) break;
    } else {
      slot.due = static_cast<double>(n) / rate;
      std::this_thread::sleep_until(
          t0 + std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double>(slot.due)));
      p.max_lag_s = std::max(p.max_lag_s, seconds_since(t0) - slot.due);
    }
    const std::uint64_t id = base + n + 1;
    const std::size_t tenant = tenant_of(id);
    try {
      advise_.advise_async(id, daemon_.hashes[tenant % kModels],
                           tenant_job(tenant % kJobKinds));
      sent.fetch_add(1);
    } catch (const std::exception&) {
      slot.error = true;  // never sent; counted failed
      slot.done = slot.due;
    }
  }
  sent.fetch_or(kDone);
  receiver.join();
  slots.resize(n);
  next_id_ = base + n;

  // A request that failed, was shed or never came back misses every
  // latency limit.
  p.requests = n;
  p.windows.resize(
      static_cast<std::size_t>(std::max(1.0, std::floor(seconds))));
  double last_done = 0.0;
  for (const Slot& slot : slots) {
    const bool ok = slot.done >= 0.0 && !slot.stale && !slot.error;
    const double latency = ok ? slot.done - slot.due : INFINITY;
    p.latency_s.add(latency);
    p.windows[std::min(p.windows.size() - 1,
                       static_cast<std::size_t>(slot.due))]
        .add(latency);
    p.unanswered += slot.done < 0.0 ? 1 : 0;
    p.stale += slot.stale ? 1 : 0;
    p.rejected += slot.error ? 1 : 0;
    last_done = std::max(last_done, slot.done);
  }
  const double answered = static_cast<double>(p.requests - p.failed());
  p.achieved = last_done > 0.0 ? answered / last_done : 0.0;
  if (closed) {
    // The daemon's throughput: the median answer rate over half-second
    // windows after the first second, in which every model is built from
    // scratch. The median shrugs off short interference from outside the
    // benchmark.
    constexpr double kWindowS = 0.5;
    constexpr std::size_t kWarmupWindows = 2;
    std::vector<double> rates(static_cast<std::size_t>(seconds / kWindowS));
    for (const Slot& slot : slots) {
      const auto w = static_cast<std::size_t>(slot.done / kWindowS);
      if (slot.done >= 0.0 && !slot.stale && !slot.error && w < rates.size())
        rates[w] += 1.0 / kWindowS;
    }
    if (rates.size() > kWarmupWindows)
      p.achieved = median_of({rates.begin() + kWarmupWindows, rates.end()});
  }
  p.sustained = !closed && p.failed() == 0 &&
                p.latency_s.tail() * 1e3 <= kLimitMs &&
                p.achieved >= 0.95 * p.offered;
  return p;
}

/// Counts a phase's requests, each failed one (never answered, shed or
/// rejected) as a failure.
void count_phase(const Phase& p, Outcome& out) {
  out.count(p.requests, p.failed(),
            "advise requests failed: " + std::to_string(p.unanswered) +
                " never answered, " + std::to_string(p.stale) +
                " answered stale (shed), " + std::to_string(p.rejected) +
                " rejected");
}

/// Checks every group of fresh answers against the from-scratch oracle on
/// the trace prefix it names; returns the oracle's mean time per call.
double verify(const Answers& answers, const ZoneTraceSet& trace,
              Outcome& out) {
  const std::vector<ModelSpec> specs = model_specs();
  std::vector<const Answers::value_type*> work;
  std::uint64_t advises = 0;
  for (const auto& entry : answers) {
    work.push_back(&entry);
    advises += entry.second.count;
  }
  std::vector<char> ok(work.size(), 0);
  std::atomic<std::size_t> next{0};
  std::atomic<std::uint64_t> oracle_ns{0};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < nproc(); ++t) {
    threads.emplace_back([&] {
      for (std::size_t i; (i = next.fetch_add(1)) < work.size();) {
        const auto& [key, group] = *work[i];
        const auto& [model, kind, as_of] = key;
        // Advice is stamped with the time of the last sample it saw.
        const ZoneTraceSet prefix =
            trace.window(trace.start(), as_of + trace.step());
        const auto o0 = Clock::now();
        const Advice expect =
            advise_offline(specs[model], prefix, tenant_job(kind));
        oracle_ns.fetch_add(static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                Clock::now() - o0)
                .count()));
        ok[i] = group.all_equal && group.advice == expect ? 1 : 0;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (std::size_t i = 0; i < work.size(); ++i) {
    out.check(ok[i] != 0, "advice differs from advise_offline at as_of " +
                              std::to_string(std::get<2>(work[i]->first)));
  }
  note("oracle_checks", std::to_string(work.size()) + " distinct (spec, job, "
                        "prefix) keys covering " +
                            std::to_string(advises) + " fresh advises");
  return work.empty() ? 0.0
                      : static_cast<double>(oracle_ns.load()) / 1e3 /
                            static_cast<double>(work.size());
}

/// serve/proto: one advise request and its advice reply, encoded and
/// decoded; ns per exchange.
double proto_codec_ns() {
  constexpr int kRounds = 50000;
  AdviceMsg reply;
  reply.advice.zones = {0, 1, 2};
  reply.advice.bid = Money::cents(81);
  std::uint64_t sink = 0;
  const double s = time_s([&] {
    for (int i = 0; i < kRounds; ++i) {
      const auto req = decode_advise(encode_advise(
          AdviseMsg{static_cast<std::uint64_t>(i), 7, tenant_job(1)}));
      reply.request_id = req->request_id;
      const auto back = decode_advice(encode_advice(reply));
      sink += back->request_id;
    }
  });
  if (sink != static_cast<std::uint64_t>(kRounds) * (kRounds - 1) / 2)
    throw std::runtime_error("proto codec round trip lost data");
  return s * 1e9 / kRounds;
}

void print_phase(const char* what, const Phase& p) {
  std::printf("# %s: achieved %.1f req/s, latency %s, failed %llu%s\n", what,
              p.achieved, p.latency_s.describe(1e3, "ms").c_str(),
              static_cast<unsigned long long>(p.failed()),
              p.offered <= 0.0 ? ""
              : p.sustained    ? ", sustained"
                               : ", NOT sustained");
}

/// Runs both sessions, stops the daemons and checks every answer. `daemon`
/// names the running daemon throughout, so the caller can stop it if
/// anything throws.
Outcome serve_sessions(const RunArgs& args, const ZoneTraceSet& trace,
                       std::size_t capacity, std::size_t daemon_threads,
                       Daemon& daemon) {
  Outcome out;
  declare_per_layer(out, args.trace);
  const std::size_t max_ticks = capacity - kHistorySamples;

  // Set-up: daemon start, trace_init and spec registration; the last
  // daemon stays up for the saturation session.
  Samples setup;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    if (rep > 0) out.check(stop_daemon(daemon), "daemon did not drain");
    setup.add(time_s([&] {
      start_daemon(args, trace, capacity, daemon_threads, daemon);
    }));
  }

  const auto sessions_t0 = Clock::now();
  // Saturation. The daemon's CPU time is read once it is reaped: its
  // whole life, of which start-up is a small fixed part.
  const CpuTimes cpu0 = cpu_times();
  Answers answers;
  Phase saturation;
  {
    Session session(daemon, trace, max_ticks);
    saturation = session.run(0.0, kSaturationShare * args.seconds, answers);
    session.stop();
    out.count(session.ticks, session.failed_ticks,
              "price ticks not acknowledged");
  }
  out.check(stop_daemon(daemon), "daemon did not drain");
  const double daemon_cpu_s = cpu_times().children_s - cpu0.children_s;
  print_phase(("saturation, " + std::to_string(kInFlight) + " in flight").c_str(),
              saturation);

  // The ladder, on a fresh daemon.
  start_daemon(args, trace, capacity, daemon_threads, daemon);
  std::vector<Phase> ladder;
  Samples tick_latency_s;
  StatsReplyMsg stats;
  {
    Session session(daemon, trace, max_ticks);
    for (double rate = kStatedRate;; rate *= 2) {
      const double share = ladder.empty() ? kStatedShare : kRungShare;
      ladder.push_back(session.run(rate, share * args.seconds, answers));
      // The daemon's own figures for the stated rate, before any rung
      // above it.
      if (ladder.size() == 1) stats = ServeClient(kEndpoint).stats();
      char what[64];
      std::snprintf(what, sizeof what, "rung %.0f req/s", rate);
      print_phase(what, ladder.back());
      if (!ladder.back().sustained || 2 * rate > saturation.achieved) break;
    }
    session.stop();
    out.count(session.ticks, session.failed_ticks,
              "price ticks not acknowledged");
    tick_latency_s = session.tick_latency_s;
  }
  out.check(stop_daemon(daemon), "daemon did not drain");
  const double sessions_s = seconds_since(sessions_t0);

  count_phase(saturation, out);
  for (const Phase& p : ladder) count_phase(p, out);
  const double compute_us = verify(answers, trace, out);
  note("tick_latency", tick_latency_s.describe(1e3, "ms"));
  double max_lag_s = 0.0;
  for (const Phase& p : ladder) max_lag_s = std::max(max_lag_s, p.max_lag_s);
  note("generator_lag_max_ms", std::to_string(max_lag_s * 1e3));

  const Phase& stated = ladder.front();
  if (args.trace) {
    // The sessions above are not instrumented (the daemon's own counters
    // are read after them); the probes are the tracing work.
    const double probes_s = time_s([&] {
      out.set("serve.proto_codec_ns", proto_codec_ns(), "ns");
      probe_markov(trace.zone(0), trace.start(), out);
      out.set("transport.rtt_us.unix", probe_transport_rtt_us("unix:echo.sock"),
              "us");
      out.set("transport.rtt_us.tcp", probe_transport_rtt_us("tcp:127.0.0.1:0"),
              "us");
    });
    out.set("serve.compute_advice_us", compute_us, "us");
    out.set("serve.server_advise_p50_us", stats.advise_p50_ns / 1e3, "us");
    out.set("serve.server_advise_p99_us", stats.advise_p99_ns / 1e3, "us");
    out.set("serve.batches_per_kreq",
            stats.advises == 0 ? 0.0
                               : 1e3 * static_cast<double>(stats.batches) /
                                     static_cast<double>(stats.advises),
            "count");
    out.set("serve.max_batch", static_cast<double>(stats.max_batch), "count");
    out.set("serve.queue_peak", static_cast<double>(stats.queue_peak), "count");
    out.set("serve.models", static_cast<double>(stats.models), "count");
    out.set("serve.evictions", static_cast<double>(stats.evictions), "count");
    out.set("serve.shed_stale", static_cast<double>(stats.shed_stale), "count");
    out.set("serve.shed_rejected", static_cast<double>(stats.shed_rejected),
            "count");
    out.set("serve.generator_lag_ms", max_lag_s * 1e3, "ms");
    // Per request at the stated rate: time inside the daemon's advise
    // path, and the client's latency beyond it (transport, codecs, poll
    // loop, queueing).
    out.set("self_ms.serve", stats.advise_p50_ns / 1e6, "ms");
    out.set("self_ms.transport",
            std::max(0.0, stated.latency_s.median() * 1e3 -
                              stats.advise_p50_ns / 1e6),
            "ms");
    out.set("tracing.overhead_ratio", (sessions_s + probes_s) / sessions_s,
            "ratio");
    return out;
  }

  double sustained = 0.0;
  for (const Phase& p : ladder)
    if (p.sustained) sustained = p.achieved;
  note("advise_p50_ms", std::to_string(stated.window_median_p50() * 1e3) +
                            " ms (at the stated rate, median of 1 s windows)");
  note("advise_p99_ms", std::to_string(stated.window_median_tail() * 1e3) +
                            " ms (at the stated rate, median of 1 s windows)");
  note("tick_p99_ms", std::to_string(tick_latency_s.tail() * 1e3) + " ms");
  note("sustained_advise_rps", std::to_string(sustained) + " req/s");
  out.set("ops_per_s", saturation.achieved, "ops/s");
  out.set("cpu_ms_per_op",
          daemon_cpu_s * 1e3 /
              static_cast<double>(saturation.requests - saturation.failed()),
          "ms");
  out.set("setup_s", setup.median(), "s");
  out.set("peak_rss_mb", peak_rss_mb(), "MB");
  return out;
}

}  // namespace

Outcome run_serve_mixed(const RunArgs& args) {
  const std::size_t daemon_threads = std::max<std::size_t>(1, nproc() / 2);
  note("advise_connections", "1");
  note("client_threads", "3");
  note("daemon_threads", std::to_string(daemon_threads));
  note("tenants_models", std::to_string(kTenants) + " tenants over " +
                             std::to_string(kModels) + " ModelSpecs");
  note("saturation_in_flight", std::to_string(kInFlight));
  note("rate_ladder_per_s",
       std::to_string(int(kStatedRate)) +
           " doubling while sustained and within the saturation rate");
  note("p99_limit_ms", std::to_string(kLimitMs));
  note("tick_interval_ms", std::to_string(kTickIntervalS * 1e3));

  // The served market: the trimmed trace up to the end of the high
  // volatility month; the daemon starts from three days of it.
  const SimTime from = window_start(VolatilityWindow::kHigh) - 3 * kDay;
  const ZoneTraceSet full = generate_traces(
      trimmed_spec(paper_trace_spec(args.seed), window_end(VolatilityWindow::kHigh)));
  const ZoneTraceSet trace = full.window(from, full.end());
  // Ticks for the longest session: the ladder's stated rung and the
  // doublings up to kMaxSaturationRate, with room for drain time.
  const std::size_t capacity =
      kHistorySamples +
      static_cast<std::size_t>(args.seconds * (kStatedShare + 5 * kRungShare) /
                               kTickIntervalS) +
      256;

  Daemon daemon;
  try {
    return serve_sessions(args, trace, capacity, daemon_threads, daemon);
  } catch (...) {
    stop_daemon(daemon);
    throw;
  }
}

}  // namespace perfbench
