// DES-kernel microbench: replays four representative event mixes against
// the serial timer-wheel backend (and, for the multi-fabric mix, the
// parallel backend) and writes BENCH_kernel.json — the per-PR point on the
// repo's perf trajectory (see TESTING.md "Performance trajectory").
//
// Usage:
//   kernel_bench [--out BENCH_kernel.json] [--events N] [--seed S]
//                [--mix uniform|pipeline|fuzz|fabric|all] [--floor PATH]
//
// A malformed or unknown argument, or a --floor file that is missing or
// malformed, prints usage and exits with status 2. The bench exits 1 when
// a gate fails: every mix must run events, the parallel fabric row must
// execute the wheel's event count, and with the default seed and size
// each mix's wheel peak_pending must equal its recorded value. With
// --floor (bench/baselines/kernel_floor.json) the wheel's events/sec and
// allocs/event must meet the floor, and on a runner with >= 2 hardware
// threads so must the fabric mix's parallel-vs-wheel speedup.
// The virtual-time workload is identical across backends (same seeds, same
// event order), so only the wall-clock cost of the scheduler differs. The
// parallel backend is meaningless for the single-domain mixes (it
// degenerates to the wheel), so only the fabric mix carries a parallel row.

#include <algorithm>
#include <array>
#include <chrono>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "sim/event_pool.h"
#include "sim/random.h"
#include "sim/simulator.h"
#include "sim/time.h"

namespace {

using xssd::sim::EventFn;
using xssd::sim::Rng;
using xssd::sim::Simulator;
using xssd::sim::SimTime;

struct MixStats {
  uint64_t events = 0;
  double wall_sec = 0.0;
  double events_per_sec = 0.0;
  size_t peak_pending = 0;
  uint64_t pool_chunk_allocs = 0;
  uint64_t callback_heap_fallbacks = 0;
  double allocs_per_event = 0.0;
};

struct RunCtx {
  Simulator* sim;
  Rng* rng;
  uint64_t budget;  // chains stop rescheduling once this hits zero
  size_t peak_pending = 0;

  bool Tick() {
    size_t pending = sim->pending_events();
    if (pending > peak_pending) peak_pending = pending;
    if (budget == 0) return false;
    --budget;
    return true;
  }
};

// ---- Mix 1: uniform near-future --------------------------------------
// A steady pool of independent chains, each rescheduling itself a uniform
// 100 ns – 16 us ahead: the "many independent devices" pattern. Exercises
// level-0/1 wheel traffic with a mid-size pending set.

struct UniformChain {
  RunCtx* ctx;
  void operator()() const {
    if (!ctx->Tick()) return;
    ctx->sim->Schedule(ctx->rng->UniformRange(100, 16000), UniformChain{ctx});
  }
};

void SeedUniform(RunCtx* ctx) {
  for (int i = 0; i < 8192; ++i) {
    ctx->sim->Schedule(ctx->rng->UniformRange(100, 16000), UniformChain{ctx});
  }
}

// ---- Mix 2: fig09-style pipeline -------------------------------------
// Concurrent log-append requests, each a fixed latency chain (doorbell →
// PCIe TLP → CMB persist → completion poll → client think), with every
// 64th request kicking off a small flash-program burst tens of
// microseconds out. Reproduces the clustered near-future timestamps plus
// periodic far-bucket writes the real benches generate.

struct PipelineStage {
  RunCtx* ctx;
  uint32_t stage;
  uint32_t request;
  void operator()() const;
};

struct FlashBurst {
  RunCtx* ctx;
  void operator()() const { ctx->Tick(); }  // terminal: program completes
};

void PipelineStage::operator()() const {
  if (!ctx->Tick()) return;
  static constexpr SimTime kStageDelay[] = {150, 400, 250, 800, 500};
  uint32_t next = (stage + 1) % 5;
  uint32_t req = next == 0 ? request + 1 : request;
  if (next == 0 && req % 64 == 0) {
    for (int i = 0; i < 4; ++i) {
      ctx->sim->Schedule(ctx->rng->UniformRange(60000, 90000),
                         FlashBurst{ctx});
    }
  }
  ctx->sim->Schedule(kStageDelay[next], PipelineStage{ctx, next, req});
}

void SeedPipeline(RunCtx* ctx) {
  for (uint32_t r = 0; r < 512; ++r) {
    ctx->sim->Schedule(150 + (r % 97), PipelineStage{ctx, 0, r});
  }
}

// ---- Mix 3: check_campaign fuzz mix ----------------------------------
// The schedule fuzzer's profile: mostly sub-2 us operations, a band of
// 2–100 us device latencies, occasional millisecond timeouts, rare
// 10–100 ms supervision timers, and periodic same-timestamp bursts that
// stress FIFO tie-breaking. Touches every wheel level.

struct FuzzBurst {
  RunCtx* ctx;
  void operator()() const { ctx->Tick(); }  // terminal
};

struct FuzzChain {
  RunCtx* ctx;
  void operator()() const {
    if (!ctx->Tick()) return;
    Rng* rng = ctx->rng;
    uint64_t pick = rng->Uniform(100);
    SimTime delay;
    if (pick < 60) {
      delay = rng->Uniform(2000);
    } else if (pick < 90) {
      delay = rng->UniformRange(2000, 100000);
    } else if (pick < 99) {
      delay = rng->UniformRange(1000000, 10000000);
    } else {
      delay = rng->UniformRange(10000000, 100000000);
    }
    if (rng->Uniform(256) == 0) {
      SimTime burst_at = rng->UniformRange(500, 4000);
      for (int i = 0; i < 16; ++i) {
        ctx->sim->Schedule(burst_at, FuzzBurst{ctx});  // identical timestamp
      }
    }
    ctx->sim->Schedule(delay, FuzzChain{ctx});
  }
};

void SeedFuzz(RunCtx* ctx) {
  for (int i = 0; i < 32768; ++i) {
    ctx->sim->Schedule(ctx->rng->Uniform(100000), FuzzChain{ctx});
  }
}

// ---- Mix 4: multi-fabric NTB mix -------------------------------------
// Four scheduler domains, each a pool of independent near-future chains
// (the per-fabric device traffic), with every 64th chain step forwarding a
// terminal cross-domain event to the next domain one NTB hop latency out —
// the fig13 replication shape at kernel scale. This is the only mix the
// parallel backend can spread across workers; the serial wheel merges the
// domains on one thread. All state is per-domain so parallel workers
// never share mutable data.

constexpr uint32_t kFabricDomains = 4;
constexpr SimTime kFabricLookahead = 1300;  // NtbConfig::hop_latency default

struct FabricCtx {
  Simulator* sim;
  struct alignas(64) PerDomain {
    Rng rng{0};
    uint64_t budget = 0;
    uint64_t iter = 0;
    size_t peak_pending = 0;
  };
  std::array<PerDomain, kFabricDomains> dom;

  bool Tick(uint32_t d) {
    PerDomain& pd = dom[d];
    size_t pending = sim->domain_pending_events(d);
    if (pending > pd.peak_pending) pd.peak_pending = pending;
    if (pd.budget == 0) return false;
    --pd.budget;
    return true;
  }
};

struct FabricCross {
  FabricCtx* ctx;
  uint32_t domain;
  void operator()() const { ctx->Tick(domain); }  // terminal: NTB delivery
};

struct FabricChain {
  FabricCtx* ctx;
  uint32_t domain;
  void operator()() const {
    if (!ctx->Tick(domain)) return;
    FabricCtx::PerDomain& pd = ctx->dom[domain];
    if (++pd.iter % 64 == 0) {
      uint32_t peer = (domain + 1) % kFabricDomains;
      ctx->sim->ScheduleIn(peer, kFabricLookahead + pd.rng.Uniform(700),
                           FabricCross{ctx, peer});
    }
    ctx->sim->Schedule(pd.rng.UniformRange(100, 16000),
                       FabricChain{ctx, domain});
  }
};

MixStats RunFabricMix(Simulator::SchedulerBackend backend, uint64_t seed,
                      uint64_t events) {
  Simulator sim(backend);
  sim.ConfigureDomains(kFabricDomains);
  sim.DeclareLookahead(kFabricLookahead);
  FabricCtx ctx;
  ctx.sim = &sim;
  uint64_t fn_heap_before = EventFn::heap_fallbacks();
  for (uint32_t d = 0; d < kFabricDomains; ++d) {
    ctx.dom[d].rng = Rng(seed * kFabricDomains + d + 1);
    ctx.dom[d].budget = events / kFabricDomains;
    Simulator::DomainScope scope(&sim, d);
    for (int i = 0; i < 2048; ++i) {
      sim.Schedule(ctx.dom[d].rng.UniformRange(100, 16000),
                   FabricChain{&ctx, d});
    }
  }

  auto start = std::chrono::steady_clock::now();
  sim.Run();
  auto stop = std::chrono::steady_clock::now();

  MixStats out;
  out.events = sim.executed_events();
  out.wall_sec = std::chrono::duration<double>(stop - start).count();
  out.events_per_sec =
      out.wall_sec > 0 ? static_cast<double>(out.events) / out.wall_sec : 0;
  uint64_t chunks = 0;
  for (uint32_t d = 0; d < kFabricDomains; ++d) {
    out.peak_pending += ctx.dom[d].peak_pending;
    chunks += sim.event_pool(d).chunks_allocated();
  }
  out.pool_chunk_allocs = chunks;
  out.callback_heap_fallbacks = EventFn::heap_fallbacks() - fn_heap_before;
  uint64_t allocs = out.pool_chunk_allocs + out.callback_heap_fallbacks;
  out.allocs_per_event =
      out.events > 0 ? static_cast<double>(allocs) / out.events : 0;
  return out;
}

// ----------------------------------------------------------------------

MixStats RunMix(const std::string& mix, Simulator::SchedulerBackend backend,
                uint64_t seed, uint64_t events) {
  if (mix == "fabric") return RunFabricMix(backend, seed, events);
  Simulator sim(backend);
  Rng rng(seed);
  RunCtx ctx{&sim, &rng, events};
  uint64_t fn_heap_before = EventFn::heap_fallbacks();

  if (mix == "uniform") {
    SeedUniform(&ctx);
  } else if (mix == "pipeline") {
    SeedPipeline(&ctx);
  } else {
    SeedFuzz(&ctx);  // main() admits only the four mix names
  }

  auto start = std::chrono::steady_clock::now();
  sim.Run();  // chains stop rescheduling at budget 0 and the queue drains
  auto stop = std::chrono::steady_clock::now();

  MixStats out;
  out.events = sim.executed_events();
  out.wall_sec = std::chrono::duration<double>(stop - start).count();
  out.events_per_sec =
      out.wall_sec > 0 ? static_cast<double>(out.events) / out.wall_sec : 0;
  out.peak_pending = ctx.peak_pending;
  out.pool_chunk_allocs = sim.event_pool().chunks_allocated();
  out.callback_heap_fallbacks = EventFn::heap_fallbacks() - fn_heap_before;
  uint64_t allocs = out.pool_chunk_allocs + out.callback_heap_fallbacks;
  out.allocs_per_event =
      out.events > 0 ? static_cast<double>(allocs) / out.events : 0;
  return out;
}

void WriteStats(FILE* f, const char* backend, const MixStats& s) {
  std::fprintf(f,
               "      \"%s\": {\n"
               "        \"events\": %" PRIu64
               ",\n"
               "        \"wall_sec\": %.6f,\n"
               "        \"events_per_sec\": %.0f,\n"
               "        \"peak_pending\": %zu,\n"
               "        \"pool_chunk_allocs\": %" PRIu64
               ",\n"
               "        \"callback_heap_fallbacks\": %" PRIu64
               ",\n"
               "        \"allocs_per_event\": %.8f\n"
               "      }",
               backend, s.events, s.wall_sec, s.events_per_sec,
               s.peak_pending, s.pool_chunk_allocs, s.callback_heap_fallbacks,
               s.allocs_per_event);
}

[[noreturn]] void UsageExit(const char* argv0, const std::string& error) {
  std::fprintf(stderr,
               "%s: %s\nusage: %s [--out PATH] [--events N] [--seed S] "
               "[--mix uniform|pipeline|fuzz|fabric|all] [--floor PATH]\n",
               argv0, error.c_str(), argv0);
  std::exit(2);
}

constexpr uint64_t kDefaultEvents = 2000000;
constexpr uint64_t kDefaultSeed = 1;

// Wheel peak_pending of each mix at the default seed and size. It is
// sampled at event execution, so it is a fixed property of each serial
// workload (the parallel backend sees cross arrivals land at window
// boundaries, so its sample may legitimately differ).
size_t DefaultPeakPending(const std::string& mix) {
  if (mix == "uniform") return 8191;
  if (mix == "pipeline") return 1692;
  if (mix == "fuzz") return 33071;
  return 8226;  // fabric
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<std::string> kMixes = {"uniform", "pipeline", "fuzz",
                                           "fabric"};
  std::string out_path = "BENCH_kernel.json";
  std::string mix_arg = "all";
  uint64_t events = kDefaultEvents;
  uint64_t seed = kDefaultSeed;
  std::string floor_path;
  std::map<std::string, double> floor;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) UsageExit(argv[0], arg + " needs a value");
      return argv[++i];
    };
    if (arg == "--out") {
      out_path = value();
      if (out_path.empty()) UsageExit(argv[0], "--out needs a path");
    } else if (arg == "--events") {
      std::string text = value();
      if (!xssd::bench::ParseU64(text, &events) || events == 0) {
        UsageExit(argv[0], "--events needs a positive integer, got '" +
                               text + "'");
      }
    } else if (arg == "--seed") {
      std::string text = value();
      if (!xssd::bench::ParseU64(text, &seed)) {
        UsageExit(argv[0], "--seed needs an unsigned integer, got '" + text +
                               "'");
      }
    } else if (arg == "--mix") {
      mix_arg = value();
      if (mix_arg != "all" && std::find(kMixes.begin(), kMixes.end(),
                                        mix_arg) == kMixes.end()) {
        UsageExit(argv[0], "unknown mix '" + mix_arg + "'");
      }
    } else if (arg == "--floor") {
      floor_path = value();
      std::vector<std::string> keys;
      for (const std::string& mix : kMixes) {
        keys.push_back("min_events_per_sec." + mix);
      }
      keys.push_back("max_allocs_per_event");
      keys.push_back("min_fabric_parallel_vs_wheel_speedup");
      auto read = xssd::bench::ReadFloor(floor_path, keys);
      if (!read.ok()) {
        UsageExit(argv[0], "--floor: " + read.status().ToString());
      }
      floor = *read;
    } else {
      UsageExit(argv[0], "unknown argument " + arg);
    }
  }

  std::vector<std::string> mixes =
      mix_arg == "all" ? kMixes : std::vector<std::string>{mix_arg};

  const unsigned threads = std::thread::hardware_concurrency();
  FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(f,
               "{\n"
               "  \"schema\": \"xssd.kernel-bench.v3\",\n"
               "  \"bench\": \"kernel_bench\",\n"
               "  \"config\": {\"seed\": %" PRIu64 ", \"events_per_mix\": %" PRIu64
               ", \"fabric_domains\": %u, \"hardware_threads\": %u},\n"
               "  \"mixes\": {\n",
               seed, events, kFabricDomains, threads);

  xssd::bench::Gates gates;
  const bool defaults = seed == kDefaultSeed && events == kDefaultEvents;
  double min_wheel_eps = -1.0;
  double fabric_par_speedup = -1.0;
  for (size_t m = 0; m < mixes.size(); ++m) {
    const std::string& mix = mixes[m];
    std::fprintf(f, "    \"%s\": {\n", mix.c_str());
    MixStats wheel =
        RunMix(mix, Simulator::SchedulerBackend::kWheel, seed, events);
    std::printf("%-8s wheel  %9.0f ev/s  wall %.3fs  peak %zu  "
                "allocs/ev %.8f\n",
                mix.c_str(), wheel.events_per_sec, wheel.wall_sec,
                wheel.peak_pending, wheel.allocs_per_event);
    WriteStats(f, "wheel", wheel);
    if (min_wheel_eps < 0 || wheel.events_per_sec < min_wheel_eps) {
      min_wheel_eps = wheel.events_per_sec;
    }
    gates.Check(wheel.events > 0 && wheel.wall_sec > 0,
                mix + ": the wheel ran no events");
    if (defaults) {
      gates.Check(wheel.peak_pending == DefaultPeakPending(mix),
                  mix + ": wheel peak_pending " +
                      std::to_string(wheel.peak_pending) + " != " +
                      std::to_string(DefaultPeakPending(mix)));
    }
    if (!floor.empty()) {
      const double need = floor["min_events_per_sec." + mix];
      gates.Check(wheel.events_per_sec >= need,
                  mix + ": wheel " + std::to_string(wheel.events_per_sec) +
                      " ev/s under the floor " + std::to_string(need));
      gates.Check(wheel.allocs_per_event <= floor["max_allocs_per_event"],
                  mix + ": allocs/event " +
                      std::to_string(wheel.allocs_per_event) +
                      " over the floor");
    }
    if (mix == "fabric") {
      MixStats par =
          RunMix(mix, Simulator::SchedulerBackend::kParallel, seed, events);
      std::printf("%-8s par    %9.0f ev/s  wall %.3fs  peak %zu\n",
                  mix.c_str(), par.events_per_sec, par.wall_sec,
                  par.peak_pending);
      std::fprintf(f, ",\n");
      WriteStats(f, "parallel", par);
      // Identical virtual workload on both backends.
      gates.Check(par.wall_sec > 0 && par.events == wheel.events,
                  "fabric: the parallel event count diverged from the wheel");
      if (wheel.events_per_sec > 0) {
        fabric_par_speedup = par.events_per_sec / wheel.events_per_sec;
        std::fprintf(f, ",\n      \"parallel_vs_wheel_speedup\": %.3f",
                     fabric_par_speedup);
        std::printf("%-8s par/wheel %.2fx\n", mix.c_str(),
                    fabric_par_speedup);
      }
      if (!floor.empty() && threads >= 2) {
        const double need = floor["min_fabric_parallel_vs_wheel_speedup"];
        gates.Check(fabric_par_speedup >= need,
                    "fabric: parallel speedup " +
                        std::to_string(fabric_par_speedup) + "x under " +
                        std::to_string(need) + "x");
      } else if (!floor.empty()) {
        std::printf("single-thread runner: parallel speedup not gated\n");
      }
    }
    std::fprintf(f, "\n    }%s\n", m + 1 < mixes.size() ? "," : "");
  }

  std::fprintf(f, "  },\n  \"summary\": {\"min_wheel_events_per_sec\": %.0f",
               min_wheel_eps);
  if (fabric_par_speedup >= 0) {
    std::fprintf(f, ", \"fabric_parallel_vs_wheel_speedup\": %.3f",
                 fabric_par_speedup);
  }
  std::fprintf(f, "}\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", out_path.c_str());
  if (!floor.empty()) {
    std::printf("floor %s: %s\n", floor_path.c_str(),
                gates.failures() == 0 ? "met" : "MISSED");
  }
  return gates.ExitCode();
}
