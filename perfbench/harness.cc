/**
 * veal_perfbench: the serving benchmark's measuring program.
 *
 * Replays generated veal-trace-v1 traces through
 * TranslationService::run(), one tick per call, in a closed loop: one
 * client thread, and the next tick is submitted only after the previous
 * run() call returns, as veal-serve's run() does.  Each timed
 * repetition builds a fresh service per trace and replays it whole.
 * Results are read only through the service's public surface: run(),
 * report(), lastTickOutcomes(), warmTier().stats() and
 * persistentStore()->stats().
 *
 * --trace 0 reports the end-to-end metrics.  --trace 1 first runs a few
 * untraced repetitions (the overhead reference), then traced ones:
 * after each tick it replays that tick's work through each layer's
 * public functions, timing every call as a span, and writes the spans
 * as Chrome trace-event JSON at exit.
 *
 * The program prints one JSON object on stdout; perfbench/run.py turns
 * it into the benchmark's result line and checks the digests.
 *
 *   veal_perfbench --workload serve-warm --seed 1 --seconds 10
 *                  --trace 0 --work-dir DIR [--size tiny]
 *                  [--trace-out FILE] [--reference] [--reference-only]
 */
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "veal/cca/cca_mapper.h"
#include "veal/fleet/fleet.h"
#include "veal/ir/loop_analysis.h"
#include "veal/sched/mii.h"
#include "veal/sched/priority.h"
#include "veal/sched/register_alloc.h"
#include "veal/sched/sched_graph.h"
#include "veal/sched/scheduler.h"
#include "veal/service/service.h"
#include "veal/service/trace.h"
#include "veal/sim/batch.h"
#include "veal/support/cost_meter.h"
#include "veal/support/rng.h"
#include "veal/vm/control_image.h"
#include "veal/vm/persist/blob.h"
#include "veal/vm/persist/store.h"
#include "veal/vm/translator.h"

namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;
using veal::CacheOutcome;

double
msBetween(Clock::time_point begin, Clock::time_point end)
{
    return std::chrono::duration<double, std::milli>(end - begin).count();
}

/**
 * CPU time of the calling thread, user and system, in ms.  The timed
 * work all runs on that thread, so this is its wall time less the time
 * the thread waited for a core: on a shared virtual machine, waits for
 * the host (steal) and for other processes dominated the spread of
 * wall-clock timings from run to run.
 */
double
threadCpuMs()
{
    timespec now{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &now);
    return static_cast<double>(now.tv_sec) * 1e3 +
           static_cast<double>(now.tv_nsec) / 1e6;
}

/**
 * The host-speed reference.  The host shares its cores with other
 * tenants, and the speed it gives this process moved by up to 20%
 * within seconds and between runs a minute apart, in CPU time as much
 * as in wall time.  A fixed mix of the kinds of work a tick does --
 * hash-map updates, random writes to a 4 MiB table, formatting and
 * sorting strings -- runs after every kRefEvery ticks, and the ticks
 * before it are scaled by kRefNominalMs / its time.  The timings then
 * read as on a host where the mix takes kRefNominalMs, about its median
 * on the machine the README's spreads come from.
 */
constexpr int kRefEvery = 32;
constexpr double kRefNominalMs = 0.5;

/** One run of the reference mix: the same work on every call. */
void
referenceMix()
{
    static std::vector<std::uint64_t> table(std::size_t{1} << 19);
    static volatile std::uint64_t sink = 0;
    veal::Rng rng(0x5eed);
    std::unordered_map<std::uint64_t, std::uint64_t> counts;
    for (int i = 0; i < 4000; ++i) {
        const std::uint64_t x = rng.next();
        counts[x % 50000] += x;
        table[x & (table.size() - 1)] += x;
    }
    std::vector<std::string> words;
    for (int i = 0; i < 400; ++i)
        words.push_back(std::to_string(rng.next()));
    std::sort(words.begin(), words.end());
    sink = sink + counts.size() + words.front().size();
}

/**
 * Thread CPU time of the reference mix, in ms.  The mix runs twice and
 * the second run is timed: it then finds its own data in the caches, so
 * its time follows the core's speed rather than what the ticks before
 * it left there.  Over five runs of each of two workloads this tracked
 * the service's speed more closely than timing the first run.
 */
double
referenceMs()
{
    referenceMix();
    const double begin = threadCpuMs();
    referenceMix();
    return threadCpuMs() - begin;
}

[[noreturn]] void
usageError(const std::string& message)
{
    std::cerr << "veal_perfbench: " << message << "\n"
              << "usage: veal_perfbench --workload NAME --seed N "
                 "--seconds S --trace 0|1 --work-dir DIR [--size "
                 "full|tiny] [--trace-out FILE] [--reference] "
                 "[--reference-only]\n";
    std::exit(2);
}

// ---------------------------------------------------------------------
// Workloads.

/** One workload at one size. */
struct Shape {
    std::string name;
    int traces = 1;     ///< Independent traces per seed.
    int requests = 0;   ///< Length of each timed trace.
    int loop_pool = 0;  ///< Distinct loops (serve-warm, serve-cold).
    std::int64_t iterations = 12;  ///< Per request.
    int shards = 8;
    bool fleet = false;
    bool store = false;
    int fill_keys = 0;          ///< restart: keys set-up stores.
    int fresh_every = 0;        ///< restart: every n-th key is unstored.
    /**
     * setup_s is the median of set-ups done once before timing and
     * again before each timed repetition.  Spreading the cheap ones over
     * the run lets their median see the same host load as the timings.
     */
    int setup_rounds = 1;
    int setup_rounds_per_rep = 20;
};

constexpr int kTenants = 4;
constexpr int kTickSize = 32;  // TraceGenOptions default.

std::optional<Shape>
shapeFor(const std::string& workload, const std::string& size)
{
    const bool tiny = size == "tiny";
    Shape shape;
    shape.name = workload;
    if (workload == "serve-warm") {
        // Each trace draws from its own 64-loop pool; several of them
        // keep the seed-to-seed spread of the loop mix small.
        shape.traces = tiny ? 2 : 16;
        shape.requests = tiny ? 512 : 6000;
        shape.loop_pool = 64;
        // run() rebuilds each distinct loop of every tick; at 12
        // iterations that, not CPU pricing, would dominate the tick.
        shape.iterations = 128;
    } else if (workload == "serve-cold") {
        shape.requests = tiny ? 128 : 24000;
        // Far more keys than requests: nearly every request is a first
        // sight, so translation dominates and reuse is bypassed.
        shape.loop_pool = shape.requests * 16;
    } else if (workload == "restart") {
        shape.requests = tiny ? 256 : 24000;
        shape.fleet = true;
        shape.store = true;
        shape.fill_keys = tiny ? 128 : 2400;
        shape.fresh_every = 10;
        shape.setup_rounds = 5;  // Each fills a store: about 1.4 s.
        shape.setup_rounds_per_rep = 0;
    } else {
        return std::nullopt;
    }
    if (tiny) {
        shape.setup_rounds = 2;
        shape.setup_rounds_per_rep = 0;
    }
    return shape;
}

constexpr veal::TranslationMode kModes[] = {
    veal::TranslationMode::kFullyDynamic,
    veal::TranslationMode::kFullyDynamicHeight,
    veal::TranslationMode::kHybridStaticCcaPriority,
    veal::TranslationMode::kStatic,
};

/** One timed trace of a seed, with what set-up derives from it. */
struct TraceSet {
    veal::ServiceTrace timed;
    veal::ServiceTrace fill;  ///< restart only.
    std::vector<veal::ServiceTrace> ticks;  ///< timed, one tick each.
    std::string store_dir;    ///< restart: the filled store.
};

/**
 * restart's traces: the fill stores fill_keys distinct keys (tenants
 * round-robin, so no quota rejection drops a key); in the timed trace
 * every fresh_every-th request is an unstored key and the rest draw
 * stored ones.  A fixed fresh count keeps the modeled metrics steady.
 */
void
makeRestartTraces(const Shape& shape, std::uint64_t seed,
                  TraceSet* traces)
{
    veal::Rng rng(seed ^ 0x7e57a27ull);
    std::vector<veal::TraceRequest> stored;
    for (int k = 0; k < shape.fill_keys; ++k) {
        if (k % kTickSize == 0)
            traces->fill.ticks.emplace_back();
        veal::TraceRequest request;
        request.tenant = k % kTenants;
        request.loop_seed = rng.next();
        request.mode = kModes[rng.nextBelow(4)];
        traces->fill.ticks.back().push_back(request);
        stored.push_back(request);
    }
    for (int i = 0; i < shape.requests; ++i) {
        if (i % kTickSize == 0)
            traces->timed.ticks.emplace_back();
        veal::TraceRequest request;
        const int tenant = static_cast<int>(rng.nextBelow(kTenants));
        if (i % shape.fresh_every == shape.fresh_every - 1) {
            request.loop_seed = rng.next();
            request.mode = kModes[rng.nextBelow(4)];
        } else {
            request = stored[rng.nextBelow(stored.size())];
        }
        request.tenant = tenant;
        traces->timed.ticks.back().push_back(request);
    }
}

TraceSet
makeTrace(const Shape& shape, std::uint64_t seed)
{
    TraceSet traces;
    if (shape.store) {
        makeRestartTraces(shape, seed, &traces);
    } else {
        veal::TraceGenOptions gen;
        gen.seed = seed;
        gen.tenants = kTenants;
        gen.requests = shape.requests;
        gen.loop_pool = shape.loop_pool;
        gen.tick_size = kTickSize;
        gen.iterations = shape.iterations;
        traces.timed = veal::generateTrace(gen);
    }
    for (const auto& tick : traces.timed.ticks) {
        veal::ServiceTrace one;
        one.ticks.push_back(tick);
        traces.ticks.push_back(std::move(one));
    }
    return traces;
}

/**
 * Timed services run the shard phase inline (one thread).  With a
 * shard pool, a tick waits for its slowest thread, and on a VM whose
 * cores other tenants share, that tail tracked their load: serve-cold's
 * tick p99 moved 2.5x between runs at 4 threads.  The discarded
 * warm-up repetition runs on a pool of this width instead, so the
 * digest gate still covers the threaded path.
 */
int
poolThreads()
{
    return static_cast<int>(
        std::clamp(std::thread::hardware_concurrency(), 1u, 4u));
}

veal::ServiceOptions
serviceOptions(const Shape& shape, const std::string& cache_dir,
               int threads = 1)
{
    veal::ServiceOptions options;
    options.shards = shape.shards;
    options.threads = threads;
    if (shape.fleet)
        options.fleet = veal::fleet::FleetConfig::standard();
    if (shape.store)
        options.cache_dir = cache_dir;
    return options;
}

void
copyStore(const fs::path& from, const fs::path& to)
{
    fs::remove_all(to);
    fs::copy(from, to, fs::copy_options::recursive);
}

/**
 * Without a store, construction is a few small allocations, about
 * 1.5 us.  Timed one at a time, the median of those times moved by
 * 0.19 of itself over ten runs, and the reference mix did not track it;
 * so kConstructBlock services are constructed back to back and the
 * block is timed.  A store must be opened only once.
 */
constexpr int kConstructBlock = 16;

/**
 * Construct a service, appending the wall time of one construction (not
 * thread CPU time, whose every read costs about as much as a store-less
 * construction) to @p construct_ms.
 */
std::unique_ptr<veal::TranslationService>
constructService(const veal::ServiceOptions& options,
                 std::vector<double>* construct_ms)
{
    const int count = options.cache_dir.empty() ? kConstructBlock : 1;
    std::vector<std::unique_ptr<veal::TranslationService>> block(
        static_cast<std::size_t>(count));
    const auto begin = Clock::now();
    for (auto& service : block)
        service = std::make_unique<veal::TranslationService>(options);
    construct_ms->push_back(msBetween(begin, Clock::now()) / count);
    return std::move(block.back());
}

/** Fill the restart workload's store with its stored keys. */
void
fillStore(const Shape& shape, const TraceSet& traces)
{
    fs::remove_all(traces.store_dir);
    veal::TranslationService filler(
        serviceOptions(shape, traces.store_dir));
    filler.run(traces.fill);
    filler.flushPersistentStore();
}

/**
 * Set-up: generate the seed's traces, fill the restart stores, and
 * construct each trace's service, appending the construction times to
 * @p construct_ms.  Trace k's generator seed is the k-th draw of an Rng
 * seeded with @p seed, not seed + k times a constant: Rng steps its
 * state by the golden ratio, so seeds that differ by a multiple of it
 * give one stream, shifted.
 */
std::vector<TraceSet>
setUp(const Shape& shape, std::uint64_t seed, const fs::path& work_dir,
      std::vector<double>* construct_ms)
{
    std::vector<TraceSet> all;
    veal::Rng trace_seeds(seed);
    for (int k = 0; k < shape.traces; ++k) {
        all.push_back(makeTrace(shape, trace_seeds.next()));
        TraceSet& traces = all.back();
        const fs::path dir = work_dir / ("filled-store-" +
                                         std::to_string(k));
        traces.store_dir = dir.string();
        if (shape.store)
            fillStore(shape, traces);
        const fs::path copy = work_dir / "setup-store";
        if (shape.store)
            copyStore(dir, copy);
        constructService(serviceOptions(shape, copy.string()), construct_ms);
    }
    return all;
}

// ---------------------------------------------------------------------
// Results of one repetition.

/** What the correctness gate compares (deterministic per trace). */
struct Check {
    std::map<std::string, std::uint64_t> digests;  ///< "trace/tenant".
    std::map<std::string, std::int64_t> totals;

    bool operator==(const Check& other) const
    {
        return digests == other.digests && totals == other.totals;
    }
};

/** Add trace @p k's report to @p check (totals sum over traces). */
void
addToCheck(const veal::ServiceReport& report, int k, Check* check)
{
    for (const auto& [tenant, tenant_report] : report.tenants) {
        check->digests[std::to_string(k) + "/" + std::to_string(tenant)] =
            tenant_report.digest;
    }
    const std::map<std::string, std::int64_t> totals = {
        {"submitted", report.submitted},
        {"admitted", report.admitted},
        {"rejected", report.rejected_queue + report.rejected_quota},
        {"cold", report.cold},
        {"warm", report.warm},
        {"coalesced", report.coalesced},
        {"persisted", report.persisted},
        {"translate_ok", report.translate_ok},
        {"translation_cycles", report.translation_cycles},
        {"cpu_cycles", report.cpu_cycles},
        {"la_first_cycles", report.la_first_cycles},
        {"la_warm_cycles", report.la_warm_cycles},
        {"fleet_scores_computed", report.fleet_scores_computed},
        {"fleet_scores_persisted", report.fleet_scores_persisted},
    };
    for (const auto& [name, value] : totals)
        check->totals[name] += value;
}

/** Modeled (simulated-time) sums over admitted requests. */
struct Modeled {
    std::int64_t cpu_cycles = 0;   ///< Baseline CPU for every request.
    std::int64_t path_cycles = 0;  ///< Translation + the path taken.
    std::int64_t metered_colds = 0;
    /** Sum of ln(cycles) over metered cold translations. */
    double log_cycles = 0.0;

    void
    add(const veal::RequestOutcome& out)
    {
        if (out.admission != veal::AdmissionOutcome::kAdmitted)
            return;
        cpu_cycles += out.cpu_cycles;
        std::int64_t path = out.cpu_cycles;
        if (out.la_wins) {
            path = out.la_first_cycles > 0 ? out.la_first_cycles
                                           : out.la_warm_cycles;
        }
        path_cycles += out.translation_cycles + path;
        const bool fresh = out.cache == CacheOutcome::kCold ||
                           out.cache == CacheOutcome::kInvalidated;
        if (fresh && out.translation_cycles > 0) {
            ++metered_colds;
            log_cycles +=
                std::log(static_cast<double>(out.translation_cycles));
        }
    }
};

/** One repetition, summed over the seed's traces. */
struct RepResult {
    std::vector<double> tick_ms;      ///< Wall time.
    std::vector<double> tick_ref_ms;  ///< CPU time at reference speed.
    std::vector<double> ref_ms;       ///< Reference mix times.
    std::vector<double> construct_ms;
    Check check;
    Modeled modeled;
    std::int64_t warm_serves = 0;
    std::int64_t store_hits = 0;
    std::int64_t store_misses = 0;
    std::int64_t store_io_errors = 0;
    std::int64_t store_log_bytes = 0;
};

double percentile(std::vector<double> values, double q);

/** Throughput and tick percentiles, each a median over repetitions. */
struct Timing {
    double per_s = 0.0;
    double p50 = 0.0;
    double p99 = 0.0;
};

// ---------------------------------------------------------------------
// Spans.

/** One timed call, kept in memory and written at exit. */
struct Span {
    const char* name = "";
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::int64_t parent = -1;  ///< Index into the span list, or -1.
    std::int64_t tick = -1;    ///< Tick id within the run, or -1.
};

class Tracer {
  public:
    /** Spans beyond this many are aggregated but not kept. */
    static constexpr std::size_t kMaxKept = 100000;

    explicit Tracer(Clock::time_point origin) : origin_(origin) {}

    /** Time @p fn as span @p name; returns the span's id. */
    template <typename Fn>
    std::int64_t
    time(const char* name, std::int64_t parent, std::int64_t tick, Fn&& fn)
    {
        const auto begin = Clock::now();
        fn();
        return record(name, parent, tick, begin, Clock::now());
    }

    std::int64_t
    record(const char* name, std::int64_t parent, std::int64_t tick,
           Clock::time_point begin, Clock::time_point end)
    {
        const auto ns = [&](Clock::time_point t) {
            return std::chrono::duration_cast<std::chrono::nanoseconds>(
                       t - origin_)
                .count();
        };
        Span span{name, ns(begin), ns(end), parent, tick};
        auto& total = totals_[name];
        total.calls += 1;
        total.busy_ms += static_cast<double>(span.end_ns - span.start_ns) /
                         1e6;
        const auto id = next_id_++;
        if (spans_.size() < kMaxKept)
            spans_.push_back(span);
        return id;
    }

    struct Total {
        std::int64_t calls = 0;
        double busy_ms = 0.0;
    };

    Total
    total(const std::string& name) const
    {
        const auto it = totals_.find(name);
        return it == totals_.end() ? Total{} : it->second;
    }

    /** Write the kept spans as Chrome trace-event JSON. */
    bool
    writeChromeTrace(const std::string& path) const
    {
        std::FILE* out = std::fopen(path.c_str(), "w");
        if (out == nullptr)
            return false;
        std::fprintf(out, "{\"traceEvents\":[\n");
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span& s = spans_[i];
            // The service's own ticks on one row, the replayed layer
            // calls (which run after their tick returns) on another.
            const int tid = std::string_view(s.name) == "service.tick" ? 1
                                                                       : 2;
            std::fprintf(out,
                         "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                         "\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":"
                         "{\"id\":%zu,\"parent\":%lld,\"tick\":%lld}}\n",
                         i == 0 ? "" : ",", s.name, tid,
                         static_cast<double>(s.start_ns) / 1e3,
                         static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                         i, static_cast<long long>(s.parent),
                         static_cast<long long>(s.tick));
        }
        std::fprintf(out, "],\"displayTimeUnit\":\"ms\"}\n");
        return std::fclose(out) == 0;
    }

    std::size_t kept() const { return spans_.size(); }
    std::int64_t recorded() const { return next_id_; }

  private:
    Clock::time_point origin_;
    std::vector<Span> spans_;
    std::map<std::string, Total> totals_;
    std::int64_t next_id_ = 0;
};

// ---------------------------------------------------------------------
// Per-layer replay of one tick's work, from outside the service.

constexpr veal::TranslationPhase kPhases[] = {
    veal::TranslationPhase::kLoopAnalysis,
    veal::TranslationPhase::kCcaMapping,
    veal::TranslationPhase::kMiiComputation,
    veal::TranslationPhase::kPriority,
    veal::TranslationPhase::kScheduling,
    veal::TranslationPhase::kRegisterAssignment,
};

/** Span names of the six translator phases, in kPhases order. */
constexpr const char* kPhaseSpans[] = {
    "sched.phase.loop-analysis", "sched.phase.cca-mapping",
    "sched.phase.mii",           "sched.phase.priority",
    "sched.phase.scheduling",    "sched.phase.register-assignment",
};

/** Counters the replay keeps beside the spans. */
struct ReplayCounts {
    std::int64_t cpu_lanes = 0;
    std::int64_t cpu_repeat_lanes = 0;
    std::int64_t la_lanes = 0;
    std::int64_t translate_ok = 0;
    std::int64_t rung_retries = 0;
    std::int64_t translate_modeled_cycles = 0;
    std::int64_t phase_replays = 0;
    std::int64_t replay_mismatch = 0;
    std::array<double, std::size(kPhases)> phase_modeled{};
};

/**
 * Replays, per tick, the layer calls the service made for that tick:
 * the same functions on the same inputs in the same batch shapes, each
 * timed as a child span of the tick's service.tick span.
 */
class LayerReplay {
  public:
    LayerReplay(const veal::ServiceOptions& options, Tracer* tracer,
                ReplayCounts* counts)
        : options_(options), tracer_(tracer), counts_(counts)
    {
        if (options.fleet.has_value()) {
            scorer_.emplace(*options.fleet, options.cpu, options.tlb,
                            options.fleet_scoring_iterations);
        }
    }

    /** Open the replay's own copy of the store (restart only). */
    void
    openStore(const fs::path& dir)
    {
        tracer_->time("persist.open", -1, -1, [&] {
            store_ = std::make_unique<veal::persist::PersistentStore>(
                dir.string(), options_.store);
        });
    }

    void
    flushStore()
    {
        if (store_ != nullptr)
            tracer_->time("persist.flush", -1, -1,
                          [&] { store_->flush(); });
    }

    void replayTick(const std::vector<veal::TraceRequest>& requests,
                    const std::vector<veal::RequestOutcome>& outcomes,
                    std::int64_t parent, std::int64_t tick);

  private:
    const veal::LaConfig&
    laFor(int backend) const
    {
        if (backend < 0 || !options_.fleet.has_value())
            return options_.la;
        return options_.fleet->backends[static_cast<std::size_t>(backend)]
            .la;
    }

    void replayPhases(const veal::Loop& loop, const veal::LaConfig& la,
                      veal::TranslationMode mode,
                      const veal::LadderOutcome& ladder,
                      std::int64_t parent, std::int64_t tick);

    void priceLa(const veal::LaConfig& la,
                 const std::vector<veal::LaCostRequest>& lanes,
                 veal::BatchSimulator& sim, std::int64_t parent,
                 std::int64_t tick);

    const veal::ServiceOptions& options_;
    Tracer* tracer_;
    ReplayCounts* counts_;
    std::optional<veal::fleet::BackendScorer> scorer_;
    std::unique_ptr<veal::persist::PersistentStore> store_;
    veal::BatchSimulator shard_sim_;
    veal::BatchSimulator reduction_sim_;

    /** Fresh translations by key (warm serves price against them). */
    std::unordered_map<std::string,
                       std::shared_ptr<const veal::TranslationResult>>
        translations_;
    /** Store-loaded summaries by key (summary-backed serves). */
    std::unordered_map<std::string, veal::persist::TranslationSummary>
        summaries_;
    std::unordered_map<std::string, veal::persist::FleetScoreSet> scores_;
    std::set<std::pair<std::uint64_t, std::int64_t>> cpu_priced_;
};

void
LayerReplay::priceLa(const veal::LaConfig& la,
                     const std::vector<veal::LaCostRequest>& lanes,
                     veal::BatchSimulator& sim, std::int64_t parent,
                     std::int64_t tick)
{
    counts_->la_lanes += static_cast<std::int64_t>(lanes.size());
    tracer_->time("sim.la", parent, tick,
                  [&] { (void)sim.acceleratorCostBatch(la, lanes); });
}

/**
 * Re-run translateLoop()'s nominal pipeline phase by phase, one span
 * per phase, and compare the resulting II with the nominal attempt's.
 */
void
LayerReplay::replayPhases(const veal::Loop& loop, const veal::LaConfig& la,
                          veal::TranslationMode mode,
                          const veal::LadderOutcome& ladder,
                          std::int64_t parent, std::int64_t tick)
{
    const veal::TranslationResult& nominal =
        ladder.rung == veal::DegradationRung::kNominal
            ? ladder.translation
            : ladder.failed_attempts.front();
    veal::CostMeter meter;
    bool ok = false;
    int ii = 0;
    [&] {
        veal::LoopAnalysis analysis;
        tracer_->time(kPhaseSpans[0], parent, tick,
                      [&] { analysis = veal::analyzeLoop(loop, &meter); });
        if (!analysis.ok() ||
            static_cast<int>(analysis.load_streams.size()) >
                la.num_load_streams ||
            static_cast<int>(analysis.store_streams.size()) >
                la.num_store_streams)
            return;
        veal::CcaMapping mapping;
        tracer_->time(kPhaseSpans[1], parent, tick, [&] {
            mapping = la.hasCca()
                          ? veal::mapToCca(loop, analysis, *la.cca,
                                           la.latencies, &meter)
                          : veal::emptyCcaMapping(loop);
        });
        const veal::SchedGraph graph(loop, analysis, mapping, la);
        int mii = 0;
        bool feasible = true;
        tracer_->time(kPhaseSpans[2], parent, tick, [&] {
            const int res = veal::resMii(graph, la, &meter);
            feasible = res < veal::LaConfig::kUnlimited;
            if (feasible)
                mii = std::max(res, veal::recMii(graph, &meter));
        });
        if (!feasible)
            return;
        const bool height =
            mode == veal::TranslationMode::kFullyDynamicHeight;
        veal::NodeOrder order;
        tracer_->time(kPhaseSpans[3], parent, tick, [&] {
            order = height ? veal::computeHeightOrder(graph, mii, &meter)
                           : veal::computeSwingOrder(graph, mii, &meter);
        });
        // translateLoop()'s schedule-then-assign loop: a register
        // failure retries at a larger II, at most three times.
        const auto schedule_with_registers = [&](const veal::NodeOrder&
                                                     node_order,
                                                 bool* placement_failed) {
            int floor_ii = std::min(mii, la.max_ii);
            *placement_failed = false;
            for (int attempt = 0; attempt < 3; ++attempt) {
                std::optional<veal::Schedule> schedule;
                tracer_->time(kPhaseSpans[4], parent, tick, [&] {
                    schedule = veal::scheduleLoop(graph, la, node_order,
                                                  floor_ii, &meter);
                });
                if (!schedule.has_value()) {
                    *placement_failed = true;
                    return false;
                }
                veal::RegisterAssignment registers;
                tracer_->time(kPhaseSpans[5], parent, tick, [&] {
                    registers = veal::assignRegisters(
                        loop, analysis, graph, *schedule, la, &meter);
                });
                if (registers.ok) {
                    ii = schedule->ii;
                    return true;
                }
                floor_ii = schedule->ii + 1;
                if (floor_ii > la.max_ii)
                    return false;
            }
            return false;
        };
        bool placement_failed = false;
        ok = schedule_with_registers(order, &placement_failed);
        if (!ok && placement_failed && !height) {
            veal::NodeOrder fallback;
            tracer_->time(kPhaseSpans[3], parent, tick, [&] {
                fallback = veal::computeHeightOrder(graph, mii, &meter);
            });
            ok = schedule_with_registers(fallback, &placement_failed);
        }
    }();
    ++counts_->phase_replays;
    if (ok != nominal.ok || (ok && ii != nominal.schedule.ii))
        ++counts_->replay_mismatch;
    for (std::size_t p = 0; p < std::size(kPhases); ++p)
        counts_->phase_modeled[p] += meter.instructions(kPhases[p]);
}

void
LayerReplay::replayTick(const std::vector<veal::TraceRequest>& requests,
                        const std::vector<veal::RequestOutcome>& outcomes,
                        std::int64_t parent, std::int64_t tick)
{
    // run() materializes each distinct loop of the tick once.
    std::map<std::uint64_t, veal::Loop> loops;
    for (const auto& request : requests) {
        if (loops.count(request.loop_seed) != 0)
            continue;
        tracer_->time("ir.make_loop", parent, tick, [&] {
            loops.emplace(request.loop_seed,
                          veal::makeTraceLoop(request.loop_seed));
        });
    }

    struct Admitted {
        const veal::TraceRequest* request = nullptr;
        const veal::RequestOutcome* outcome = nullptr;
        const veal::Loop* loop = nullptr;
    };
    std::vector<Admitted> admitted;
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
        if (outcomes[i].admission == veal::AdmissionOutcome::kAdmitted) {
            admitted.push_back({&requests[i], &outcomes[i],
                                &loops.at(requests[i].loop_seed)});
        }
    }

    // Planning: store consults and fleet scoring, in sequence order.
    std::set<std::string> loaded_this_tick;
    for (const auto& a : admitted) {
        const auto cache = a.outcome->cache;
        const bool consults = cache == CacheOutcome::kCold ||
                              cache == CacheOutcome::kPersisted;
        if (store_ != nullptr && consults &&
            loaded_this_tick.insert(a.outcome->key).second) {
            std::optional<veal::persist::PersistedImage> image;
            tracer_->time("persist.load", parent, tick, [&] {
                image = store_->load(a.outcome->key);
            });
            if (image.has_value() && cache == CacheOutcome::kPersisted)
                summaries_[a.outcome->key] = image->summary;
        }
        if (scorer_.has_value() && cache == CacheOutcome::kCold &&
            scores_.count(a.outcome->key) == 0) {
            tracer_->time("fleet.score", parent, tick, [&] {
                scores_[a.outcome->key] =
                    scorer_->score(*a.loop, a.request->mode);
            });
        }
    }

    // Shard phase: translate fresh keys, then price them (first and
    // warm lanes) and every request's baseline-CPU path, sharded and
    // batched as the service does.
    struct Job {
        const Admitted* a = nullptr;
        std::shared_ptr<veal::TranslationResult> translation;
    };
    std::vector<Job> jobs;
    std::unordered_map<std::string, std::size_t> job_of_key;
    for (const auto& a : admitted) {
        const auto cache = a.outcome->cache;
        if (cache != CacheOutcome::kCold &&
            cache != CacheOutcome::kInvalidated)
            continue;
        const veal::LaConfig& la = laFor(a.outcome->backend);
        const veal::TranslationMode mode = a.request->mode;
        veal::LadderOutcome ladder;
        const std::int64_t span = tracer_->time(
            "vm.translate", parent, tick, [&] {
                std::optional<veal::StaticAnnotations> annotations;
                if (mode == veal::TranslationMode::kHybridStaticCcaPriority)
                    annotations = veal::precompileAnnotations(*a.loop, la);
                ladder = veal::climbTranslationLadder(
                    *a.loop, la, mode,
                    annotations.has_value() ? &*annotations : nullptr,
                    nullptr);
            });
        counts_->rung_retries +=
            static_cast<std::int64_t>(ladder.failed_attempts.size());
        if (mode != veal::TranslationMode::kStatic) {
            double cycles = 0.0;
            for (const auto& attempt : ladder.failed_attempts)
                cycles += attempt.meter.totalInstructions();
            cycles += ladder.translation.meter.totalInstructions();
            counts_->translate_modeled_cycles +=
                static_cast<std::int64_t>(cycles);
        }
        std::optional<veal::ControlImage> image;
        if (ladder.translation.ok) {
            ++counts_->translate_ok;
            tracer_->time("vm.image.encode", parent, tick, [&] {
                image = veal::ControlImage::encode(*a.loop,
                                                   ladder.translation);
            });
        }
        // The hybrid mode reads its priority from static annotations
        // through a translator-private path, so only the other three
        // modes can be replayed phase by phase.
        if (mode != veal::TranslationMode::kHybridStaticCcaPriority)
            replayPhases(*a.loop, la, mode, ladder, span, tick);
        if (store_ != nullptr) {
            veal::persist::PersistedImage record;
            record.key = a.outcome->key;
            record.summary = veal::persist::summarize(ladder.translation);
            if (scorer_.has_value()) {
                record.summary.fleet_backend = a.outcome->backend;
                if (const auto it = scores_.find(a.outcome->key);
                    it != scores_.end())
                    record.summary.fleet = it->second;
            }
            if (image.has_value())
                record.image_words = image->words();
            tracer_->time("persist.save", parent, tick,
                          [&] { (void)store_->save(record); });
        }
        auto shared = std::make_shared<veal::TranslationResult>(
            std::move(ladder.translation));
        translations_[a.outcome->key] = shared;
        job_of_key[a.outcome->key] = jobs.size();
        jobs.push_back({&a, std::move(shared)});
    }

    const auto lane_for = [](const veal::TranslationResult& tr,
                             std::int64_t iterations, bool first) {
        veal::LaCostRequest lane;
        lane.schedule = &tr.schedule;
        lane.graph = &*tr.graph;
        lane.analysis = &tr.analysis;
        lane.registers = &tr.registers;
        lane.iterations = iterations;
        lane.first_invocation = first;
        return lane;
    };
    const auto shards =
        static_cast<std::size_t>(std::max(1, options_.shards));
    const auto batch = static_cast<std::size_t>(std::max(1, options_.batch));
    for (std::size_t shard = 0; shard < shards; ++shard) {
        std::map<int, std::vector<const Job*>> ok_by_backend;
        for (std::size_t j = shard; j < jobs.size(); j += shards) {
            if (jobs[j].translation->ok)
                ok_by_backend[jobs[j].a->outcome->backend].push_back(
                    &jobs[j]);
        }
        for (const auto& [backend, group] : ok_by_backend) {
            for (std::size_t begin = 0; begin < group.size();
                 begin += batch) {
                const std::size_t end = std::min(begin + batch,
                                                 group.size());
                std::vector<veal::LaCostRequest> lanes;
                for (std::size_t k = begin; k < end; ++k) {
                    const auto iterations = group[k]->a->request->iterations;
                    lanes.push_back(lane_for(*group[k]->translation,
                                             iterations, true));
                    lanes.push_back(lane_for(*group[k]->translation,
                                             iterations, false));
                }
                priceLa(laFor(backend), lanes, shard_sim_, parent, tick);
            }
        }
        std::vector<std::size_t> mine;
        for (std::size_t i = shard; i < admitted.size(); i += shards)
            mine.push_back(i);
        for (std::size_t begin = 0; begin < mine.size(); begin += batch) {
            const std::size_t end = std::min(begin + batch, mine.size());
            std::vector<veal::CpuSimRequest> lanes;
            for (std::size_t k = begin; k < end; ++k) {
                const Admitted& a = admitted[mine[k]];
                veal::CpuSimRequest lane;
                lane.loop = a.loop;
                lane.iterations = a.request->iterations;
                lanes.push_back(lane);
                if (!cpu_priced_
                         .emplace(a.request->loop_seed, lane.iterations)
                         .second)
                    ++counts_->cpu_repeat_lanes;
            }
            counts_->cpu_lanes += static_cast<std::int64_t>(lanes.size());
            tracer_->time("sim.cpu", parent, tick, [&] {
                (void)shard_sim_.simulateCpuBatch(options_.cpu, lanes);
            });
        }
    }

    // Reduction-side pricing of reused translations: full ones in
    // batches per backend, summary-backed ones analytically.
    std::map<int, std::vector<veal::LaCostRequest>> deferred;
    for (const auto& a : admitted) {
        const auto cache = a.outcome->cache;
        const std::string& key = a.outcome->key;
        const veal::TranslationResult* tr = nullptr;
        const veal::persist::TranslationSummary* summary = nullptr;
        if (cache == CacheOutcome::kCoalesced) {
            const auto it = job_of_key.find(key);
            if (it != job_of_key.end())
                tr = jobs[it->second].translation.get();
        } else if (cache == CacheOutcome::kWarm) {
            if (const auto it = translations_.find(key);
                it != translations_.end()) {
                tr = it->second.get();
            } else if (const auto s = summaries_.find(key);
                       s != summaries_.end()) {
                summary = &s->second;
            }
        } else if (cache == CacheOutcome::kPersisted) {
            if (const auto s = summaries_.find(key); s != summaries_.end())
                summary = &s->second;
        }
        if (tr != nullptr && tr->ok) {
            deferred[a.outcome->backend].push_back(
                lane_for(*tr, a.request->iterations, false));
        } else if (summary != nullptr && summary->ok) {
            tracer_->time("sim.la_summary", parent, tick, [&] {
                (void)veal::persist::summaryLoopCost(
                    *summary, laFor(a.outcome->backend),
                    a.request->iterations, false);
            });
        }
    }
    for (const auto& [backend, group] : deferred) {
        for (std::size_t begin = 0; begin < group.size(); begin += batch) {
            const std::size_t end = std::min(begin + batch, group.size());
            const std::vector<veal::LaCostRequest> lanes(
                group.begin() + static_cast<std::ptrdiff_t>(begin),
                group.begin() + static_cast<std::ptrdiff_t>(end));
            priceLa(laFor(backend), lanes, reduction_sim_, parent, tick);
        }
    }
}

// ---------------------------------------------------------------------
// Repetitions.

struct RunContext {
    Shape shape;
    std::vector<TraceSet> traces;
    fs::path work_dir;
};

/** Replay trace @p k through a fresh service; adds to @p rep. */
void
runService(const RunContext& ctx, int k, int threads, Tracer* tracer,
           ReplayCounts* counts, std::int64_t* tick_id, RepResult* rep)
{
    const TraceSet& traces = ctx.traces[static_cast<std::size_t>(k)];
    const fs::path service_dir = ctx.work_dir / "service-store";
    const fs::path replay_dir = ctx.work_dir / "replay-store";
    if (ctx.shape.store)
        copyStore(traces.store_dir, service_dir);
    const veal::ServiceOptions options =
        serviceOptions(ctx.shape, service_dir.string(), threads);

    std::optional<LayerReplay> replay;
    if (tracer != nullptr) {
        replay.emplace(options, tracer, counts);
        if (ctx.shape.store) {
            copyStore(traces.store_dir, replay_dir);
            replay->openStore(replay_dir);
        }
    }

    auto service = constructService(options, &rep->construct_ms);
    rep->construct_ms.back() *= kRefNominalMs / referenceMs();

    std::size_t window = rep->tick_ref_ms.size();
    for (std::size_t t = 0; t < traces.ticks.size(); ++t) {
        const veal::ServiceTrace& one = traces.ticks[t];
        const double cpu_begin = threadCpuMs();
        const auto begin = Clock::now();
        service->run(one);
        const auto end = Clock::now();
        rep->tick_ref_ms.push_back(threadCpuMs() - cpu_begin);
        rep->tick_ms.push_back(msBetween(begin, end));
        if (rep->tick_ref_ms.size() - window == kRefEvery ||
            t + 1 == traces.ticks.size()) {
            const double ref = referenceMs();
            rep->ref_ms.push_back(ref);
            for (; window < rep->tick_ref_ms.size(); ++window)
                rep->tick_ref_ms[window] *= kRefNominalMs / ref;
        }
        const auto& outcomes = service->lastTickOutcomes();
        for (const auto& out : outcomes)
            rep->modeled.add(out);
        if (tracer != nullptr) {
            const std::int64_t id =
                tracer->record("service.tick", -1, *tick_id, begin, end);
            replay->replayTick(one.ticks.front(), outcomes, id, *tick_id);
        }
        ++*tick_id;
    }

    const veal::ServiceReport& report = service->report();
    addToCheck(report, k, &rep->check);
    rep->warm_serves += service->warmTier().stats().serves;
    if (const auto* store = service->persistentStore()) {
        const auto stats = store->stats();
        rep->store_hits += stats.hits;
        rep->store_misses += stats.misses;
        rep->store_io_errors += stats.io_errors;
        rep->store_log_bytes += stats.log_bytes;
    }
    service.reset();
    if (replay.has_value())
        replay->flushStore();
}

/**
 * One timed repetition: each of the seed's traces is replayed by a
 * fresh service, one tick per run() call.  With @p tracer set, each
 * tick is a span and is followed by the layer replay.
 */
RepResult
runRepetition(const RunContext& ctx, Tracer* tracer, ReplayCounts* counts,
              std::int64_t* tick_id, int threads = 1)
{
    RepResult rep;
    for (int k = 0; k < ctx.shape.traces; ++k)
        runService(ctx, k, threads, tracer, counts, tick_id, &rep);
    return rep;
}

/**
 * The determinism reference: the same traces through a one-shard,
 * one-thread, batch-1 service, each in a single run() call.  The
 * contract says these knobs never change the report, so its digests
 * are the expected values.
 */
Check
referenceCheck(const RunContext& ctx)
{
    Check check;
    for (int k = 0; k < ctx.shape.traces; ++k) {
        const TraceSet& traces = ctx.traces[static_cast<std::size_t>(k)];
        const fs::path dir = ctx.work_dir / "reference-store";
        if (ctx.shape.store)
            copyStore(traces.store_dir, dir);
        veal::ServiceOptions options =
            serviceOptions(ctx.shape, dir.string());
        options.shards = 1;
        options.threads = 1;
        options.batch = 1;
        veal::TranslationService service(options);
        service.run(traces.timed);
        addToCheck(service.report(), k, &check);
    }
    return check;
}

// ---------------------------------------------------------------------
// Output.

double
percentile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double pos = q * static_cast<double>(values.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return values[lo] + (values[hi] - values[lo]) * frac;
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

std::string
hex(std::uint64_t value)
{
    char buf[24];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(value));
    return buf;
}

std::string
checkJson(const Check& check)
{
    std::ostringstream out;
    out << "{\"digests\":{";
    bool first = true;
    for (const auto& [trace_tenant, digest] : check.digests) {
        out << (first ? "" : ",") << "\"" << trace_tenant << "\":\""
            << hex(digest) << "\"";
        first = false;
    }
    out << "},\"totals\":{";
    first = true;
    for (const auto& [name, value] : check.totals) {
        out << (first ? "" : ",") << "\"" << name << "\":" << value;
        first = false;
    }
    out << "}}";
    return out.str();
}

/** name -> (value, unit, samples), printed in insertion order. */
class MetricList {
  public:
    void
    add(const std::string& name, double value, const std::string& unit,
        std::int64_t samples)
    {
        items_.push_back({name, value, unit, samples});
    }

    std::string
    json() const
    {
        std::ostringstream out;
        out.precision(17);
        out << "{";
        for (std::size_t i = 0; i < items_.size(); ++i) {
            const auto& m = items_[i];
            out << (i == 0 ? "" : ",") << "\"" << m.name
                << "\":{\"value\":" << m.value << ",\"unit\":\"" << m.unit
                << "\",\"samples\":" << m.samples << "}";
        }
        out << "}";
        return out.str();
    }

  private:
    struct Item {
        std::string name;
        double value;
        std::string unit;
        std::int64_t samples;
    };
    std::vector<Item> items_;
};

double
peakRssMb()
{
    struct rusage usage {};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB.
}

}  // namespace

int
main(int argc, char** argv)
{
    std::string workload;
    std::string size = "full";
    std::optional<std::uint64_t> seed;
    double seconds = -1.0;
    int trace = -1;
    std::string work_dir;
    std::string trace_out;
    bool reference = false;
    bool reference_only = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usageError("missing value for " + arg);
            return argv[++i];
        };
        const auto number = [&](const std::string& text) {
            if (text.empty() ||
                text.find_first_not_of("0123456789") != std::string::npos ||
                text.size() > 19)
                usageError("bad number '" + text + "' for " + arg);
            return std::stoull(text);
        };
        if (arg == "--workload") {
            workload = value();
        } else if (arg == "--size") {
            size = value();
        } else if (arg == "--seed") {
            seed = number(value());
        } else if (arg == "--seconds") {
            seconds = static_cast<double>(number(value()));
        } else if (arg == "--trace") {
            trace = static_cast<int>(number(value()));
        } else if (arg == "--work-dir") {
            work_dir = value();
        } else if (arg == "--trace-out") {
            trace_out = value();
        } else if (arg == "--reference") {
            reference = true;
        } else if (arg == "--reference-only") {
            reference_only = true;
        } else {
            usageError("unknown option '" + arg + "'");
        }
    }
    const auto shape = shapeFor(workload, size);
    if (!shape.has_value() || (size != "full" && size != "tiny"))
        usageError("unknown workload '" + workload + "' or size");
    if (!seed.has_value() || work_dir.empty())
        usageError("--seed and --work-dir are required");
    if (!reference_only && (seconds < 1.0 || (trace != 0 && trace != 1)))
        usageError("--seconds >= 1 and --trace 0|1 are required");

    RunContext ctx;
    ctx.shape = *shape;
    ctx.work_dir = work_dir;
    fs::create_directories(ctx.work_dir);

    // Set-up: trace generation, service construction, and (restart)
    // filling the store; repeated, and reported as the median.  Its
    // constructions are recover_ms samples, as are the repetitions'.
    // Both are scaled by the reference mix run before and after it.
    std::vector<double> setup_s;
    std::vector<double> construct;
    const auto timed_set_up = [&](int rounds) {
        for (int round = 0; round < rounds; ++round) {
            const std::size_t first = construct.size();
            const double ref_before = referenceMs();
            const double begin = threadCpuMs();
            auto traces =
                setUp(ctx.shape, *seed, ctx.work_dir, &construct);
            const double cpu_ms = threadCpuMs() - begin;
            const double scale =
                2.0 * kRefNominalMs / (ref_before + referenceMs());
            setup_s.push_back(cpu_ms * scale / 1e3);
            for (std::size_t i = first; i < construct.size(); ++i)
                construct[i] *= scale;
            ctx.traces = std::move(traces);
        }
    };
    timed_set_up(reference_only ? 1 : ctx.shape.setup_rounds);

    if (reference_only) {
        std::cout << "{\"reference\":" << checkJson(referenceCheck(ctx))
                  << "}\n";
        fs::remove_all(ctx.work_dir);
        return 0;
    }

    // One untimed repetition first, so heap growth and first-touch page
    // faults land outside the measurement; it runs on a shard pool and
    // is checked like the rest.
    std::int64_t tick_id = 0;
    const RepResult warm_up =
        runRepetition(ctx, nullptr, nullptr, &tick_id, poolThreads());

    const auto origin = Clock::now();
    Tracer tracer(origin);
    ReplayCounts counts;
    std::vector<RepResult> untraced;
    std::vector<RepResult> traced;
    const auto deadline =
        origin + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(seconds));
    // --trace 1 spends its first third untraced, as the overhead
    // reference, and the rest traced.
    const auto untraced_until =
        trace == 0 ? deadline
                   : origin + (deadline - origin) / 3;
    do {
        timed_set_up(ctx.shape.setup_rounds_per_rep);
        untraced.push_back(runRepetition(ctx, nullptr, nullptr, &tick_id));
    } while (Clock::now() < untraced_until);
    if (trace == 1) {
        do {
            timed_set_up(ctx.shape.setup_rounds_per_rep);
            traced.push_back(
                runRepetition(ctx, &tracer, &counts, &tick_id));
        } while (Clock::now() < deadline);
    }
    const double measured_s = msBetween(origin, Clock::now()) / 1e3;
    // Read before the reference run, which is not part of the workload.
    const double peak_rss_mb = peakRssMb();
    std::optional<Check> reference_check;
    if (reference)
        reference_check = referenceCheck(ctx);

    // Every repetition must reproduce the first timed one exactly.
    const Check& first = untraced.front().check;
    std::int64_t attempted = 0;
    std::int64_t inconsistent = 0;
    const auto tally = [&](const RepResult& rep) {
        const std::int64_t submitted = rep.check.totals.at("submitted");
        attempted += submitted;
        if (!(rep.check == first))
            inconsistent += submitted;
    };
    tally(warm_up);
    for (const auto* reps : {&untraced, &traced})
        for (const auto& rep : *reps)
            tally(rep);

    MetricList metrics;
    std::optional<Timing> wall;
    double reference_ms = 0.0;
    const RepResult& r0 = untraced.front();
    if (trace == 0) {
        // Timings are taken per repetition and reported as the median
        // over repetitions, so a burst of contention from outside the
        // process moves a few repetitions, not the result.  Tick times
        // are thread CPU time scaled by the reference mix of their own
        // window.  The raw wall-clock figures are printed beside them.
        const auto timing = [&](std::vector<double> RepResult::*ticks) {
            std::vector<double> per_s;
            std::vector<double> p50;
            std::vector<double> p99;
            for (const auto& rep : untraced) {
                const std::vector<double>& ms = rep.*ticks;
                double busy_ms = 0.0;
                for (const double one : ms)
                    busy_ms += one;
                per_s.push_back(ratio(
                    static_cast<double>(rep.check.totals.at("submitted")),
                    busy_ms / 1e3));
                p50.push_back(percentile(ms, 0.50));
                p99.push_back(percentile(ms, 0.99));
            }
            return Timing{percentile(per_s, 0.5), percentile(p50, 0.5),
                          percentile(p99, 0.5)};
        };
        const Timing scaled = timing(&RepResult::tick_ref_ms);
        wall = timing(&RepResult::tick_ms);
        std::vector<double> ref_ms;
        std::int64_t n_ticks = 0;
        std::int64_t submitted = 0;
        std::int64_t rejected = 0;
        for (const auto& rep : untraced) {
            ref_ms.insert(ref_ms.end(), rep.ref_ms.begin(),
                          rep.ref_ms.end());
            construct.insert(construct.end(), rep.construct_ms.begin(),
                             rep.construct_ms.end());
            n_ticks += static_cast<std::int64_t>(rep.tick_ms.size());
            submitted += rep.check.totals.at("submitted");
            rejected += rep.check.totals.at("rejected");
        }
        metrics.add("requests_per_s", scaled.per_s, "1/s", n_ticks);
        metrics.add("tick_p50_ms", scaled.p50, "ms", n_ticks);
        metrics.add("tick_p99_ms", scaled.p99, "ms", n_ticks);
        reference_ms = percentile(ref_ms, 0.5);
        metrics.add("setup_s", percentile(setup_s, 0.5), "s",
                    static_cast<std::int64_t>(setup_s.size()));
        metrics.add("recover_ms", percentile(construct, 0.5), "ms",
                    static_cast<std::int64_t>(construct.size()));
        metrics.add("peak_rss_mb", peak_rss_mb, "MB", 1);
        metrics.add("rejected_frac",
                    ratio(static_cast<double>(rejected),
                          static_cast<double>(submitted)),
                    "ratio", submitted);
        metrics.add("modeled_speedup_x",
                    ratio(static_cast<double>(r0.modeled.cpu_cycles),
                          static_cast<double>(r0.modeled.path_cycles)),
                    "x", r0.check.totals.at("admitted"));
        // Geometric, not arithmetic, mean: the top 1% of translations
        // carry about a fifth of all modeled cycles, so over the few
        // thousand translations of serve-warm or restart an arithmetic
        // mean would follow the few largest from seed to seed.
        metrics.add("modeled_translate_kcycles",
                    std::exp(ratio(r0.modeled.log_cycles,
                                   static_cast<double>(
                                       r0.modeled.metered_colds))) /
                        1e3,
                    "kcycles", r0.modeled.metered_colds);
    } else {
        const auto reps = static_cast<double>(traced.size());
        const auto per_rep = [&](double total) { return total / reps; };
        const auto n = static_cast<std::int64_t>(traced.size());
        const auto busy = [&](const char* name) {
            return per_rep(tracer.total(name).busy_ms);
        };
        const auto calls = [&](const char* name) {
            return per_rep(static_cast<double>(tracer.total(name).calls));
        };
        const RepResult& t0 = traced.front();

        metrics.add("sim.cpu.lanes", per_rep(counts.cpu_lanes), "count", n);
        metrics.add("sim.cpu.busy_ms", busy("sim.cpu"), "ms", n);
        metrics.add("sim.cpu.repeat_share",
                    ratio(static_cast<double>(counts.cpu_repeat_lanes),
                          static_cast<double>(counts.cpu_lanes)),
                    "ratio", counts.cpu_lanes);
        metrics.add("service.tick.count", calls("service.tick"), "count",
                    n);
        const double tick_busy = busy("service.tick");
        metrics.add("service.tick.busy_ms", tick_busy, "ms", n);
        double replayed = 0.0;
        for (const char* layer :
             {"ir.make_loop", "vm.translate", "vm.image.encode", "sim.cpu",
              "sim.la", "sim.la_summary", "persist.load", "persist.save",
              "fleet.score"})
            replayed += busy(layer);
        metrics.add("service.tick.self_ms", tick_busy - replayed, "ms", n);
        const auto total = [&](const char* name) {
            return static_cast<double>(t0.check.totals.at(name));
        };
        const double sub = total("submitted");
        const double adm = total("admitted");
        metrics.add("service.admitted_ratio", ratio(adm, sub), "ratio", n);
        metrics.add("service.cache.cold_share",
                    ratio(total("cold"), adm), "ratio", n);
        metrics.add("service.cache.warm_share",
                    ratio(total("warm"), adm), "ratio", n);
        metrics.add("service.cache.coalesced_share",
                    ratio(total("coalesced"), adm), "ratio", n);
        metrics.add("service.cache.persisted_share",
                    ratio(total("persisted"), adm), "ratio", n);
        metrics.add("ir.make_loop.calls", calls("ir.make_loop"), "count",
                    n);
        metrics.add("ir.make_loop.busy_ms", busy("ir.make_loop"), "ms", n);
        const double translates = calls("vm.translate");
        metrics.add("vm.translate.calls", translates, "count", n);
        metrics.add("vm.translate.busy_ms", busy("vm.translate"), "ms", n);
        metrics.add("vm.translate.ok_ratio",
                    ratio(per_rep(static_cast<double>(counts.translate_ok)),
                          translates),
                    "ratio", n);
        metrics.add("vm.translate.rung_retries",
                    per_rep(static_cast<double>(counts.rung_retries)),
                    "count", n);
        metrics.add("vm.translate.modeled_kcycles",
                    per_rep(static_cast<double>(
                        counts.translate_modeled_cycles)) /
                        1e3,
                    "kcycles", n);
        for (std::size_t p = 0; p < std::size(kPhases); ++p) {
            const std::string name = kPhaseSpans[p];
            metrics.add(name + ".busy_ms", busy(kPhaseSpans[p]), "ms", n);
            metrics.add(name + ".modeled_cycles",
                        per_rep(counts.phase_modeled[p]), "cycles", n);
        }
        metrics.add("sched.replay.mismatch",
                    static_cast<double>(counts.replay_mismatch), "count",
                    counts.phase_replays);
        metrics.add("vm.image.encode.calls", calls("vm.image.encode"),
                    "count", n);
        metrics.add("vm.image.encode.busy_ms", busy("vm.image.encode"),
                    "ms", n);
        metrics.add("vm.warm.hit_ratio",
                    ratio(static_cast<double>(t0.warm_serves), adm),
                    "ratio", n);
        metrics.add("sim.la.lanes",
                    per_rep(static_cast<double>(counts.la_lanes)), "count",
                    n);
        metrics.add("sim.la.busy_ms", busy("sim.la"), "ms", n);
        metrics.add("sim.la_summary.calls", calls("sim.la_summary"),
                    "count", n);
        metrics.add("sim.la_summary.busy_ms", busy("sim.la_summary"), "ms",
                    n);
        metrics.add("persist.open.busy_ms", busy("persist.open"), "ms", n);
        metrics.add("persist.load.calls", calls("persist.load"), "count",
                    n);
        metrics.add("persist.load.busy_ms", busy("persist.load"), "ms", n);
        metrics.add("persist.hit_ratio",
                    ratio(static_cast<double>(t0.store_hits),
                          static_cast<double>(t0.store_hits +
                                              t0.store_misses)),
                    "ratio", n);
        metrics.add("persist.save.calls", calls("persist.save"), "count",
                    n);
        metrics.add("persist.save.busy_ms", busy("persist.save"), "ms", n);
        metrics.add("persist.flush.busy_ms", busy("persist.flush"), "ms",
                    n);
        metrics.add("persist.io_errors",
                    static_cast<double>(t0.store_io_errors), "count", n);
        metrics.add("persist.log_bytes",
                    static_cast<double>(t0.store_log_bytes), "bytes", n);
        metrics.add("fleet.score.calls", calls("fleet.score"), "count", n);
        metrics.add("fleet.score.busy_ms", busy("fleet.score"), "ms", n);
        metrics.add("fleet.score_reuse_ratio",
                    ratio(total("fleet_scores_persisted"),
                          total("fleet_scores_computed") +
                              total("fleet_scores_persisted")),
                    "ratio", n);
        double untraced_busy = 0.0;
        for (const auto& rep : untraced)
            for (const double ms : rep.tick_ms)
                untraced_busy += ms;
        untraced_busy /= static_cast<double>(untraced.size());
        metrics.add("trace.overhead_frac",
                    ratio(tick_busy - untraced_busy, untraced_busy),
                    "ratio", n);
    }

    bool trace_written = false;
    if (trace == 1 && !trace_out.empty())
        trace_written = tracer.writeChromeTrace(trace_out);

    std::cout << "{\"workload\":\"" << ctx.shape.name << "\",\"size\":\""
              << size << "\",\"repetitions\":"
              << untraced.size() + traced.size()
              << ",\"measured_s\":" << measured_s
              << ",\"attempted\":" << attempted
              << ",\"inconsistent\":" << inconsistent
              << ",\"check\":" << checkJson(first);
    if (reference_check.has_value())
        std::cout << ",\"reference\":" << checkJson(*reference_check);
    if (trace == 1) {
        std::cout << ",\"spans_recorded\":" << tracer.recorded()
                  << ",\"spans_kept\":" << tracer.kept()
                  << ",\"trace_file\":"
                  << (trace_written ? "\"" + trace_out + "\"" : "null");
    }
    if (wall.has_value())
        std::cout << ",\"wall\":{\"requests_per_s\":" << wall->per_s
                  << ",\"tick_p50_ms\":" << wall->p50
                  << ",\"tick_p99_ms\":" << wall->p99
                  << ",\"reference_ms\":" << reference_ms
                  << ",\"reference_nominal_ms\":" << kRefNominalMs << "}";
    std::cout << ",\"metrics\":" << metrics.json() << "}\n";
    fs::remove_all(ctx.work_dir);
    return 0;
}
