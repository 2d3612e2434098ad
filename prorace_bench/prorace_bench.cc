/**
 * @file
 * prorace_bench: the ledger benchmark. One process per workload drives
 * the system through its public entry points only (core::Session::run,
 * trace::serializeTrace/readTrace, analysis::ProgramAnalysis,
 * pmu::decodePt, replay::alignTrace, replay::Replayer::replayAll,
 * core::detail::{applyStaticPrefilter, detectRaces,
 * detectRacesIncremental, regenerationBlacklist},
 * core::{OfflineAnalyzer, ParallelOfflineAnalyzer} and
 * service::AnalysisService) and prints one `name value unit` line per
 * metric.
 *
 *   prorace_bench --workload <name|all> --seed <N> [--seconds S]
 *                 [--out metrics.json] [--trace spans.json] [--smoke]
 *
 * A run has these phases:
 *   1. setup: build every subject program and record its traces. Each
 *      (subject, trace seed) is run untraced (baseline cycles), traced
 *      with the subject's PT filter (the offline input) and traced with
 *      full PT (the service stream: the service applies one PT filter
 *      to every program, so its producers trace everything).
 *   2. reference: one untimed serial analysis of every offline trace;
 *      peak_rss_mb is read after it.
 *   3. probe: one serial analysis per service stream, the reference
 *      every service session of that stream must reproduce.
 *   4. timed rounds for 80% of --seconds. Each round makes one pass of
 *      the serial OfflineAnalyzer and the 3-thread
 *      ParallelOfflineAnalyzer over the offline traces, streams every
 *      stream once through an otherwise idle service, and pushes one
 *      closed-loop batch through a service as fast as its session slots
 *      allow. The first rounds also repeat the setup, which must record
 *      identical bytes; setup_s is the median of kSetupRepetitions
 *      setups. Every report must equal its reference.
 *
 * With --trace the rounds (60% of --seconds) also make the same layer
 * calls as analyze() one at a time inside spans and check that they
 * reproduce analyze() exactly; the probe runs layer by layer too. A last
 * phase then runs the service open loop: Poisson arrivals at the
 * workload's frozen rate for 30% of --seconds, latency counted from each
 * session's due time, so a stalled openSession is charged to the
 * session. The traced run reports the per-layer metrics instead of the
 * end-to-end ones. Spans are kept in memory and written at exit.
 *
 * The seed is the only source of input randomness: trace seeds, session
 * draws and arrival times all derive from it. Threads: the main thread
 * plus 3 parallel-analyzer workers, or the main thread (generator) plus
 * the service pump and its 2 analysis workers, never both at once.
 *
 * Exit code: 0 when every output check passes, 3 when one fails (the
 * metrics are printed either way), 2 on a usage error.
 */

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_set>
#include <utility>
#include <vector>

#include "analysis/analysis.hh"
#include "core/offline.hh"
#include "core/parallel_offline.hh"
#include "core/pipeline.hh"
#include "core/session.hh"
#include "driver/cost_model.hh"
#include "pmu/pt_decode.hh"
#include "replay/align.hh"
#include "replay/replayer.hh"
#include "service/service.hh"
#include "support/crc32.hh"
#include "support/rng.hh"
#include "trace/trace_file.hh"
#include "vm/machine.hh"
#include "workload/racybugs.hh"
#include "workload/registry.hh"

namespace {

using namespace prorace;
using Clock = std::chrono::steady_clock;

double
msBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::milli>(b - a).count();
}

// --------------------------------------------------------------------
// Quantiles
// --------------------------------------------------------------------

/** Nearest-rank quantile (p in [0, 1]); 0 for an empty sample. */
double
quantile(std::vector<double> values, double p)
{
    if (values.empty())
        return 0;
    std::sort(values.begin(), values.end());
    const double n = static_cast<double>(values.size());
    size_t rank = static_cast<size_t>(std::ceil(p * n));
    rank = std::clamp<size_t>(rank, 1, values.size());
    return values[rank - 1];
}

double
median(const std::vector<double> &values)
{
    return quantile(values, 0.5);
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0;
}

// --------------------------------------------------------------------
// Workloads
// --------------------------------------------------------------------

/** One program the workload records traces of. */
struct Subject {
    const char *name;
    bool racy_bug; ///< Table-2 bug (racybugs) rather than a registry app
    double scale;
    uint64_t period;
    unsigned trace_seeds;
};

/**
 * One benchmark workload. batch_per_stream and open_rate are frozen:
 * open_rate is about half the closed-loop capacity measured when the
 * benchmark was defined, and is never derived at run time.
 */
struct WorkloadSpec {
    const char *name;
    std::vector<Subject> subjects;
    unsigned batch_per_stream; ///< sessions per stream, closed-loop batch
    double open_rate;          ///< sessions per second, open loop
};

const std::vector<WorkloadSpec> &
workloadSpecs()
{
    // Why each exists (see README.md): sparse-p10k is the paper's
    // deployment point, where replay of ~50k-instruction windows is
    // almost all the work; dense-p16 runs the same layers on
    // ~100-instruction windows, where per-window setup and alignment
    // dominate; churn-detect is the only mix where detection is a
    // visible share; service-open stresses ingest, per-session analyzer
    // construction and queueing with many small streams.
    static const std::vector<WorkloadSpec> specs = {
        {"sparse-p10k",
         {{"apache-21287", true, 0.25, 10000, 1},
          {"apache-25520", true, 0.25, 10000, 1},
          {"apache-45605", true, 0.25, 10000, 1},
          {"mysql-3596", true, 0.25, 10000, 1},
          {"mysql-644", true, 0.25, 10000, 1},
          {"mysql-791", true, 0.25, 10000, 1},
          {"cherokee-0.9.2", true, 0.25, 10000, 1},
          {"cherokee-bug326", true, 0.25, 10000, 1},
          {"pbzip2-0.9.4", true, 0.25, 10000, 1},
          {"pbzip2-0.9.5", true, 0.25, 10000, 1},
          {"pfscan", true, 0.25, 10000, 1},
          {"aget-bug2", true, 0.25, 10000, 1},
          {"apache", false, 0.25, 10000, 1},
          {"mysql", false, 0.25, 10000, 1},
          {"memcached", false, 0.25, 10000, 1}},
         2, 25.0},
        {"dense-p16",
         {{"fluidanimate", false, 0.12, 16, 1},
          {"canneal", false, 0.12, 16, 1},
          {"streamcluster", false, 0.12, 16, 1},
          {"dedup", false, 0.12, 16, 1},
          {"memcached", false, 0.12, 16, 1},
          {"mysql", false, 0.12, 16, 1}},
         4, 15.0},
        {"churn-detect",
         {{"kvchurn", false, 0.5, 32, 5},
          {"mpmc-queue-racy", false, 1.0, 8, 1}},
         4, 25.0},
        {"service-open",
         {{"apache-21287", true, 0.1, 16, 2},
          {"pbzip2-0.9.4", true, 0.1, 16, 2},
          {"aget-bug2", true, 0.1, 16, 2},
          {"mysql-644", true, 0.1, 16, 2},
          {"kvchurn", false, 0.25, 16, 2}},
         3, 40.0},
    };
    return specs;
}

const WorkloadSpec *
findSpec(const std::string &name)
{
    for (const WorkloadSpec &spec : workloadSpecs()) {
        if (name == spec.name)
            return &spec;
    }
    return nullptr;
}

/** splitmix64 finalizer: derives independent seeds from the run seed. */
uint64_t
mix64(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

// Service shape, shared by every workload.
constexpr unsigned kServiceWorkers = 2;
constexpr unsigned kServiceTenants = 4;
constexpr unsigned kSessionSlots = 2;
constexpr size_t kChunkBytes = 4096;
constexpr unsigned kParallelThreads = 3;
constexpr unsigned kSetupRepetitions = 5;
// Shares of --seconds: the traced run also runs the open loop.
constexpr double kMeasureShare = 0.8;
constexpr double kTracedMeasureShare = 0.6;
constexpr double kOpenLoopShare = 0.3;

// --------------------------------------------------------------------
// Spans
// --------------------------------------------------------------------

/**
 * In-memory span recorder. Spans nest through a stack (the harness
 * records from the main thread only); a span without a parent starts a
 * root and carries the current trace id. Disabled, it records nothing.
 */
class Tracer
{
  public:
    struct Span {
        const char *name;
        size_t parent; ///< index + 1, 0 for a root
        size_t root;   ///< index of the root span
        uint64_t trace_id;
        Clock::time_point start;
        Clock::time_point end;
    };

    static constexpr size_t kNone = SIZE_MAX;

    explicit Tracer(bool enabled) : enabled_(enabled) {}

    bool enabled() const { return enabled_; }

    /** Subsequent root spans belong to a new trace. */
    void newTrace() { ++trace_id_; }

    size_t
    begin(const char *name, Clock::time_point start = Clock::now())
    {
        if (!enabled_)
            return kNone;
        const size_t idx = spans_.size();
        const size_t parent = stack_.empty() ? 0 : stack_.back() + 1;
        const size_t root = stack_.empty() ? idx : spans_[stack_[0]].root;
        spans_.push_back({name, parent, root, trace_id_, start, start});
        stack_.push_back(idx);
        return idx;
    }

    void
    end(size_t idx, Clock::time_point at = Clock::now())
    {
        if (idx == kNone)
            return;
        spans_[idx].end = at;
        if (!stack_.empty() && stack_.back() == idx)
            stack_.pop_back();
    }

    /** Move the end of an already closed span (asynchronous completion). */
    void
    setEnd(size_t idx, Clock::time_point at)
    {
        if (idx != kNone)
            spans_[idx].end = at;
    }

    double
    durationMs(size_t idx) const
    {
        return idx == kNone ? 0 : msBetween(spans_[idx].start, spans_[idx].end);
    }

    /** RAII span. */
    class Scope
    {
      public:
        Scope(Tracer &tracer, const char *name)
            : tracer_(tracer), idx_(tracer.begin(name))
        {
        }
        ~Scope() { tracer_.end(idx_); }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Tracer &tracer_;
        size_t idx_;
    };

    /** Per-name self time (ms) over spans under @p root_name roots. */
    struct Totals {
        std::map<std::string, double> self_ms;
        size_t roots = 0;
        double root_ms = 0;
        double child_ms = 0; ///< root time covered by direct children
    };

    Totals
    totals(const std::string &root_name) const
    {
        std::vector<double> child(spans_.size(), 0.0);
        for (const Span &s : spans_) {
            if (s.parent)
                child[s.parent - 1] += msBetween(s.start, s.end);
        }
        Totals t;
        for (size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            if (root_name != spans_[s.root].name)
                continue;
            const double dur = msBetween(s.start, s.end);
            t.self_ms[s.name] += dur - child[i];
            if (s.parent == 0) {
                ++t.roots;
                t.root_ms += dur;
                t.child_ms += child[i];
            }
        }
        return t;
    }

    bool
    write(const std::string &path, Clock::time_point origin) const
    {
        std::ofstream out(path);
        if (!out)
            return false;
        out << "[\n";
        for (size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            const auto ns = [&](Clock::time_point t) {
                return static_cast<long long>(
                    std::chrono::duration_cast<std::chrono::nanoseconds>(
                        t - origin)
                        .count());
            };
            out << "{\"id\": " << i + 1 << ", \"parent\": " << s.parent
                << ", \"trace_id\": " << s.trace_id << ", \"name\": \""
                << s.name << "\", \"start_ns\": " << ns(s.start)
                << ", \"end_ns\": " << ns(s.end) << "}"
                << (i + 1 < spans_.size() ? ",\n" : "\n");
        }
        out << "]\n";
        return static_cast<bool>(out.flush());
    }

  private:
    bool enabled_;
    uint64_t trace_id_ = 0;
    std::vector<Span> spans_;
    std::vector<size_t> stack_;
};

// --------------------------------------------------------------------
// Checks and output
// --------------------------------------------------------------------

/** Operation accounting: every analysis, session and recording. */
struct Checks {
    uint64_t attempted = 0;
    uint64_t failed = 0;

    void
    expect(bool ok, const std::string &what)
    {
        ++attempted;
        if (!ok) {
            ++failed;
            std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
        }
    }
};

struct Metric {
    std::string name;
    double value;
    std::string unit;
};

struct RunOutput {
    std::string workload;
    uint64_t seed = 0;
    bool traced = false;
    std::vector<Metric> metrics;
    Checks checks;
    std::string report_crc;
    std::vector<std::string> notes;
};

std::string
formatDouble(double v, const char *fmt)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), fmt, std::isfinite(v) ? v : 0.0);
    return buf;
}

void
printOutput(const RunOutput &out)
{
    std::printf("# workload %s seed %llu mode %s\n", out.workload.c_str(),
                static_cast<unsigned long long>(out.seed),
                out.traced ? "trace" : "run");
    for (const Metric &m : out.metrics) {
        std::printf("%s %s %s\n", m.name.c_str(),
                    formatDouble(m.value, "%.6g").c_str(), m.unit.c_str());
    }
    for (const std::string &note : out.notes)
        std::printf("# %s\n", note.c_str());
    std::printf("# checks attempted %llu failed %llu\n",
                static_cast<unsigned long long>(out.checks.attempted),
                static_cast<unsigned long long>(out.checks.failed));
    std::fflush(stdout);
}

std::string
toJson(const RunOutput &out)
{
    std::ostringstream js;
    js << "{\"workload\": \"" << out.workload << "\", \"seed\": " << out.seed
       << ", \"mode\": \"" << (out.traced ? "trace" : "run")
       << "\", \"correct\": " << (out.checks.failed ? "false" : "true")
       << ", \"attempted\": " << out.checks.attempted
       << ", \"failed\": " << out.checks.failed << ", \"report_crc32\": \""
       << out.report_crc << "\", \"metrics\": {";
    for (size_t i = 0; i < out.metrics.size(); ++i) {
        const Metric &m = out.metrics[i];
        js << (i ? ", " : "") << "\"" << m.name
           << "\": {\"value\": " << formatDouble(m.value, "%.17g")
           << ", \"unit\": \"" << m.unit << "\"}";
    }
    js << "}}";
    return js.str();
}

bool
writeFile(const std::string &path, const std::string &text)
{
    std::ofstream out(path);
    out << text;
    return static_cast<bool>(out.flush());
}

// --------------------------------------------------------------------
// Setup: programs and traces
// --------------------------------------------------------------------

/** One (subject, trace seed): its offline trace and its service stream. */
struct Recorded {
    std::string program_id; ///< subject name @ scale (service program id)
    std::shared_ptr<const asmkit::Program> program;
    pmu::PtFilter filter;
    uint64_t period = 0;
    uint64_t trace_seed = 0;
    trace::RunTrace run; ///< subject PT filter: the offline input
    uint64_t traced_cycles = 0;
    uint64_t baseline_cycles = 0;
    uint64_t offline_bytes = 0;  ///< v5 size of run
    uint32_t offline_crc = 0;
    std::vector<uint8_t> stream; ///< full-PT v5 trace for the service
};

struct SetupResult {
    std::vector<Recorded> traces;
    std::vector<double> seconds; ///< per repetition
    uint64_t vm_insns = 0;       ///< first repetition, all VM runs
};

workload::Workload
buildSubject(const Subject &subject)
{
    if (subject.racy_bug)
        return workload::makeRacyBug(subject.name, subject.scale);
    std::optional<workload::Workload> w =
        workload::findWorkload(subject.name, subject.scale);
    if (!w) {
        std::fprintf(stderr, "unknown subject %s\n", subject.name);
        std::exit(2);
    }
    return std::move(*w);
}

std::vector<Recorded>
recordOnce(const WorkloadSpec &spec, uint64_t seed, bool smoke,
           Tracer &tracer, uint64_t &vm_insns)
{
    std::vector<Recorded> out;
    for (size_t si = 0; si < spec.subjects.size(); ++si) {
        const Subject &subject = spec.subjects[si];
        const workload::Workload w = buildSubject(subject);
        const unsigned seeds = smoke ? 1 : subject.trace_seeds;
        for (unsigned k = 0; k < seeds; ++k) {
            tracer.newTrace();
            Tracer::Scope root(tracer, "setup");
            Recorded r;
            r.program_id = std::string(subject.name) + "@" +
                formatDouble(subject.scale, "%g");
            r.program = w.program;
            r.filter = w.pt_filter;
            r.period = subject.period;
            r.trace_seed = mix64(seed * 1000003 + si * 64 + k);

            core::PipelineConfig cfg =
                core::proRaceConfig(r.period, r.trace_seed, r.filter);
            cfg.session.run_baseline = false;
            {
                Tracer::Scope span(tracer, "vm.baseline");
                vm::Machine machine(*w.program, cfg.session.machine);
                w.setup(machine);
                machine.run();
                r.baseline_cycles = machine.wallTime();
                vm_insns += machine.totalInstructions();
            }
            core::RunArtifacts traced;
            {
                Tracer::Scope span(tracer, "vm.traced");
                traced = core::Session::run(*w.program, w.setup,
                                            cfg.session);
            }
            vm_insns += traced.total_insns;
            r.traced_cycles = traced.traced_cycles;
            {
                Tracer::Scope span(tracer, "trace.encode");
                const std::vector<uint8_t> bytes =
                    trace::serializeTrace(traced.trace);
                r.offline_bytes = bytes.size();
                r.offline_crc = crc32(bytes.data(), bytes.size());
            }
            r.run = std::move(traced.trace);

            core::PipelineConfig full = core::proRaceConfig(
                r.period, r.trace_seed, pmu::PtFilter::all());
            full.session.run_baseline = false;
            core::RunArtifacts streamed;
            {
                Tracer::Scope span(tracer, "vm.traced");
                streamed = core::Session::run(*w.program, w.setup,
                                              full.session);
            }
            vm_insns += streamed.total_insns;
            {
                Tracer::Scope span(tracer, "trace.encode");
                r.stream = trace::serializeTrace(streamed.trace);
            }
            out.push_back(std::move(r));
        }
        if (smoke)
            break;
    }
    return out;
}

SetupResult
setUp(const WorkloadSpec &spec, uint64_t seed, bool smoke, Tracer &tracer)
{
    SetupResult result;
    const Clock::time_point t0 = Clock::now();
    result.traces = recordOnce(spec, seed, smoke, tracer, result.vm_insns);
    result.seconds.push_back(msBetween(t0, Clock::now()) / 1e3);
    return result;
}

/**
 * Set up once more: the time joins setup.seconds, and every trace must
 * be byte-identical to the first setup's.
 */
void
repeatSetup(const WorkloadSpec &spec, uint64_t seed, Tracer &tracer,
            Checks &checks, SetupResult &setup)
{
    uint64_t insns = 0;
    const Clock::time_point t0 = Clock::now();
    const std::vector<Recorded> traces =
        recordOnce(spec, seed, false, tracer, insns);
    setup.seconds.push_back(msBetween(t0, Clock::now()) / 1e3);
    for (size_t i = 0; i < traces.size(); ++i) {
        const Recorded &a = setup.traces[i];
        const Recorded &b = traces[i];
        checks.expect(a.offline_crc == b.offline_crc && a.stream == b.stream &&
                          a.baseline_cycles == b.baseline_cycles,
                      "setup of " + a.program_id + " is not deterministic");
    }
}

// --------------------------------------------------------------------
// Analysis, layer by layer
// --------------------------------------------------------------------

/** What analyzeByLayer() produces: the report plus each layer's stats. */
struct LayerResult {
    detect::RaceReport report;
    uint64_t extended_events = 0;
    int rounds = 0;
    pmu::PtDecodeStats decode;
    replay::AlignStats align;
    replay::ReplayStats replay;
    core::PrefilterStats prefilter;
    detect::FastTrackStats detect;
};

/**
 * OfflineAnalyzer::analyze() made one public layer call at a time, each
 * inside its own span, including the paper's §5.1 regeneration loop.
 * The caller checks the result against analyze(): if they differ, the
 * breakdown no longer describes the analyzer.
 */
LayerResult
analyzeByLayer(const asmkit::Program &program,
               const core::OfflineOptions &options,
               const trace::RunTrace &run, Tracer &tracer)
{
    LayerResult out;
    std::unique_ptr<analysis::ProgramAnalysis> facts;
    {
        Tracer::Scope span(tracer, "analysis.build");
        facts = std::make_unique<analysis::ProgramAnalysis>(
            program, options.pointsto);
    }
    replay::ReplayConfig replay_config = options.replay;
    replay_config.analysis = facts.get();

    std::map<uint32_t, pmu::ThreadPath> paths;
    {
        Tracer::Scope span(tracer, "pmu.pt_decode");
        paths = pmu::decodePt(program, options.pt_filter, run, &out.decode);
    }
    std::map<uint32_t, replay::ThreadAlignment> alignments;
    {
        Tracer::Scope span(tracer, "replay.align");
        alignments = replay::alignTrace(program, paths, run, &out.align,
                                        facts.get());
    }

    for (int round = 0;; ++round) {
        out.rounds = round;
        std::vector<replay::ReconstructedAccess> accesses;
        std::unordered_set<uint64_t> consumed;
        {
            Tracer::Scope span(tracer, "replay.replay");
            replay::Replayer replayer(program, replay_config);
            accesses = replayer.replayAll(paths, alignments, run);
            out.replay = replayer.stats();
            consumed = replayer.consumedAddresses();
        }
        out.extended_events = accesses.size();
        {
            Tracer::Scope span(tracer, "core.prefilter");
            core::detail::applyStaticPrefilter(accesses, facts.get(),
                                               options.static_prefilter,
                                               out.prefilter, &run);
        }
        {
            Tracer::Scope span(tracer, "detect.detect");
            if (options.incremental.enabled) {
                detect::IncrementalFastTrack detector(options.incremental);
                for (const trace::ThreadMeta &tm : run.meta.threads)
                    detector.requireThread(tm.tid);
                core::detail::detectRacesIncremental(
                    run, alignments, accesses, detector, options.run_summary,
                    &options.checkpoint, round == 0);
                out.report = detector.report();
                out.detect = detector.stats();
            } else {
                core::detail::detectRaces(run, alignments, accesses,
                                          out.report, out.detect,
                                          options.run_summary);
            }
        }
        if (round >= options.max_regeneration_rounds)
            break;
        std::vector<std::pair<uint64_t, uint64_t>> additions;
        {
            Tracer::Scope span(tracer, "core.regenerate");
            additions = core::detail::regenerationBlacklist(
                out.report, consumed, replay_config.mem_blacklist);
        }
        if (additions.empty())
            break;
        replay_config.mem_blacklist.insert(replay_config.mem_blacklist.end(),
                                           additions.begin(),
                                           additions.end());
    }
    return out;
}

core::OfflineOptions
offlineOptions(const Recorded &r)
{
    return core::proRaceConfig(r.period, r.trace_seed, r.filter).offline;
}

/** What the analysis service runs per session (see ServiceOptions). */
core::OfflineOptions
serviceOptions()
{
    core::OfflineOptions options;
    options.pt_filter = pmu::PtFilter::all();
    return options;
}

/** Layer counters summed over one analysis of every distinct trace. */
struct LayerCounts {
    uint64_t pointsto_iterations = 0;
    uint64_t path_entries = 0;
    uint64_t samples_matched = 0;
    uint64_t samples_unmatched = 0;
    replay::ReplayStats replay;
    uint64_t events_seen = 0;
    uint64_t pruned = 0;
    uint64_t regeneration_rounds = 0;
    uint64_t accesses = 0; ///< reads + writes dispatched to FastTrack
    uint64_t sync_ops = 0;
    uint64_t fast_path = 0;
    uint64_t folded = 0;
    uint64_t races = 0;

    void
    add(const LayerResult &r)
    {
        pointsto_iterations += r.prefilter.pointsto_iterations;
        path_entries += r.decode.path_entries;
        samples_matched += r.align.samples_matched;
        samples_unmatched += r.align.samples_unmatched;
        replay.merge(r.replay);
        events_seen += r.prefilter.events_seen;
        pruned += r.prefilter.pruned();
        regeneration_rounds += static_cast<uint64_t>(r.rounds);
        accesses += r.detect.reads + r.detect.writes;
        sync_ops += r.detect.sync_ops;
        fast_path += r.detect.epoch_fast_path;
        folded += r.detect.run_iterations_folded;
        races += r.report.size();
    }
};

// --------------------------------------------------------------------
// Phases
// --------------------------------------------------------------------

/** Reference result of one analysed trace, for the output checks. */
struct Reference {
    std::string report;
    uint64_t extended_events = 0;
};

/** One untimed serial analysis of every offline trace. */
std::vector<Reference>
referencePass(const std::vector<Recorded> &traces)
{
    std::vector<Reference> refs;
    for (const Recorded &r : traces) {
        core::OfflineAnalyzer analyzer(*r.program, offlineOptions(r));
        const core::OfflineResult res = analyzer.analyze(r.run);
        refs.push_back({res.report.format(r.program.get()),
                        res.extended_trace_events});
    }
    return refs;
}

/** Timings and layer counts gathered over the measurement rounds. */
struct Measurements {
    std::vector<std::vector<double>> serial_ms;   ///< per trace
    std::vector<std::vector<double>> parallel_ms; ///< per trace
    std::vector<std::vector<double>> layered_ms;  ///< per trace (traced)
    std::vector<std::vector<double>> idle_ms;     ///< per stream
    std::vector<double> capacity;                 ///< per closed-loop batch
    LayerCounts counts;                           ///< traced: first round
    size_t rounds = 0;
};

/**
 * One pass over the offline traces: the serial analyzer, the parallel
 * analyzer and (traced) the layer-by-layer analysis of every trace, in
 * rotating order. Every result must reproduce @p refs exactly.
 */
void
offlinePass(const std::vector<Recorded> &traces,
            const std::vector<Reference> &refs, size_t pass, Tracer &tracer,
            Checks &checks, Measurements &m)
{
    for (size_t i = 0; i < traces.size(); ++i) {
        const Recorded &r = traces[i];
        const core::OfflineOptions options = offlineOptions(r);
        Reference serial, parallel, layered;

        const auto runSerial = [&] {
            const Clock::time_point t0 = Clock::now();
            core::OfflineAnalyzer analyzer(*r.program, options);
            const core::OfflineResult res = analyzer.analyze(r.run);
            m.serial_ms[i].push_back(msBetween(t0, Clock::now()));
            serial = {res.report.format(r.program.get()),
                      res.extended_trace_events};
        };
        const auto runParallel = [&] {
            core::OfflineOptions par = options;
            par.num_threads = kParallelThreads;
            tracer.newTrace();
            const size_t span = tracer.begin("analyze_par");
            const Clock::time_point t0 = Clock::now();
            core::ParallelOfflineAnalyzer analyzer(*r.program, par);
            const core::OfflineResult res = analyzer.analyze(r.run);
            m.parallel_ms[i].push_back(msBetween(t0, Clock::now()));
            tracer.end(span);
            parallel = {res.report.format(r.program.get()),
                        res.extended_trace_events};
        };
        const auto runLayered = [&] {
            tracer.newTrace();
            const size_t span = tracer.begin("analyze");
            const LayerResult res =
                analyzeByLayer(*r.program, options, r.run, tracer);
            tracer.end(span);
            m.layered_ms[i].push_back(tracer.durationMs(span));
            layered = {res.report.format(r.program.get()),
                       res.extended_events};
            if (pass == 0)
                m.counts.add(res);
        };

        // Rotate the order so no analyzer always runs on a warm
        // cache after another.
        std::vector<std::function<void()>> order = {runSerial, runParallel};
        if (tracer.enabled())
            order.push_back(runLayered);
        std::rotate(order.begin(),
                    order.begin() +
                        static_cast<long>((pass + i) % order.size()),
                    order.end());
        for (const auto &fn : order)
            fn();

        const auto same = [&](const Reference &a) {
            return a.report == refs[i].report &&
                a.extended_events == refs[i].extended_events;
        };
        checks.expect(same(serial), "serial report changed between "
                                    "runs on " + r.program_id);
        checks.expect(same(parallel), "parallel report differs from "
                                      "serial on " + r.program_id);
        if (tracer.enabled()) {
            checks.expect(same(layered),
                          "layer-by-layer analysis differs from "
                          "analyze() on " + r.program_id);
        }
    }
}

/**
 * Reference analysis of every service stream, decoded from its bytes.
 * Untraced it is the one-shot serial analyzer; traced it is the
 * streaming detector layer by layer, as the service runs it. Either
 * must equal every service session of the stream.
 */
struct ProbePhase {
    std::vector<Reference> refs;     ///< per stream
    std::vector<double> analysis_ms; ///< per stream, decode excluded (traced)
    uint64_t records = 0;            ///< PEBS + sync records of all streams
};

ProbePhase
runProbe(const std::vector<Recorded> &traces, Tracer &tracer,
         Checks &checks)
{
    ProbePhase probe;
    for (const Recorded &r : traces) {
        tracer.newTrace();
        const size_t root = tracer.begin("probe");
        const size_t decode = tracer.begin("trace.decode");
        auto loaded = trace::readTrace(r.stream);
        tracer.end(decode);
        Reference ref;
        const bool ok = loaded.ok() && !loaded.value().loss.hasLoss();
        checks.expect(ok, "stream of " + r.program_id + " did not decode");
        if (ok) {
            const trace::RunTrace &run = loaded.value().trace;
            probe.records += run.pebs.size() + run.sync.size();
            core::OfflineOptions options = serviceOptions();
            if (tracer.enabled()) {
                options.incremental.enabled = true;
                const LayerResult res =
                    analyzeByLayer(*r.program, options, run, tracer);
                ref = {res.report.format(r.program.get()),
                       res.extended_events};
            } else {
                core::OfflineAnalyzer analyzer(*r.program, options);
                const core::OfflineResult res = analyzer.analyze(run);
                ref = {res.report.format(r.program.get()),
                       res.extended_trace_events};
            }
        }
        tracer.end(root);
        probe.refs.push_back(std::move(ref));
        probe.analysis_ms.push_back(tracer.durationMs(root) -
                                    tracer.durationMs(decode));
    }
    return probe;
}

/** One session the generator streams. */
struct SessionRun {
    size_t stream = 0;
    unsigned tenant = 0;
    Clock::time_point due; ///< default: as soon as the generator gets there
    Clock::time_point called;
    Clock::time_point opened;
    Clock::time_point closed;
    uint64_t id = 0;
    size_t root_span = Tracer::kNone;
    double latency_ms = 0; ///< due (or open call) to report folded
    double ingest_to_report_ms = 0;
};

struct ServicePhase {
    std::vector<SessionRun> sessions;
    double makespan_s = 0;
    service::ServiceStats stats;
    uint64_t peak_live_granules = 0;
    uint64_t granules_reclaimed = 0;
};

/**
 * Stream every planned session into a fresh service from this thread:
 * each waits for its due time, then opens, submits 4 KiB chunks and
 * closes. Blocking in openSession or submit delays later sessions,
 * which their due-time latency then shows. With @p one_at_a_time each
 * session completes before the next opens (an otherwise idle service).
 */
ServicePhase
runService(const std::vector<Recorded> &traces,
           std::vector<SessionRun> plan, const char *root_name,
           bool one_at_a_time, const ProbePhase &probe, Tracer &tracer,
           Checks &checks)
{
    service::ServiceOptions options;
    options.num_workers = kServiceWorkers;
    options.session_slots = kSessionSlots;
    options.offline = serviceOptions();

    ServicePhase phase;
    phase.sessions = std::move(plan);
    std::vector<bool> accepted(phase.sessions.size(), true);
    service::AnalysisService svc(options);
    for (const Recorded &r : traces)
        svc.registerProgram(r.program_id, r.program);

    const Clock::time_point start = Clock::now();
    for (size_t i = 0; i < phase.sessions.size(); ++i) {
        SessionRun &s = phase.sessions[i];
        const Recorded &r = traces[s.stream];
        if (s.due == Clock::time_point{})
            s.due = Clock::now();
        std::this_thread::sleep_until(s.due);
        tracer.newTrace();
        s.root_span = tracer.begin(root_name, s.due);
        {
            Tracer::Scope span(tracer, "service.open");
            s.called = Clock::now();
            s.id = svc.openSession("tenant-" + std::to_string(s.tenant),
                                   r.program_id);
            s.opened = Clock::now();
        }
        if (s.id != 0) {
            {
                Tracer::Scope span(tracer, "service.submit");
                for (size_t off = 0; off < r.stream.size();
                     off += kChunkBytes) {
                    const size_t len =
                        std::min(kChunkBytes, r.stream.size() - off);
                    if (!svc.submit(s.id, r.stream.data() + off, len))
                        accepted[i] = false;
                }
            }
            Tracer::Scope span(tracer, "service.close");
            svc.closeSession(s.id);
        }
        s.closed = Clock::now();
        tracer.end(s.root_span, s.closed);
        if (one_at_a_time)
            svc.drain();
    }
    svc.drain();
    phase.makespan_s = msBetween(start, Clock::now()) / 1e3;
    phase.stats = svc.stats();

    std::map<uint64_t, service::SessionOutcome> done;
    for (service::SessionOutcome &o : svc.outcomes())
        done[o.session_id] = std::move(o);
    for (size_t i = 0; i < phase.sessions.size(); ++i) {
        SessionRun &s = phase.sessions[i];
        const Recorded &r = traces[s.stream];
        const auto it = done.find(s.id);
        const bool completed = s.id != 0 && accepted[i] &&
            it != done.end() && it->second.ok && !it->second.quarantined;
        checks.expect(completed &&
                          it->second.report.format(r.program.get()) ==
                              probe.refs[s.stream].report,
                      "session of " + r.program_id +
                          " was shed or failed, or its report differs "
                          "from the serial report of its stream");
        if (!completed)
            continue;
        const service::SessionOutcome &o = it->second;
        const auto completion =
            s.opened + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(
                               o.ingest_to_report_seconds));
        tracer.setEnd(s.root_span, completion);
        s.latency_ms = msBetween(s.due, completion);
        s.ingest_to_report_ms = o.ingest_to_report_seconds * 1e3;
        phase.peak_live_granules = std::max(
            phase.peak_live_granules, o.incremental.peak_live_granules);
        phase.granules_reclaimed += o.incremental.granules_reclaimed;
    }
    checks.expect(phase.stats.sessions_shed == 0 &&
                      phase.stats.rollup.sessions_quarantined == 0,
                  "the service shed or quarantined sessions");
    return phase;
}

/**
 * A seeded session plan that streams every recorded stream exactly
 * @p per_stream times in shuffled order, so every plan has the
 * workload's exact mix; tenants take turns.
 */
std::vector<SessionRun>
balancedPlan(size_t streams, unsigned per_stream, Rng &rng)
{
    std::vector<SessionRun> plan(streams * per_stream);
    for (size_t i = 0; i < plan.size(); ++i) {
        plan[i].stream = i % streams;
        plan[i].tenant = static_cast<unsigned>(i % kServiceTenants);
    }
    for (size_t i = plan.size(); i > 1; --i)
        std::swap(plan[i - 1].stream, plan[rng.below(i)].stream);
    return plan;
}

/**
 * Poisson arrivals at @p rate for @p budget_s, streams in balanced
 * shuffled order, tenants drawn at random.
 */
std::vector<SessionRun>
openLoopPlan(size_t streams, double rate, double budget_s, bool smoke,
             Rng &rng)
{
    std::vector<double> at;
    for (double t = 0;;) {
        t += -std::log(1.0 - rng.uniform()) / rate;
        if (t >= budget_s || (smoke && at.size() == 3))
            break;
        at.push_back(t);
    }
    const unsigned rounds =
        static_cast<unsigned>((at.size() + streams - 1) / streams);
    std::vector<SessionRun> plan = balancedPlan(streams, rounds, rng);
    plan.resize(at.size());
    const Clock::time_point start =
        Clock::now() + std::chrono::milliseconds(20);
    for (size_t i = 0; i < plan.size(); ++i) {
        plan[i].tenant = static_cast<unsigned>(rng.below(kServiceTenants));
        plan[i].due = start + std::chrono::duration_cast<Clock::duration>(
                                  std::chrono::duration<double>(at[i]));
    }
    return plan;
}

/**
 * The timed rounds. Each round makes one offline pass, streams every
 * stream once through an otherwise idle service, and runs one
 * closed-loop batch; the first rounds also repeat the setup. Rounds
 * repeat until @p budget_s has passed and setup ran kSetupRepetitions
 * times. The interleaving spreads every metric's repetitions over the
 * whole run, so a burst of interference cannot spoil all of them.
 */
Measurements
measure(const WorkloadSpec &spec, uint64_t seed, SetupResult &setup,
        const std::vector<Reference> &refs, const ProbePhase &probe,
        double budget_s, bool smoke, Rng &rng, Tracer &tracer,
        Checks &checks)
{
    Measurements m;
    const std::vector<Recorded> &traces = setup.traces;
    const size_t n = traces.size();
    m.serial_ms.resize(n);
    m.parallel_ms.resize(n);
    m.layered_ms.resize(n);
    m.idle_ms.resize(n);
    const Clock::time_point start = Clock::now();
    for (size_t round = 0;; ++round) {
        if (!smoke && setup.seconds.size() < kSetupRepetitions)
            repeatSetup(spec, seed, tracer, checks, setup);
        offlinePass(traces, refs, round, tracer, checks, m);
        const ServicePhase idle =
            runService(traces, balancedPlan(n, 1, rng), "session_idle",
                       true, probe, tracer, checks);
        for (const SessionRun &s : idle.sessions)
            m.idle_ms[s.stream].push_back(s.latency_ms);
        const ServicePhase batch = runService(
            traces, balancedPlan(n, smoke ? 2 : spec.batch_per_stream, rng),
            "session_closed", false, probe, tracer, checks);
        m.capacity.push_back(ratio(static_cast<double>(batch.sessions.size()),
                                   batch.makespan_s));
        m.rounds = round + 1;
        const bool done = msBetween(start, Clock::now()) / 1e3 >= budget_s &&
            setup.seconds.size() >= kSetupRepetitions;
        if (smoke || done)
            break;
    }
    return m;
}

// --------------------------------------------------------------------
// One workload
// --------------------------------------------------------------------

long
peakRssKb()
{
    struct rusage usage {};
    getrusage(RUSAGE_SELF, &usage);
    return usage.ru_maxrss;
}

std::string
expectedCrc(const std::string &workload, uint64_t seed)
{
    std::ifstream in(std::string(PRORACE_BENCH_EXPECTED_DIR) + "/" +
                     workload + ".seed" + std::to_string(seed) + ".crc");
    std::string crc;
    in >> crc;
    return crc;
}

double
best(const std::vector<double> &values)
{
    return values.empty() ? 0
                          : *std::min_element(values.begin(), values.end());
}

double
geomean(const std::vector<double> &values)
{
    double logs = 0;
    for (const double v : values)
        logs += std::log(v);
    return values.empty() ? 0
                          : std::exp(logs / static_cast<double>(values.size()));
}

RunOutput
runWorkload(const WorkloadSpec &spec, uint64_t seed, double seconds,
            bool smoke, Tracer &tracer)
{
    RunOutput out;
    out.workload = spec.name;
    out.seed = seed;
    out.traced = tracer.enabled();
    Checks &checks = out.checks;
    Rng rng(mix64(seed ^ 0x5e551075ull));

    SetupResult setup = setUp(spec, seed, smoke, tracer);
    const std::vector<Recorded> &traces = setup.traces;
    const size_t n = traces.size();
    // Memory is read after recording and one serial analysis of every
    // offline trace, before the first multi-threaded phase: per-thread
    // allocator arenas of the parallel analyzer and the service make
    // the high-water mark vary by tens of percent from run to run.
    const std::vector<Reference> refs = referencePass(traces);
    const double peak_rss_mb = static_cast<double>(peakRssKb()) / 1024.0;
    const ProbePhase probe = runProbe(traces, tracer, checks);
    const Measurements timed = measure(
        spec, seed, setup, refs, probe,
        (tracer.enabled() ? kTracedMeasureShare : kMeasureShare) * seconds,
        smoke, rng, tracer, checks);

    // Digest of every reference report: committed per workload and seed.
    uint32_t crc = 0;
    for (const Reference &ref : refs) {
        const std::string line =
            ref.report + "#" + std::to_string(ref.extended_events) + "\n";
        crc = crc32(line.data(), line.size(), crc);
    }
    for (const Reference &ref : probe.refs)
        crc = crc32(ref.report.data(), ref.report.size(), crc);
    char hex[16];
    std::snprintf(hex, sizeof(hex), "%08x", crc);
    out.report_crc = hex;
    if (!smoke) {
        const std::string expected = expectedCrc(spec.name, seed);
        if (expected.empty()) {
            out.notes.push_back("report_crc32 " + out.report_crc +
                                " (no committed digest for this seed)");
        } else {
            checks.expect(expected == out.report_crc,
                          "report digest " + out.report_crc +
                              " differs from the committed " + expected);
            out.notes.push_back("report_crc32 " + out.report_crc +
                                " matches the committed digest");
        }
    }

    // Timings take each trace's (or stream's) best of its repetitions:
    // on a shared machine, interference only ever adds time, and it
    // moves medians and tails by tens of percent between runs.
    double traced_s = 0, baseline_cycles = 0, traced_cycles = 0;
    double offline_bytes = 0, serial_best_sum = 0;
    std::vector<double> serial_best, parallel_best, idle_best;
    for (size_t i = 0; i < n; ++i) {
        const Recorded &r = traces[i];
        traced_s += static_cast<double>(r.traced_cycles) /
            driver::kCyclesPerSecond;
        traced_cycles += static_cast<double>(r.traced_cycles);
        baseline_cycles += static_cast<double>(r.baseline_cycles);
        offline_bytes += static_cast<double>(r.offline_bytes);
        serial_best.push_back(best(timed.serial_ms[i]));
        parallel_best.push_back(best(timed.parallel_ms[i]));
        idle_best.push_back(best(timed.idle_ms[i]));
        serial_best_sum += serial_best.back();
    }
    out.notes.push_back(std::to_string(n) + " traces, " +
                        std::to_string(timed.rounds) +
                        " rounds, closed-loop batches of " +
                        std::to_string(smoke ? 2 : spec.batch_per_stream * n) +
                        " sessions");

    std::vector<Metric> &m = out.metrics;
    if (!tracer.enabled()) {
        m.push_back({"analyze_ms", geomean(serial_best), "ms"});
        m.push_back({"analyze_par_ms", geomean(parallel_best), "ms"});
        m.push_back({"offline_s_per_traced_s",
                     serial_best_sum / 1e3 / traced_s, "s/s"});
        m.push_back({"trace_slowdown", ratio(traced_cycles, baseline_cycles),
                     "x"});
        m.push_back({"trace_mb_per_s", offline_bytes / 1e6 / traced_s,
                     "MB/s"});
        m.push_back({"session_ms", geomean(idle_best), "ms"});
        m.push_back({"service_capacity_sessions_per_s",
                     *std::max_element(timed.capacity.begin(),
                                       timed.capacity.end()),
                     "1/s"});
        m.push_back({"setup_s", median(setup.seconds), "s"});
        m.push_back({"peak_rss_mb", peak_rss_mb, "MB"});
        return out;
    }

    // Open loop, traced run only: Poisson arrivals at the frozen rate.
    const ServicePhase open = runService(
        traces,
        openLoopPlan(n, spec.open_rate, kOpenLoopShare * seconds, smoke,
                     rng),
        "session", false, probe, tracer, checks);
    std::vector<double> serial_all, open_latency, open_i2r, lag, queue_wait;
    for (size_t i = 0; i < n; ++i) {
        serial_all.insert(serial_all.end(), timed.serial_ms[i].begin(),
                          timed.serial_ms[i].end());
    }
    for (const SessionRun &s : open.sessions) {
        open_latency.push_back(s.latency_ms);
        open_i2r.push_back(s.ingest_to_report_ms);
        lag.push_back(msBetween(s.due, s.called));
        queue_wait.push_back(s.latency_ms - msBetween(s.due, s.closed) -
                             probe.analysis_ms[s.stream]);
    }
    out.notes.push_back(std::to_string(open.sessions.size()) +
                        " open-loop sessions");

    // Per-layer metrics: span self times are averaged per analysis (or
    // per recorded trace / per stream); counts cover one analysis of
    // every distinct trace.
    const Tracer::Totals setup_t = tracer.totals("setup");
    const Tracer::Totals analyze_t = tracer.totals("analyze");
    const Tracer::Totals probe_t = tracer.totals("probe");
    const Tracer::Totals session_t = tracer.totals("session");
    const auto self = [](const Tracer::Totals &t, const char *name) {
        const auto it = t.self_ms.find(name);
        return it == t.self_ms.end() ? 0.0 : it->second;
    };
    const auto perRoot = [&](const Tracer::Totals &t, const char *name) {
        return ratio(self(t, name), static_cast<double>(t.roots));
    };
    const LayerCounts &c = timed.counts;
    const double reps = static_cast<double>(setup.seconds.size());
    const double vm_ms = (self(setup_t, "vm.baseline") +
                          self(setup_t, "vm.traced")) / reps;
    double stream_bytes = 0;
    for (const Recorded &r : traces)
        stream_bytes += static_cast<double>(r.stream.size());
    double layered_best_sum = 0, parallel_best_sum = 0;
    for (size_t i = 0; i < n; ++i) {
        layered_best_sum += best(timed.layered_ms[i]);
        parallel_best_sum += parallel_best[i];
    }
    const double analyses = static_cast<double>(analyze_t.roots);
    const double passes = analyses / static_cast<double>(n);
    const double total_replay = static_cast<double>(c.replay.totalAccesses());

    m.push_back({"vm.host_s", vm_ms / 1e3, "s"});
    m.push_back({"vm.insns_per_s",
                 ratio(static_cast<double>(setup.vm_insns), vm_ms / 1e3),
                 "1/s"});
    // Two encodes per recorded trace: the offline trace and the stream.
    m.push_back({"trace.encode_ms",
                 ratio(self(setup_t, "trace.encode"),
                       2.0 * static_cast<double>(setup_t.roots)),
                 "ms"});
    m.push_back({"trace.decode_ms", perRoot(probe_t, "trace.decode"), "ms"});
    m.push_back({"trace.decode_mb_per_s",
                 ratio(stream_bytes / 1e6,
                       self(probe_t, "trace.decode") / 1e3),
                 "MB/s"});
    m.push_back({"trace.bytes", stream_bytes, "B"});
    m.push_back({"trace.records", static_cast<double>(probe.records),
                 "count"});
    m.push_back({"analysis.build_ms", perRoot(analyze_t, "analysis.build"),
                 "ms"});
    m.push_back({"analysis.pointsto_iterations",
                 static_cast<double>(c.pointsto_iterations), "count"});
    m.push_back({"pmu.pt_decode_ms", perRoot(analyze_t, "pmu.pt_decode"),
                 "ms"});
    m.push_back({"pmu.path_entries", static_cast<double>(c.path_entries),
                 "count"});
    m.push_back({"pmu.path_entries_per_s",
                 ratio(static_cast<double>(c.path_entries) * passes,
                       self(analyze_t, "pmu.pt_decode") / 1e3),
                 "1/s"});
    m.push_back({"replay.align_ms", perRoot(analyze_t, "replay.align"),
                 "ms"});
    m.push_back({"replay.samples_matched",
                 static_cast<double>(c.samples_matched), "count"});
    m.push_back({"replay.samples_unmatched",
                 static_cast<double>(c.samples_unmatched), "count"});
    m.push_back({"replay.align_match_ratio",
                 ratio(static_cast<double>(c.samples_matched),
                       static_cast<double>(c.samples_matched +
                                           c.samples_unmatched)),
                 "ratio"});
    m.push_back({"replay.replay_ms", perRoot(analyze_t, "replay.replay"),
                 "ms"});
    m.push_back({"replay.windows", static_cast<double>(c.replay.windows),
                 "count"});
    m.push_back({"replay.accesses", total_replay, "count"});
    m.push_back({"replay.accesses_per_s",
                 ratio(total_replay * passes,
                       self(analyze_t, "replay.replay") / 1e3),
                 "1/s"});
    m.push_back({"replay.recovery_ratio", c.replay.recoveryRatio(),
                 "ratio"});
    m.push_back({"replay.pm_pages",
                 static_cast<double>(c.replay.program_map.pages_allocated),
                 "count"});
    m.push_back({"replay.pm_cache_hit_ratio",
                 ratio(static_cast<double>(c.replay.program_map.cache_hits),
                       static_cast<double>(
                           c.replay.program_map.page_lookups)),
                 "ratio"});
    m.push_back({"core.prefilter_ms", perRoot(analyze_t, "core.prefilter"),
                 "ms"});
    m.push_back({"core.prefilter_pruned_ratio",
                 ratio(static_cast<double>(c.pruned),
                       static_cast<double>(c.events_seen)),
                 "ratio"});
    m.push_back({"core.regeneration_rounds",
                 static_cast<double>(c.regeneration_rounds), "count"});
    const double events = static_cast<double>(c.accesses + c.sync_ops);
    m.push_back({"detect.detect_ms", perRoot(analyze_t, "detect.detect"),
                 "ms"});
    m.push_back({"detect.events", events, "count"});
    m.push_back({"detect.events_per_s",
                 ratio(events * passes,
                       self(analyze_t, "detect.detect") / 1e3),
                 "1/s"});
    m.push_back({"detect.fast_path_ratio",
                 ratio(static_cast<double>(c.fast_path),
                       static_cast<double>(c.accesses)),
                 "ratio"});
    m.push_back({"detect.folded_ratio",
                 ratio(static_cast<double>(c.folded),
                       static_cast<double>(c.accesses)),
                 "ratio"});
    m.push_back({"detect.races", static_cast<double>(c.races), "count"});
    m.push_back({"exec.par_speedup",
                 ratio(serial_best_sum, parallel_best_sum), "x"});
    // Medians and tails: steady only on a quiet machine, so diagnostics.
    m.push_back({"core.analyze_ms.p50", median(serial_all), "ms"});
    m.push_back({"core.analyze_ms.p90", quantile(serial_all, 0.9), "ms"});
    m.push_back({"service.open_ms", perRoot(session_t, "service.open"),
                 "ms"});
    m.push_back({"service.submit_ms", perRoot(session_t, "service.submit"),
                 "ms"});
    m.push_back({"service.session_latency_ms.p50", median(open_latency),
                 "ms"});
    m.push_back({"service.session_latency_ms.p90",
                 quantile(open_latency, 0.9), "ms"});
    m.push_back({"service.generator_lag_ms.p95", quantile(lag, 0.95),
                 "ms"});
    m.push_back({"service.ingest_to_report_ms.p50", median(open_i2r),
                 "ms"});
    double analysis_sum = 0;
    for (const double ms : probe.analysis_ms)
        analysis_sum += ms;
    m.push_back({"service.analysis_ms",
                 ratio(analysis_sum, static_cast<double>(n)),
                 "ms"});
    m.push_back({"service.queue_wait_ms.p50", median(queue_wait), "ms"});
    m.push_back({"service.open_stalls",
                 static_cast<double>(open.stats.open_stalls), "count"});
    m.push_back({"service.ingest_peak_bytes",
                 static_cast<double>(open.stats.ingest.peak_buffered_bytes),
                 "B"});
    m.push_back({"service.peak_live_granules",
                 static_cast<double>(open.peak_live_granules), "count"});
    m.push_back({"service.gc_granules_reclaimed",
                 ratio(static_cast<double>(open.granules_reclaimed),
                       static_cast<double>(open.sessions.size())),
                 "count"});
    m.push_back({"service.distinct_races",
                 static_cast<double>(open.stats.distinct_races), "count"});
    m.push_back({"bench.tracing_overhead_ratio",
                 ratio(layered_best_sum, serial_best_sum), "ratio"});
    m.push_back({"bench.span_coverage",
                 ratio(analyze_t.child_ms + probe_t.child_ms,
                       analyze_t.root_ms + probe_t.root_ms),
                 "ratio"});

    // Shares of the layered analysis, for choosing workloads.
    const double layers = analyze_t.root_ms;
    const auto share = [&](std::initializer_list<const char *> names) {
        double sum = 0;
        for (const char *name : names)
            sum += self(analyze_t, name);
        return formatDouble(100 * ratio(sum, layers), "%.1f%%");
    };
    out.notes.push_back(
        "analysis shares: build " + share({"analysis.build"}) +
        ", pt decode " + share({"pmu.pt_decode"}) + ", align " +
        share({"replay.align"}) + ", replay " + share({"replay.replay"}) +
        ", prefilter+detect " + share({"core.prefilter", "detect.detect"}));
    const double mean_gap_ms = 1e3 / spec.open_rate;
    out.notes.push_back("generator lag p95 " +
                        formatDouble(quantile(lag, 0.95), "%.3f") +
                        " ms = " +
                        formatDouble(100 * quantile(lag, 0.95) / mean_gap_ms,
                                     "%.1f%%") +
                        " of the mean inter-arrival");
    return out;
}

// --------------------------------------------------------------------
// Command line
// --------------------------------------------------------------------

struct Args {
    std::string workload;
    uint64_t seed = 0;
    bool have_seed = false;
    double seconds = 20;
    std::string out;
    std::string trace;
    bool smoke = false;
};

int
usage(const char *why)
{
    std::fprintf(stderr,
                 "prorace_bench: %s\n"
                 "usage: prorace_bench --workload <name|all> --seed <N> "
                 "[--seconds S] [--out metrics.json] [--trace spans.json] "
                 "[--smoke]\nworkloads:",
                 why);
    for (const WorkloadSpec &spec : workloadSpecs())
        std::fprintf(stderr, " %s", spec.name);
    std::fprintf(stderr, "\n");
    return 2;
}

bool
parseArgs(int argc, char **argv, Args &args, std::string &error)
{
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--smoke") {
            args.smoke = true;
            continue;
        }
        if (i + 1 >= argc) {
            error = "missing value for " + flag;
            return false;
        }
        const std::string value = argv[++i];
        char *end = nullptr;
        if (flag == "--workload") {
            args.workload = value;
        } else if (flag == "--seed") {
            errno = 0;
            args.seed = std::strtoull(value.c_str(), &end, 10);
            if (value.empty() || *end || errno || value[0] == '-') {
                error = "bad --seed '" + value + "'";
                return false;
            }
            args.have_seed = true;
        } else if (flag == "--seconds") {
            args.seconds = std::strtod(value.c_str(), &end);
            if (value.empty() || *end || !(args.seconds > 0) ||
                args.seconds > 3600) {
                error = "bad --seconds '" + value + "'";
                return false;
            }
        } else if (flag == "--out") {
            args.out = value;
        } else if (flag == "--trace") {
            args.trace = value;
        } else {
            error = "unknown argument '" + flag + "'";
            return false;
        }
    }
    if (args.workload.empty()) {
        error = "--workload is required";
        return false;
    }
    if (!args.have_seed) {
        error = "--seed is required";
        return false;
    }
    if (args.workload != "all" && !findSpec(args.workload)) {
        error = "unknown workload '" + args.workload + "'";
        return false;
    }
    return true;
}

/** @p path with ".<tag>" inserted before a trailing ".json". */
std::string
taggedPath(const std::string &path, const std::string &tag)
{
    const std::string ext = ".json";
    if (path.size() > ext.size() &&
        path.compare(path.size() - ext.size(), ext.size(), ext) == 0)
        return path.substr(0, path.size() - ext.size()) + "." + tag + ext;
    return path + "." + tag;
}

/**
 * `--workload all`: each workload in its own child process, so
 * peak_rss_mb is per workload. Returns 3 if any child failed.
 */
int
runAll(const Args &args)
{
    std::vector<std::string> parts;
    int status_all = 0;
    for (const WorkloadSpec &spec : workloadSpecs()) {
        const std::string child_out =
            args.out.empty() ? "" : taggedPath(args.out, spec.name);
        std::vector<std::string> cargs = {
            "prorace_bench",  "--workload", spec.name,
            "--seed",         std::to_string(args.seed),
            "--seconds",      formatDouble(args.seconds, "%.17g")};
        if (args.smoke)
            cargs.push_back("--smoke");
        if (!child_out.empty()) {
            cargs.push_back("--out");
            cargs.push_back(child_out);
        }
        if (!args.trace.empty()) {
            cargs.push_back("--trace");
            cargs.push_back(taggedPath(args.trace, spec.name));
        }
        std::vector<char *> cargv;
        for (std::string &a : cargs)
            cargv.push_back(a.data());
        cargv.push_back(nullptr);

        std::fflush(stdout);
        const pid_t pid = fork();
        if (pid == 0) {
            execv("/proc/self/exe", cargv.data());
            std::perror("execv");
            _exit(127);
        }
        int status = 0;
        if (pid < 0 || waitpid(pid, &status, 0) < 0 || !WIFEXITED(status) ||
            WEXITSTATUS(status) != 0) {
            std::fprintf(stderr, "workload %s failed\n", spec.name);
            status_all = 3;
        }
        if (!child_out.empty()) {
            std::ifstream in(child_out);
            std::stringstream text;
            text << in.rdbuf();
            parts.push_back(text.str());
            std::remove(child_out.c_str());
        }
    }
    if (!args.out.empty()) {
        std::string joined = "[\n";
        for (size_t i = 0; i < parts.size(); ++i)
            joined += parts[i] + (i + 1 < parts.size() ? ",\n" : "\n");
        joined += "]\n";
        if (!writeFile(args.out, joined)) {
            std::fprintf(stderr, "cannot write %s\n", args.out.c_str());
            return 2;
        }
    }
    return status_all;
}

} // namespace

int
main(int argc, char **argv)
{
    Args args;
    std::string error;
    if (!parseArgs(argc, argv, args, error))
        return usage(error.c_str());
    // Fail before the run, not after it, when an output is unwritable.
    // With `all` the children check their own span files.
    const bool all = args.workload == "all";
    for (const std::string &path : {args.out, all ? "" : args.trace}) {
        if (!path.empty() && !writeFile(path, "")) {
            std::fprintf(stderr, "prorace_bench: cannot write %s\n",
                         path.c_str());
            return 2;
        }
    }
    if (all)
        return runAll(args);

    const Clock::time_point origin = Clock::now();
    Tracer tracer(!args.trace.empty());
    const RunOutput out = runWorkload(*findSpec(args.workload), args.seed,
                                      args.seconds, args.smoke, tracer);
    printOutput(out);
    if (!args.out.empty() && !writeFile(args.out, toJson(out) + "\n")) {
        std::fprintf(stderr, "prorace_bench: cannot write %s\n",
                     args.out.c_str());
        return 2;
    }
    if (tracer.enabled() && !tracer.write(args.trace, origin)) {
        std::fprintf(stderr, "prorace_bench: cannot write %s\n",
                     args.trace.c_str());
        return 2;
    }
    return out.checks.failed ? 3 : 0;
}
