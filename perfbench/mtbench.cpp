/**
 * @file
 * mtsim's benchmark program: runs one workload for a host-time budget,
 * checks every simulation's output, and prints the workload's metrics as
 * one JSON line on stdout.
 *
 *     mtbench --workload contended --seed 1 --seconds 20 --trace 0
 *
 * Every layer is timed from outside, around the call into its public
 * function (assemble, applyGroupingPass, decodeProgram, Machine, App,
 * makeRunRecord, ExperimentRunner). With --trace 1 those calls are also
 * kept as spans (workload pass -> simulation -> layer call) and the
 * per-layer metrics are computed from them; --spans FILE writes the
 * spans out at exit. perfbench/README.md describes the workloads and
 * every metric.
 */
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include <sys/resource.h>

#include "core/mtsim.hpp"
#include "util/json.hpp"

namespace
{

using namespace mts;
using Clock = std::chrono::steady_clock;

const Clock::time_point kStart = Clock::now();

double
now()
{
    return std::chrono::duration<double>(Clock::now() - kStart).count();
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Nearest-rank percentile of @p v (0 < q <= 1). */
double
percentile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    std::size_t rank = static_cast<std::size_t>(
        std::max(1.0, std::ceil(q * static_cast<double>(v.size()))));
    return v[rank - 1];
}

double
ratio(double num, double den)
{
    return den != 0.0 ? num / den : 0.0;
}

// ------------------------------------------------------------------ spans

/** One timed interval: a call into a layer, a simulation or a pass. */
struct Span
{
    const char *name = "";
    double start = 0.0;  ///< seconds since program start
    double end = 0.0;
    long parent = -1;    ///< index of the enclosing span, -1 for a root
    long sim = -1;       ///< per-simulation id, -1 outside a simulation
};

/**
 * Times calls from outside. Durations are always measured, since the
 * end-to-end metrics need them; spans are kept only when tracing. Safe
 * to use from sweep workers.
 */
class Recorder
{
  public:
    struct Open
    {
        long id = -1;
        double start = 0.0;
    };

    bool tracing = false;

    Open
    begin(const char *name, long parent, long sim)
    {
        Open o;
        o.start = now();
        if (tracing) {
            std::lock_guard<std::mutex> lock(mutex);
            o.id = static_cast<long>(spans.size());
            spans.push_back(Span{name, o.start, o.start, parent, sim});
        }
        return o;
    }

    /** Close @p o; returns its duration in seconds. */
    double
    end(const Open &o)
    {
        double t = now();
        if (o.id >= 0) {
            std::lock_guard<std::mutex> lock(mutex);
            spans[static_cast<std::size_t>(o.id)].end = t;
        }
        return t - o.start;
    }

    /** Time @p fn as a span named @p name; adds its duration to @p acc. */
    template <typename Fn>
    decltype(auto)
    time(const char *name, long parent, long sim, double &acc, Fn &&fn)
    {
        Open o = begin(name, parent, sim);
        struct Close
        {
            Recorder &r;
            Open &o;
            double &acc;
            ~Close() { acc += r.end(o); }
        } close{*this, o, acc};
        return fn();
    }

    std::vector<Span>
    snapshot()
    {
        std::lock_guard<std::mutex> lock(mutex);
        return spans;
    }

  private:
    std::mutex mutex;  ///< guards spans
    std::vector<Span> spans;
};

/**
 * Self time by span name over the subtree of @p root: each span's
 * duration minus the part of it its children cover (children may run
 * concurrently on sweep workers, so their union is subtracted).
 */
std::map<std::string, double>
selfTimes(const std::vector<Span> &spans, long root)
{
    std::vector<std::vector<long>> kids(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i)
        if (spans[i].parent >= 0)
            kids[static_cast<std::size_t>(spans[i].parent)].push_back(
                static_cast<long>(i));
    std::map<std::string, double> self;
    if (root < 0)
        return self;
    std::vector<long> stack{root};
    while (!stack.empty()) {
        long id = stack.back();
        stack.pop_back();
        const Span &s = spans[static_cast<std::size_t>(id)];
        std::vector<std::pair<double, double>> iv;
        for (long k : kids[static_cast<std::size_t>(id)]) {
            const Span &c = spans[static_cast<std::size_t>(k)];
            iv.emplace_back(c.start, c.end);
            stack.push_back(k);
        }
        std::sort(iv.begin(), iv.end());
        double covered = 0.0, hi = s.start;
        for (auto [a, b] : iv) {
            a = std::max(a, hi);
            if (b > a) {
                covered += b - a;
                hi = b;
            }
        }
        self[s.name] += (s.end - s.start) - covered;
    }
    return self;
}

// ------------------------------------------------------------ host speed

/**
 * Seconds the calibration loop takes on the nominal host. Host times are
 * reported as measured time x kCalibrationSeconds / (the loop's time
 * measured next to them): seconds at a fixed host speed.
 */
constexpr double kCalibrationSeconds = 0.0025;

/**
 * The calibration loop: a fixed bytecode interpreter over a 1 MiB table,
 * independent of the mtsim code it normalizes, so a change to mtsim
 * cannot move it. The host this benchmark runs on shares its cores and
 * caches with other machines and its speed drifts by 20% and more over
 * seconds; the loop, timed next to every simulation, measures
 * that drift. Returns the loop's host time in seconds.
 */
double
calibrate()
{
    constexpr std::uint32_t kTable = 1u << 18, kCode = 1u << 12;
    static const std::vector<std::uint32_t> code = [] {
        std::mt19937 g(42);
        std::vector<std::uint32_t> v(kCode);
        for (auto &x : v)
            x = static_cast<std::uint32_t>(g());
        return v;
    }();
    thread_local std::vector<std::uint32_t> table(kTable, 1u);
    double t0 = now();
    std::uint64_t acc = 1, pc = 0;
    for (int i = 0; i < 200000; ++i) {
        std::uint32_t op = code[pc % kCode];
        switch (op & 7) {
          case 0: acc += op; break;
          case 1: acc ^= table[(acc + op) % kTable]; break;
          case 2: acc *= 0x9E3779B97F4A7C15ull; break;
          case 3: pc += (acc & 1) ? 3 : 1; break;
          case 4:
            table[(op >> 3) % kTable] = static_cast<std::uint32_t>(acc);
            break;
          case 5: acc = (acc >> 7) | (acc << 57); break;
          case 6: acc -= table[op % kTable]; break;
          default: acc += pc; break;
        }
        ++pc;
    }
    table[0] = static_cast<std::uint32_t>(acc);  // keeps the loop live
    return now() - t0;
}

// -------------------------------------------------------------- workloads

/** One simulation of a workload pass. */
struct SimSpec
{
    const App *app = nullptr;
    MachineConfig config;
    bool grouped = false;  ///< run the grouping pass's output
    std::string label;
};

struct Workload
{
    std::string name;
    double scale = 1.0;
    bool grid = false;  ///< passes go through ExperimentRunner/SweepRunner
    std::vector<SimSpec> sims;
};

SimSpec
makeSpec(const App &app, MachineConfig cfg)
{
    SimSpec s;
    s.app = &app;
    s.config = cfg;
    s.grouped = modelNeedsSwitchInstr(cfg.model) || cfg.groupEstimate;
    s.label = app.name() + "/" + std::string(switchModelName(cfg.model)) +
              "/p" + std::to_string(cfg.numProcs) + "t" +
              std::to_string(cfg.threadsPerProc) +
              (cfg.network.kind == NetworkKind::Mesh ? "/mesh" : "");
    return s;
}

/**
 * The four workloads (README.md says why each was chosen). @p tiny
 * shrinks every problem for the self-test.
 */
Workload
makeWorkload(const std::string &name, bool tiny)
{
    Workload w;
    w.name = name;
    if (name == "contended") {
        w.scale = 1.0;
        for (const char *a : {"sieve", "mp3d", "water"})
            w.sims.push_back(makeSpec(
                findApp(a), ExperimentRunner::makeConfig(
                                SwitchModel::SwitchOnLoad, 16, 8, 200)));
    } else if (name == "engine") {
        w.scale = 4.0;
        for (const App *app : allApps())
            w.sims.push_back(makeSpec(
                *app, ExperimentRunner::makeConfig(SwitchModel::Ideal, 1,
                                                   1, 0)));
    } else if (name == "mesh-cache") {
        w.scale = 1.0;
        MachineConfig cfg = ExperimentRunner::makeConfig(
            SwitchModel::ConditionalSwitch, 64, 4, 200);
        cfg.network.kind = NetworkKind::Mesh;
        cfg.network.meshX = 8;
        cfg.network.meshY = 8;
        cfg.directory.mode = DirectoryMode::LimitedPtr;
        for (const char *a : {"sieve", "water", "mp3d", "locus"})
            w.sims.push_back(makeSpec(findApp(a), cfg));
    } else if (name == "table5-grid") {
        // Table 5: explicit-switch, every app at its table processor
        // count, threads 1-16, plus bench_table5_es's reorganization-
        // penalty run (grouped code on one ideal processor).
        w.scale = 1.0;
        w.grid = true;
        int maxThreads = tiny ? 2 : 16;
        for (const App *app : allApps()) {
            for (int t = 1; t <= maxThreads; ++t)
                w.sims.push_back(makeSpec(
                    *app, ExperimentRunner::makeConfig(
                              SwitchModel::ExplicitSwitch,
                              app->tableProcs(), t, 200)));
            SimSpec penalty = makeSpec(
                *app,
                ExperimentRunner::makeConfig(SwitchModel::Ideal, 1, 1, 0));
            penalty.grouped = true;
            penalty.label += "/grouped";
            w.sims.push_back(penalty);
        }
    } else {
        throw FatalError("unknown workload '" + name +
                         "' (contended, engine, mesh-cache, table5-grid)");
    }
    if (tiny)
        w.scale *= 0.05;
    return w;
}

// ------------------------------------------------------- per-run results

/** Deterministic simulated counts of one simulation. */
struct Counts
{
    std::uint64_t cycles = 0, instructions = 0;
    std::uint64_t busy = 0, stall = 0, idle = 0, switches = 0;
    std::uint64_t fuseInstr = 0, fuseExecs = 0, fuseBailouts = 0;
    std::uint64_t messages = 0, bits = 0;
    std::uint64_t routed = 0, hops = 0, linkWait = 0, linkBusyMax = 0;
    std::uint64_t hits = 0, misses = 0, invalidations = 0;
    std::uint64_t digest = 0;

    bool operator==(const Counts &) const = default;

    /** Pass totals: sums every additive count (not the link maximum or
     *  the digest). */
    Counts &
    operator+=(const Counts &c)
    {
        cycles += c.cycles;
        instructions += c.instructions;
        busy += c.busy;
        stall += c.stall;
        idle += c.idle;
        switches += c.switches;
        fuseInstr += c.fuseInstr;
        fuseExecs += c.fuseExecs;
        fuseBailouts += c.fuseBailouts;
        messages += c.messages;
        bits += c.bits;
        routed += c.routed;
        hops += c.hops;
        linkWait += c.linkWait;
        hits += c.hits;
        misses += c.misses;
        invalidations += c.invalidations;
        return *this;
    }
};

Counts
countsOf(const RunResult &r)
{
    Counts c;
    c.cycles = r.cycles;
    c.instructions = r.cpu.instructions;
    c.busy = r.cpu.busyCycles;
    c.stall = r.cpu.stallCycles;
    c.idle = r.cpu.idleCycles;
    c.switches = r.cpu.switchesTaken;
    c.fuseInstr = r.fuse.instructions;
    c.fuseExecs = r.fuse.execs;
    c.fuseBailouts = r.fuse.bailoutWatermark + r.fuse.bailoutBudget;
    c.messages = r.net.messages;
    c.bits = r.net.forwardBits + r.net.returnBits;
    c.routed = r.link.routedMsgs;
    c.hops = r.link.hops;
    c.linkWait = r.link.waitCycles;
    c.linkBusyMax = r.link.busyMax;
    c.hits = r.cache.hits;
    c.misses = r.cache.misses;
    c.invalidations = r.cache.invalidationsReceived;
    c.digest = r.digest.combined();
    return c;
}

/** Zero-latency oracle of one simulation (see Bench::referencePhase). */
struct Reference
{
    StateDigest digest;
    bool orderIndependent = false;  ///< the digest check applies
    Cycle refCycles = 0;            ///< 1-proc reference (efficiency)
};

/** What one simulation produced. */
struct SimOutcome
{
    bool ran = false;    ///< produced counts (did not throw)
    bool ok = false;     ///< self-check and digest check passed
    std::string why;     ///< failure message
    Counts counts;
    double seconds = 0.0, setup = 0.0, run = 0.0;
    double speed = 1.0;  ///< host-speed factor applied to the times
    std::size_t jsonBytes = 0;
};

/** Totals of one pass over a workload. */
struct Pass
{
    bool traced = false;
    long root = -1;
    double wall = 0.0, setup = 0.0, run = 0.0;  ///< host-speed adjusted
    double rawWall = 0.0;             ///< wall as measured
    double speed = 1.0;               ///< mean host-speed factor
    std::vector<double> calibration;  ///< loop times measured, seconds
    double workerCalibration = 0.0;   ///< loop time on sweep workers
    int attempted = 0, failed = 0;
    Counts sum;
    double maxLinkUtil = 0.0;
    std::uint64_t jsonBytes = 0, switchesInserted = 0;
    std::vector<double> simSeconds;
};

class Bench
{
  public:
    Bench(Workload wl, std::uint64_t seed, unsigned jobs)
        : w(std::move(wl)), seed(seed), jobs(jobs), pool(jobs)
    {
    }

    Recorder rec;
    std::vector<Pass> passes;
    std::vector<std::string> failures;
    bool deterministic = true;
    long referenceRoot = -1;
    double referenceSpeed = 1.0;  ///< host-speed factor of the phase

    /**
     * Zero-latency oracles, computed once before the measured passes:
     * each simulation is rerun with the same program, model and shape on
     * a 0-cycle constant-latency network, twice, at two causality quanta.
     * When the two agree the program is interleaving-independent at that
     * shape and every timed run must reproduce the digest; when they
     * differ (water, mp3d and ugray accumulate floating point in arrival
     * order) only the app's self-check applies.
     *
     * The programs come from the path the passes do not time: the
     * grid's passes prepare through ExperimentRunner, so its oracle
     * assembles directly, and the other workloads' oracle prepares
     * through ExperimentRunner (which also gives the 1-processor
     * reference cycles their run records carry).
     */
    void
    referencePhase()
    {
        double k0 = calibrate();
        Recorder::Open root = rec.begin("references", -1, -1);
        referenceRoot = root.id;
        struct Programs
        {
            std::shared_ptr<const Program> original, grouped;
            std::shared_ptr<const DecodedProgram> originalDecoded,
                groupedDecoded;
            Cycle refCycles = 0;
        };
        std::map<const App *, Programs> programs;
        std::vector<const App *> apps;
        for (const SimSpec &s : w.sims)
            if (!programs.count(s.app)) {
                programs[s.app];
                apps.push_back(s.app);
            }
        ExperimentRunner runner(w.scale);
        std::vector<std::future<void>> prepared;
        for (const App *app : apps)
            prepared.push_back(spawn([&, app] {
                Programs &p = programs.at(app);
                double t = 0.0;
                if (w.grid) {
                    auto prog = std::make_shared<const Program>(rec.time(
                        "assemble", root.id, -1, t, [&] {
                            return assemble(app->source(),
                                            app->options(w.scale));
                        }));
                    p.original = prog;
                    p.grouped = std::make_shared<const Program>(
                        rec.time("group", root.id, -1, t, [&] {
                            return applyGroupingPass(*prog);
                        }));
                    p.originalDecoded =
                        std::make_shared<const DecodedProgram>(
                            rec.time("decode", root.id, -1, t, [&] {
                                return decodeProgram(p.original->code);
                            }));
                    p.groupedDecoded =
                        std::make_shared<const DecodedProgram>(
                            rec.time("decode", root.id, -1, t, [&] {
                                return decodeProgram(p.grouped->code);
                            }));
                } else {
                    const PreparedApp &pa = rec.time(
                        "prepare", root.id, -1, t,
                        [&]() -> const PreparedApp & {
                            return runner.prepare(*app);
                        });
                    p.original = pa.original;
                    p.grouped = pa.grouped;
                    p.originalDecoded = pa.originalDecoded;
                    p.groupedDecoded = pa.groupedDecoded;
                    p.refCycles = rec.time("reference", root.id, -1, t, [&] {
                        return runner.referenceCycles(*app);
                    });
                }
            }));
        for (auto &f : prepared)
            f.get();

        std::vector<std::future<Reference>> refs;
        for (const SimSpec &s : w.sims)
            refs.push_back(spawn([&, s] {
                const Programs &p = programs.at(s.app);
                auto oracle = [&](Cycle quantum) {
                    MachineConfig cfg = ExperimentRunner::makeConfig(
                        s.config.model, s.config.numProcs,
                        s.config.threadsPerProc, 0);
                    cfg.cache = s.config.cache;
                    cfg.zeroLatencyQuantum = quantum;
                    Machine m(s.grouped ? p.grouped : p.original,
                              s.grouped ? p.groupedDecoded
                                        : p.originalDecoded,
                              cfg);
                    s.app->init(m);
                    return m.run().digest;
                };
                Reference r;
                r.digest = oracle(MachineConfig{}.zeroLatencyQuantum);
                r.orderIndependent = oracle(7) == r.digest;
                r.refCycles = p.refCycles;
                return r;
            }));
        for (std::size_t i = 0; i < refs.size(); ++i)
            references[w.sims[i].label] = refs[i].get();
        rec.end(root);
        referenceSpeed = 2 * kCalibrationSeconds / (k0 + calibrate());
    }

    /** One pass: every simulation of the workload once, in seeded order. */
    void
    runPass(bool traced)
    {
        rec.tracing = traced;
        Pass pass;
        pass.traced = traced;
        std::vector<std::size_t> order(w.sims.size());
        for (std::size_t i = 0; i < order.size(); ++i)
            order[i] = i;
        std::mt19937_64 rng(seed * 1000003u + passes.size());
        std::shuffle(order.begin(), order.end(), rng);

        Recorder::Open root = rec.begin(w.name.c_str(), -1, -1);
        pass.root = root.id;
        double calib = 0.0;
        auto sample = [&] {
            double k = rec.time("calibrate", root.id, -1, calib, calibrate);
            pass.calibration.push_back(k);
            return k;
        };
        std::vector<SimOutcome> out;
        if (w.grid) {
            out = gridPass(root.id, order, pass, sample);
        } else {
            // Each simulation is adjusted by the loop timed on either
            // side of it.
            double before = sample();
            for (std::size_t i : order) {
                out.push_back(directSim(w.sims[i], root.id, pass));
                double after = sample();
                out.back().speed = 2 * kCalibrationSeconds / (before + after);
                before = after;
            }
        }
        double wall =
            rec.end(root) - calib - pass.workerCalibration / jobs;
        pass.rawWall = wall;
        rec.tracing = false;
        double meanK = 0.0;
        for (double k : pass.calibration)
            meanK += k / static_cast<double>(pass.calibration.size());
        pass.speed = kCalibrationSeconds / meanK;
        pass.wall = wall * pass.speed;
        if (!w.grid)
            for (const SimOutcome &o : out)
                pass.wall += o.seconds * (o.speed - pass.speed);

        for (std::size_t k = 0; k < out.size(); ++k) {
            const SimSpec &s = w.sims[order[k]];
            SimOutcome &o = out[k];
            if (o.ran)
                crossCheck(s, o);
            ++pass.attempted;
            if (!o.ok) {
                ++pass.failed;
                failures.push_back(s.label + ": " + o.why);
            }
            pass.setup += o.setup * o.speed;
            pass.run += o.run * o.speed;
            pass.jsonBytes += o.jsonBytes;
            pass.simSeconds.push_back(o.seconds * o.speed);
            pass.sum += o.counts;
            pass.maxLinkUtil =
                std::max(pass.maxLinkUtil,
                         ratio(static_cast<double>(o.counts.linkBusyMax),
                               static_cast<double>(o.counts.cycles)));
        }
        if (!pass.traced)
            setupSamples.push_back(pass.setup);
        passes.push_back(std::move(pass));
    }

    /**
     * Set-up-only rounds after the passes, until setupSamples holds
     * kSetupSamples set-ups of the whole workload: passes alone give too
     * few for a steady median where they are few and long (mesh-cache).
     * Each round is adjusted by the calibration loop timed around it.
     */
    void
    setUpRounds()
    {
        constexpr std::size_t kSetupSamples = 15;
        std::vector<std::size_t> order(w.sims.size());
        for (std::size_t i = 0; i < order.size(); ++i)
            order[i] = i;
        std::uint64_t unused = 0;
        while (setupSamples.size() < kSetupSamples) {
            double k0 = calibrate();
            double t = 0.0;
            try {
                if (w.grid) {
                    ExperimentRunner runner(w.scale);
                    SweepRunner sweep(runner, jobs);
                    t = gridSetUp(runner, sweep, appsIn(order), -1, unused);
                } else {
                    for (const SimSpec &s : w.sims)
                        setUp(s, -1, -1, t, unused);
                }
            } catch (const std::exception &) {
                return;  // the passes have counted the failing set-up
            }
            setupSamples.push_back(t * 2 * kCalibrationSeconds /
                                   (k0 + calibrate()));
        }
    }

    /** Adjusted set-up time of every untraced pass and set-up round. */
    std::vector<double> setupSamples;

  private:
    Workload w;
    std::uint64_t seed;
    unsigned jobs;
    ThreadPool pool;
    std::atomic<long> nextSim{0};
    std::map<std::string, Reference> references;
    std::mutex passMutex;  ///< guards a grid pass's shared totals
    std::map<std::string, Counts> firstCounts;

    /**
     * Self-check plus digest check against the zero-latency oracle;
     * both are outside the timed run phase.
     */
    void
    check(const SimSpec &s, Machine &m, const RunResult &r, SimOutcome &o)
    {
        AppCheckResult chk = s.app->check(m);
        const Reference &ref = references.at(s.label);
        o.ok = chk.ok;
        if (!chk.ok)
            o.why = "self-check failed: " + chk.message;
        else if (ref.orderIndependent && r.digest != ref.digest) {
            o.ok = false;
            o.why = "digest " + r.digest.hex() + " != zero-latency " +
                    ref.digest.hex();
        }
    }

    /** Set-up of one simulation of the direct pipeline. */
    std::unique_ptr<Machine>
    setUp(const SimSpec &s, long id, long sim, double &setup,
          std::uint64_t &switchesInserted)
    {
        Program prog = rec.time("assemble", id, sim, setup, [&] {
            return assemble(s.app->source(), s.app->options(w.scale));
        });
        GroupingStats gs;
        Program grouped = rec.time("group", id, sim, setup, [&] {
            return applyGroupingPass(prog, &gs);
        });
        switchesInserted += gs.switchesInserted;
        auto chosen = std::make_shared<const Program>(
            std::move(s.grouped ? grouped : prog));
        auto decoded = std::make_shared<const DecodedProgram>(
            rec.time("decode", id, sim, setup,
                     [&] { return decodeProgram(chosen->code); }));
        auto machine = rec.time("construct", id, sim, setup, [&] {
            return std::make_unique<Machine>(chosen, decoded, s.config);
        });
        rec.time("init", id, sim, setup, [&] { s.app->init(*machine); });
        return machine;
    }

    /**
     * The grid's set-up stage on @p runner: prepare + referenceCycles for
     * every app, fanned over the sweep. Returns the summed call times.
     */
    double
    gridSetUp(ExperimentRunner &runner, SweepRunner &sweep,
              const std::vector<const App *> &apps, long parent,
              std::uint64_t &switchesInserted)
    {
        std::vector<double> times = sweep.map(apps.size(), [&](std::size_t i) {
            double t = 0.0;
            const PreparedApp &pa = rec.time(
                "prepare", parent, -1, t, [&]() -> const PreparedApp & {
                    return runner.prepare(*apps[i]);
                });
            rec.time("reference", parent, -1, t,
                     [&] { return runner.referenceCycles(*apps[i]); });
            std::lock_guard<std::mutex> lock(passMutex);
            switchesInserted += pa.groupingStats.switchesInserted;
            return t;
        });
        double total = 0.0;
        for (double t : times)
            total += t;
        return total;
    }

    /** The workload's apps, in first-use order along @p order. */
    std::vector<const App *>
    appsIn(const std::vector<std::size_t> &order) const
    {
        std::vector<const App *> apps;
        for (std::size_t i : order)
            if (std::find(apps.begin(), apps.end(), w.sims[i].app) ==
                apps.end())
                apps.push_back(w.sims[i].app);
        return apps;
    }

    /** The direct pipeline: every layer called by the benchmark. */
    SimOutcome
    directSim(const SimSpec &s, long parent, Pass &pass)
    {
        SimOutcome o;
        long sim = nextSim++;
        Recorder::Open span = rec.begin("simulation", parent, sim);
        long id = span.id;
        try {
            std::unique_ptr<Machine> machine =
                setUp(s, id, sim, o.setup, pass.switchesInserted);
            RunResult r = rec.time("run", id, sim, o.run,
                                   [&] { return machine->run(); });
            double unused = 0.0;
            rec.time("check", id, sim, unused,
                     [&] { check(s, *machine, r, o); });
            RunRecord record = rec.time("record", id, sim, unused, [&] {
                RunRecord rr = makeRunRecord(r, s.config, s.app->name());
                const Reference &ref = references.at(s.label);
                if (ref.refCycles && r.cycles) {
                    rr.hasEfficiency = true;
                    rr.referenceCycles = ref.refCycles;
                    rr.speedup = static_cast<double>(ref.refCycles) /
                                 static_cast<double>(r.cycles);
                    rr.efficiency = rr.speedup / s.config.numProcs;
                }
                return rr;
            });
            o.jsonBytes = rec.time("serialize", id, sim, unused, [&] {
                return record.toJson().dump().size();
            });
            o.counts = countsOf(r);
            o.ran = true;
        } catch (const std::exception &e) {
            o.ok = false;
            o.why = e.what();
        }
        o.seconds = rec.end(span);
        return o;
    }

    /**
     * A Table 5 sweep on a fresh ExperimentRunner: set-up (prepare +
     * referenceCycles per app) and then every simulation, both fanned
     * over the SweepRunner's workers.
     */
    template <typename Sample>
    std::vector<SimOutcome>
    gridPass(long parent, const std::vector<std::size_t> &order,
             Pass &pass, Sample &sample)
    {
        // The set-up stage is adjusted by the loop timed on this thread
        // while the workers idle, before and after it.
        double before = sample();
        ExperimentRunner runner(w.scale);
        SweepRunner sweep(runner, jobs);
        double setup = gridSetUp(runner, sweep, appsIn(order), parent,
                                 pass.switchesInserted);
        pass.setup += setup * 2 * kCalibrationSeconds / (before + sample());

        return sweep.map(order.size(), [&](std::size_t k) {
            // Each simulation is adjusted by the loop timed just before
            // it on its own worker, under the sweep's load.
            double spent = 0.0;
            double loop = rec.time("calibrate", parent, -1, spent, calibrate);
            {
                std::lock_guard<std::mutex> lock(passMutex);
                pass.calibration.push_back(loop);
                pass.workerCalibration += spent;
            }
            const SimSpec &s = w.sims[order[k]];
            SimOutcome o;
            o.speed = kCalibrationSeconds / loop;
            long sim = nextSim++;
            Recorder::Open span = rec.begin("simulation", parent, sim);
            long id = span.id;
            double unused = 0.0;
            try {
                if (s.config.model == SwitchModel::Ideal) {
                    // bench_table5_es's penalty column: grouped code on
                    // one ideal processor, built from the prepared app.
                    const PreparedApp &pa = runner.prepare(*s.app);
                    auto machine = rec.time("construct", id, sim, o.setup, [&] {
                        return std::make_unique<Machine>(
                            pa.grouped, pa.groupedDecoded, s.config);
                    });
                    rec.time("init", id, sim, o.setup,
                             [&] { s.app->init(*machine); });
                    RunResult r = rec.time("run", id, sim, o.run,
                                           [&] { return machine->run(); });
                    rec.time("check", id, sim, unused,
                             [&] { check(s, *machine, r, o); });
                    RunRecord record = rec.time("record", id, sim, unused, [&] {
                        return makeRunRecord(r, s.config, s.app->name());
                    });
                    o.jsonBytes = rec.time("serialize", id, sim, unused, [&] {
                        return record.toJson().dump().size();
                    });
                    o.counts = countsOf(r);
                } else {
                    // ExperimentRunner::run self-checks (and throws on a
                    // failure); the digest check follows outside it.
                    ExperimentRun run = rec.time("run", id, sim, o.run, [&] {
                        return runner.run(*s.app, s.config);
                    });
                    rec.time("check", id, sim, unused, [&] {
                        const Reference &ref = references.at(s.label);
                        o.ok = true;
                        if (ref.orderIndependent &&
                            run.result.digest != ref.digest) {
                            o.ok = false;
                            o.why = "digest " + run.result.digest.hex() +
                                    " != zero-latency " + ref.digest.hex();
                        }
                    });
                    o.jsonBytes = rec.time("serialize", id, sim, unused, [&] {
                        return run.record.toJson().dump().size();
                    });
                    o.counts = countsOf(run.result);
                }
                o.ran = true;
            } catch (const std::exception &e) {
                o.ok = false;
                o.why = e.what();
            }
            o.seconds = rec.end(span);
            return o;
        });
    }

    /**
     * Runs a reference-phase task where the passes run theirs: on the
     * sweep's workers for the grid, on this thread otherwise (when its
     * future is read). Memory the phase frees is then reused by the
     * passes, so peak_rss_mb does not depend on which thread's heap
     * kept it.
     */
    template <typename Fn>
    auto
    spawn(Fn fn) -> std::future<std::invoke_result_t<Fn>>
    {
        if (w.grid)
            return pool.submit(std::move(fn));
        return std::async(std::launch::deferred, std::move(fn));
    }

    /** Every pass, traced or not, must reproduce the first pass's counts. */
    void
    crossCheck(const SimSpec &s, SimOutcome &o)
    {
        auto [it, first] = firstCounts.emplace(s.label, o.counts);
        if (!first && !(it->second == o.counts)) {
            deterministic = false;
            if (o.ok) {
                o.ok = false;
                o.why = "simulated counts differ from an earlier pass";
            }
        }
    }
};

// ---------------------------------------------------------------- output

struct Metric
{
    std::string name;
    double value;
    const char *unit;
};

void
printResult(bool correct, int attempted, int failed,
            const std::vector<Metric> &metrics)
{
    std::string out = "{\"correct\": ";
    out += correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        char buf[64];
        std::snprintf(buf, sizeof buf, "%.17g", metrics[i].value);
        out += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
               buf + ", \"unit\": \"" + metrics[i].unit + "\"}";
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
}

double
peakRssMb()
{
    struct rusage ru = {};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss: KiB
}

std::vector<Metric>
endToEnd(const std::vector<const Pass *> &ps,
         const std::vector<double> &setup, int attempted, int failed)
{
    std::vector<double> wall, run, mips;
    for (const Pass *p : ps) {
        wall.push_back(p->wall);
        run.push_back(p->run);
        mips.push_back(
            ratio(static_cast<double>(p->sum.instructions), p->run) / 1e6);
    }
    return {
        {"wall_s", median(wall), "s"},
        {"setup_s", median(setup), "s"},
        {"run_s", median(run), "s"},
        {"minstr_per_s", median(mips), "Minstr/s"},
        {"peak_rss_mb", peakRssMb(), "MiB"},
        {"passed_frac",
         ratio(static_cast<double>(attempted - failed), attempted), "frac"},
    };
}

std::vector<Metric>
perLayer(Bench &b, unsigned workers)
{
    std::vector<const Pass *> traced, untraced;
    for (const Pass &p : b.passes)
        (p.traced ? traced : untraced).push_back(&p);
    std::vector<Span> spans = b.rec.snapshot();

    // Self time per span name: median over the traced passes; a layer
    // the passes never call is timed in the reference phase instead.
    std::vector<std::map<std::string, double>> perPass;
    std::vector<double> cover;
    for (const Pass *p : traced) {
        perPass.push_back(selfTimes(spans, p->root));
        double inLayers = 0.0;
        for (const char *l : {"assemble", "group", "decode", "construct",
                              "init", "run", "check", "record", "serialize",
                              "prepare", "reference"})
            if (auto it = perPass.back().find(l); it != perPass.back().end())
                inLayers += it->second;
        cover.push_back(ratio(inLayers, p->rawWall * workers));
        for (auto &[name, t] : perPass.back())
            t *= p->speed;
    }
    std::map<std::string, double> refSelf =
        selfTimes(spans, b.referenceRoot);
    for (auto &[name, t] : refSelf)
        t *= b.referenceSpeed;
    auto get = [](const std::map<std::string, double> &m,
                  const std::string &name) {
        auto it = m.find(name);
        return it != m.end() ? it->second : 0.0;
    };
    auto layer = [&](const char *name) {
        std::vector<double> v;
        for (const auto &m : perPass)
            if (auto it = m.find(name); it != m.end())
                v.push_back(it->second);
        if (!v.empty())
            return median(v);
        return get(refSelf, name);
    };
    std::vector<double> harness, wallT, simMs;
    for (std::size_t i = 0; i < perPass.size(); ++i) {
        const char *root =
            spans[static_cast<std::size_t>(traced[i]->root)].name;
        harness.push_back(get(perPass[i], "simulation") +
                          get(perPass[i], root));
        wallT.push_back(traced[i]->wall);
        for (double s : traced[i]->simSeconds)
            simMs.push_back(1e3 * s);
    }
    std::vector<double> wallU, calibMs;
    for (const Pass *p : untraced)
        wallU.push_back(p->wall);
    for (const Pass &q : b.passes)
        for (double k : q.calibration)
            calibMs.push_back(1e3 * k);

    const Pass &p = *traced.front();  // counts are identical in every pass
    const Counts &c = p.sum;
    double runS = median([&] {
        std::vector<double> v;
        for (const Pass *q : traced)
            v.push_back(q->run);
        return v;
    }());
    double instr = static_cast<double>(c.instructions);
    double cycles = static_cast<double>(c.cycles);
    double procCycles = static_cast<double>(c.busy + c.stall + c.idle);
    return {
        {"sim.run_s", layer("run"), "s"},
        {"sim.construct_s", layer("construct"), "s"},
        {"sim.host_ns_per_cycle", 1e9 * ratio(runS, cycles), "ns/cycle"},
        {"sim.host_ns_per_instr", 1e9 * ratio(runS, instr), "ns/instr"},
        {"sim.cycles", cycles, "cycles"},
        {"sim.instructions", instr, "count"},
        {"cpu.instr_per_switch",
         ratio(instr, static_cast<double>(c.switches)), "instr/switch"},
        {"cpu.busy_frac", ratio(static_cast<double>(c.busy), procCycles),
         "frac"},
        {"cpu.stall_frac", ratio(static_cast<double>(c.stall), procCycles),
         "frac"},
        {"cpu.idle_frac", ratio(static_cast<double>(c.idle), procCycles),
         "frac"},
        {"cpu.switches", static_cast<double>(c.switches), "count"},
        {"isa.decode_s", layer("decode"), "s"},
        {"isa.fused_share", ratio(static_cast<double>(c.fuseInstr), instr),
         "frac"},
        {"isa.fuse_bailouts_per_exec",
         ratio(static_cast<double>(c.fuseBailouts),
               static_cast<double>(c.fuseExecs)),
         "bailouts/exec"},
        {"mem.messages", static_cast<double>(c.messages), "count"},
        {"mem.bits_per_instr", ratio(static_cast<double>(c.bits), instr),
         "bits/instr"},
        {"mem.link_wait_per_msg",
         ratio(static_cast<double>(c.linkWait),
               static_cast<double>(c.routed)),
         "cycles/msg"},
        {"mem.max_link_util", p.maxLinkUtil, "frac"},
        {"mem.avg_hops",
         ratio(static_cast<double>(c.hops), static_cast<double>(c.routed)),
         "hops/msg"},
        {"cache.hit_rate",
         ratio(static_cast<double>(c.hits),
               static_cast<double>(c.hits + c.misses)),
         "frac"},
        {"cache.misses", static_cast<double>(c.misses), "count"},
        {"cache.invalidations", static_cast<double>(c.invalidations),
         "count"},
        {"asm.assemble_s", layer("assemble"), "s"},
        {"opt.group_s", layer("group"), "s"},
        {"opt.switches_inserted", static_cast<double>(p.switchesInserted),
         "count"},
        {"core.prepare_s", layer("prepare"), "s"},
        {"core.reference_s", layer("reference"), "s"},
        {"metrics.record_s", layer("record"), "s"},
        {"metrics.json_s", layer("serialize"), "s"},
        {"metrics.json_bytes", static_cast<double>(p.jsonBytes), "bytes"},
        {"apps.init_s", layer("init"), "s"},
        {"apps.check_s", layer("check"), "s"},
        {"apps.check_failures", static_cast<double>(p.failed), "count"},
        {"core.sim_ms_p50", percentile(simMs, 0.5), "ms"},
        {"core.sim_ms_p90", percentile(simMs, 0.9), "ms"},
        {"core.sim_samples", static_cast<double>(simMs.size()), "count"},
        {"bench.self_s", median(harness), "s"},
        {"trace.layer_cover_frac", median(cover), "frac"},
        {"trace.overhead_frac", ratio(median(wallT), median(wallU)) - 1.0,
         "frac"},
        {"host.calib_ms", median(calibMs), "ms"},
    };
}

/** Spans as JSON ({"spans": [...]}) for the self-test and inspection. */
void
writeSpans(const std::string &path, const std::vector<Span> &spans,
           unsigned workers)
{
    JsonValue doc = JsonValue::object();
    doc["workers"] = JsonValue(static_cast<std::uint64_t>(workers));
    JsonValue arr = JsonValue::array();
    for (std::size_t i = 0; i < spans.size(); ++i) {
        JsonValue s = JsonValue::object();
        s["id"] = JsonValue(static_cast<std::int64_t>(i));
        s["name"] = JsonValue(std::string(spans[i].name));
        s["start"] = JsonValue(spans[i].start);
        s["end"] = JsonValue(spans[i].end);
        s["parent"] = JsonValue(static_cast<std::int64_t>(spans[i].parent));
        s["sim"] = JsonValue(static_cast<std::int64_t>(spans[i].sim));
        arr.push(std::move(s));
    }
    doc["spans"] = std::move(arr);
    std::ofstream out(path);
    out << doc.dump() << "\n";
    if (!out)
        throw FatalError("cannot write spans to " + path);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload, spansPath;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false, tiny = false;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "mtbench: %s needs a value\n",
                             a.c_str());
                std::exit(2);
            }
            return argv[++i];
        };
        if (a == "--workload")
            workload = value();
        else if (a == "--seed")
            seed = std::strtoull(value().c_str(), nullptr, 10);
        else if (a == "--seconds")
            seconds = std::atof(value().c_str());
        else if (a == "--trace")
            trace = value() == "1";
        else if (a == "--spans")
            spansPath = value();
        else if (a == "--tiny")
            tiny = true;
        else {
            std::fprintf(stderr,
                         "mtbench: unknown argument '%s'\nusage: mtbench "
                         "--workload NAME [--seed N] [--seconds S] "
                         "[--trace 0|1] [--spans FILE] [--tiny]\n",
                         a.c_str());
            return 2;
        }
    }
    if (workload.empty() || !(seconds > 0)) {
        std::fprintf(stderr, "mtbench: --workload and --seconds > 0 are "
                             "required\n");
        return 2;
    }

    try {
        unsigned workers =
            std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
        Workload w = makeWorkload(workload, tiny);
        Bench bench(w, seed, workers);
        bench.rec.tracing = trace;
        bench.referencePhase();

        // Untraced passes give the end-to-end metrics. A traced run
        // alternates traced and untraced passes, so the tracing overhead
        // is measured under the same host conditions.
        const int minPasses = 3;
        double t0 = now();
        for (int k = 0; k < minPasses || now() - t0 < seconds; ++k)
            bench.runPass(trace && k % 2 == 1);
        if (!trace)
            bench.setUpRounds();

        int attempted = 0, failed = 0;
        std::vector<const Pass *> untraced;
        for (const Pass &p : bench.passes) {
            attempted += p.attempted;
            failed += p.failed;
            if (!p.traced)
                untraced.push_back(&p);
        }
        std::vector<std::string> seen;
        for (const std::string &f : bench.failures)
            if (std::find(seen.begin(), seen.end(), f) == seen.end()) {
                seen.push_back(f);
                std::fprintf(stderr, "mtbench: FAILED %s\n", f.c_str());
            }
        std::fprintf(stderr,
                     "mtbench: %s seed=%llu passes=%zu simulations=%d "
                     "failed=%d deterministic=%s\n",
                     w.name.c_str(), static_cast<unsigned long long>(seed),
                     bench.passes.size(), attempted, failed,
                     bench.deterministic ? "yes" : "NO");

        unsigned used = w.grid ? workers : 1;
        std::vector<Metric> metrics =
            trace ? perLayer(bench, used)
                  : endToEnd(untraced, bench.setupSamples, attempted,
                             failed);
        if (!spansPath.empty())
            writeSpans(spansPath, bench.rec.snapshot(), used);
        printResult(bench.deterministic, attempted, failed, metrics);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "mtbench: %s\n", e.what());
        return 1;
    }
    return 0;
}
