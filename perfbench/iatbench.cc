/**
 * @file
 * iatbench: the repository benchmark's measuring program.
 *
 * Runs one named workload (see README.md beside this file) through
 * the public interfaces of scenarios, sim, core, cache, obs and
 * cluster, and times every call into a layer from here. The simulator
 * itself is not instrumented: spans live in this file only.
 *
 * A run is a sequence of legs. Every leg builds a fresh world from
 * the generated configuration (timed: set-up), runs an untimed warmup,
 * then steps a fixed simulated window one Engine::run(quantum) or one
 * ClusterWorld::run(epoch) at a time, timing each call. Legs of one
 * world seed simulate the same thing, so they must end in the same
 * simulated-output digest; perfbench/run.py compares those digests
 * with the committed ones (default seed) or with each other.
 *
 *   --trace=0  legs repeat until --seconds of host time have passed,
 *              each bracketed by the host reference; prints the
 *              end-to-end metrics.
 *   --trace=1  a fixed set of legs (one-call stepping check, untraced
 *              reference, traced leg, LLC record/replay, exact twin
 *              for the approximate LLC); prints the per-layer metrics
 *              and writes the spans as Chrome trace JSON.
 *
 * The last line of stdout is one JSON object that run.py parses.
 *
 *   iatbench --workload=agg-exact --world-seed=1 --seconds=10
 *            --trace=0 --out=<dir>
 */

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "cache/shadow.hh"
#include "check/approx.hh"
#include "cluster/world.hh"
#include "core/policy.hh"
#include "net/traffic.hh"
#include "obs/stream/jsonl.hh"
#include "obs/stream/publisher.hh"
#include "obs/telemetry.hh"
#include "scenarios/agg_testpmd.hh"
#include "scenarios/corun.hh"
#include "sim/engine.hh"
#include "sim/platform.hh"
#include "sim/telemetry.hh"
#include "util/cli.hh"
#include "util/proc.hh"

namespace {

using namespace iat;
using Clock = std::chrono::steady_clock;

double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/// @name Workloads
/// @{

enum class Kind { Agg, Corun, Cluster };

/**
 * One benchmark workload. Window lengths are simulated seconds and
 * multiples of the 500 us cluster epoch, so single-host quanta group
 * into epoch-sized spans of simulated time too.
 */
struct Workload
{
    const char *name;
    Kind kind;
    unsigned llc_approx;  ///< 1 = exact LLC
    bool telemetry;       ///< counters, sampler, JSONL stream on
    double warmup_s;      ///< untimed, per leg
    double window_s;      ///< timed, per leg
    unsigned world_seeds; ///< world seeds a run cycles its legs through
};

const Workload kWorkloads[] = {
    {"agg-exact", Kind::Agg, 1, false, 0.01, 0.2, 1},
    {"agg-approx16-telemetry", Kind::Agg, 16, true, 0.01, 0.3, 1},
    {"corun-redis", Kind::Corun, 1, false, 0.01, 0.03, 1},
    // The world seed decides which hosts the LoadAware scheduler fills
    // during warmup, and with 2 workers (shard i on worker i % 2) that
    // decides whether the epoch barrier is balanced: about 25% of
    // epoch time between seeds. A run therefore cycles its legs
    // through 8 world seeds, so its figures describe the workload
    // rather than one placement.
    {"cluster-4x2", Kind::Cluster, 1, false, 0.005, 0.02, 8},
};

/** World seed of the @p k-th seed slot of a run with seed @p seed. */
std::uint64_t
worldSeed(const Workload &w, std::uint64_t seed, unsigned k)
{
    return w.world_seeds == 1 ? seed : seed * w.world_seeds + k;
}

constexpr double kPolicyInterval = 5e-3;  ///< IAT tick, paper default
constexpr double kSampleInterval = 1e-3;  ///< platform sampler
constexpr unsigned kQuantaPerEpoch = 10;  ///< 500 us epoch / 50 us quantum
constexpr unsigned kClusterShards = 4;
constexpr unsigned kClusterThreads = 2;
constexpr std::size_t kRecordCapOps = std::size_t{4} << 20; // 64 MiB
constexpr std::uint64_t kMixOps = 1u << 20;
/// @}

/// @name Spans
/// @{

/** In-memory span log; written once at the end as Chrome JSON. */
class SpanLog
{
  public:
    void enable(bool on) { on_ = on; }
    void setLeg(std::uint32_t leg) { leg_ = leg; }

    /** Open a span under the innermost open one; -1 when off. */
    std::int32_t
    open(const char *name)
    {
        if (!on_)
            return -1;
        spans_.push_back({name, nowNs(), 0, current_, leg_});
        current_ = static_cast<std::int32_t>(spans_.size() - 1);
        return current_;
    }

    void
    close(std::int32_t id)
    {
        if (id < 0)
            return;
        spans_[id].end = nowNs();
        current_ = spans_[id].parent;
    }

    /** Durations (us) of every span called @p name. */
    std::vector<double>
    durationsUs(std::string_view name) const
    {
        std::vector<double> out;
        for (const auto &s : spans_)
            if (name == s.name)
                out.push_back((s.end - s.start) * 1e-3);
        return out;
    }

    /** Self times (us): each span minus what its children cover. */
    std::vector<double>
    selfUs(std::string_view name) const
    {
        std::vector<std::int64_t> child(spans_.size(), 0);
        for (const auto &s : spans_)
            if (s.parent >= 0)
                child[s.parent] += s.end - s.start;
        std::vector<double> out;
        for (std::size_t i = 0; i < spans_.size(); ++i)
            if (name == spans_[i].name)
                out.push_back(
                    (spans_[i].end - spans_[i].start - child[i]) * 1e-3);
        return out;
    }

    bool
    writeChrome(const std::string &path,
                const std::string &workload) const
    {
        std::ofstream os(path);
        if (!os)
            return false;
        os << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const auto &s = spans_[i];
            char buf[384];
            std::snprintf(buf, sizeof(buf),
                          "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                          "\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,"
                          "\"args\":{\"id\":%zu,\"parent\":%d,"
                          "\"workload\":\"%s\",\"leg\":%u}}",
                          i ? ",\n" : "\n", s.name, s.leg,
                          (s.start - origin_) * 1e-3,
                          (s.end - s.start) * 1e-3, i, s.parent,
                          workload.c_str(), s.leg);
            os << buf;
        }
        os << "\n]}\n";
        return static_cast<bool>(os);
    }

  private:
    struct Span
    {
        const char *name;
        std::int64_t start;
        std::int64_t end;
        std::int32_t parent;
        std::uint32_t leg;
    };

    static std::int64_t
    nowNs()
    {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   Clock::now().time_since_epoch())
            .count();
    }

    bool on_ = false;
    std::uint32_t leg_ = 0;
    std::int32_t current_ = -1;
    std::int64_t origin_ = nowNs();
    std::vector<Span> spans_;
};
/// @}

/// @name LLC record / replay
/// @{

/**
 * Records every operation a SlicedLlc applies, with its verdict, in
 * 16 B per op, up to a fixed cap (later ops are not recorded, so the
 * stream stays a replayable prefix).
 */
class LlcRecorder final : public cache::LlcShadow
{
  public:
    enum Op : std::uint8_t
    {
        SetClos, AssocClos, AssocRmid, SetDdio, SetDevDdio,
        ClearDevDdio, DdioEnabled, CoreOp, DdioWrite, DevRead,
        Invalidate, FlushAll,
    };
    /// Verdict and type flags.
    static constexpr std::uint8_t kWrite = 1, kWriteback = 2, kHit = 4,
                                  kVictimWb = 8, kAllocated = 16;

    struct Rec
    {
        std::uint64_t addr;
        std::uint32_t aux; ///< mask bits, CLOS or RMID
        std::uint16_t id;  ///< core or device
        std::uint8_t op;
        std::uint8_t flags;
    };
    static_assert(sizeof(Rec) == 16, "16 B per recorded op");

    explicit LlcRecorder(std::size_t cap) : cap_(cap) {}

    const std::vector<Rec> &ops() const { return ops_; }
    bool truncated() const { return truncated_; }

    void onSetClosMask(cache::ClosId clos, cache::WayMask m) override
    {
        push({0, m.bits(), clos, SetClos, 0});
    }
    void onAssocCoreClos(cache::CoreId core, cache::ClosId clos) override
    {
        push({0, clos, core, AssocClos, 0});
    }
    void onAssocCoreRmid(cache::CoreId core, cache::RmidId rmid) override
    {
        push({0, rmid, core, AssocRmid, 0});
    }
    void onSetDdioMask(cache::WayMask m) override
    {
        push({0, m.bits(), 0, SetDdio, 0});
    }
    void onSetDeviceDdioMask(cache::DeviceId dev,
                             cache::WayMask m) override
    {
        push({0, m.bits(), dev, SetDevDdio, 0});
    }
    void onClearDeviceDdioMask(cache::DeviceId dev) override
    {
        push({0, 0, dev, ClearDevDdio, 0});
    }
    void onSetDdioEnabled(bool enabled) override
    {
        push({0, 0, 0, DdioEnabled,
              static_cast<std::uint8_t>(enabled ? 1 : 0)});
    }
    void
    onCoreOp(cache::CoreId core, cache::Addr addr,
             cache::AccessType type, bool writeback, bool hit,
             bool victim_writeback) override
    {
        push({addr, 0, core, CoreOp,
              static_cast<std::uint8_t>(
                  (type == cache::AccessType::Write ? kWrite : 0) |
                  (writeback ? kWriteback : 0) | (hit ? kHit : 0) |
                  (victim_writeback ? kVictimWb : 0))});
    }
    void onDdioWrite(cache::Addr addr, cache::DeviceId dev,
                     const cache::AccessResult &r) override
    {
        push({addr, 0, dev, DdioWrite, verdict(r)});
    }
    void onDeviceRead(cache::Addr addr, cache::DeviceId dev,
                      const cache::AccessResult &r) override
    {
        push({addr, 0, dev, DevRead, verdict(r)});
    }
    void onInvalidate(cache::Addr addr) override
    {
        push({addr, 0, 0, Invalidate, 0});
    }
    void onFlushAll() override { push({0, 0, 0, FlushAll, 0}); }

    static std::uint8_t
    verdict(const cache::AccessResult &r)
    {
        return static_cast<std::uint8_t>((r.hit ? kHit : 0) |
                                          (r.writeback ? kVictimWb : 0) |
                                          (r.allocated ? kAllocated : 0));
    }

  private:
    void
    push(const Rec &rec)
    {
        if (ops_.size() >= cap_) {
            truncated_ = true;
            return;
        }
        if (!truncated_)
            ops_.push_back(rec);
    }

    std::size_t cap_;
    bool truncated_ = false;
    std::vector<Rec> ops_;
};

struct ReplayResult
{
    std::uint64_t ops = 0;
    std::uint64_t mismatches = 0;
    double wall_s = 0.0;
};

/**
 * Replay @p ops into a fresh Platform's SlicedLlc through its public
 * entry points; every verdict that differs from the recording is a
 * mismatch. Only the op loop is timed.
 */
ReplayResult
replayLlc(const std::vector<LlcRecorder::Rec> &ops,
          const sim::PlatformConfig &pc)
{
    using R = LlcRecorder;
    sim::Platform fresh(pc);
    cache::SlicedLlc &llc = fresh.llc();
    ReplayResult res;
    res.ops = ops.size();
    const auto t0 = Clock::now();
    for (const R::Rec &r : ops) {
        switch (r.op) {
          case R::SetClos:
            llc.setClosMask(r.id, cache::WayMask{r.aux});
            break;
          case R::AssocClos:
            llc.assocCoreClos(r.id, static_cast<cache::ClosId>(r.aux));
            break;
          case R::AssocRmid:
            llc.assocCoreRmid(r.id, static_cast<cache::RmidId>(r.aux));
            break;
          case R::SetDdio:
            llc.setDdioMask(cache::WayMask{r.aux});
            break;
          case R::SetDevDdio:
            llc.setDeviceDdioMask(r.id, cache::WayMask{r.aux});
            break;
          case R::ClearDevDdio:
            llc.clearDeviceDdioMask(r.id);
            break;
          case R::DdioEnabled:
            llc.setDdioEnabled(r.flags != 0);
            break;
          case R::CoreOp: {
            cache::AccessResult got;
            if (r.flags & R::kWriteback)
                got = llc.writebackFromCore(r.id, r.addr);
            else
                got = llc.coreAccess(r.id, r.addr,
                                     (r.flags & R::kWrite)
                                         ? cache::AccessType::Write
                                         : cache::AccessType::Read);
            const bool hit = (r.flags & R::kHit) != 0;
            const bool wb = (r.flags & R::kVictimWb) != 0;
            res.mismatches += (got.hit != hit || got.writeback != wb);
            break;
          }
          case R::DdioWrite:
            res.mismatches +=
                R::verdict(llc.ddioWrite(r.addr, r.id)) != r.flags;
            break;
          case R::DevRead:
            res.mismatches +=
                R::verdict(llc.deviceRead(r.addr, r.id)) != r.flags;
            break;
          case R::Invalidate:
            llc.invalidate(r.addr);
            break;
          case R::FlushAll:
            llc.flushAll();
            break;
        }
    }
    res.wall_s = secondsBetween(t0, Clock::now());
    return res;
}
/// @}

/// @name Single-host assembly
/// @{

struct HostOptions
{
    unsigned llc_approx = 1;
    bool telemetry = false;       ///< the workload's telemetry stack
    bool pipeline_counters = false; ///< registry-only net counters
    LlcRecorder *recorder = nullptr;
    std::string stream_path;      ///< JSONL sink when telemetry
};

/** Platform, engine, world, policy and (optionally) telemetry. */
struct Host
{
    std::unique_ptr<sim::Platform> platform;
    std::unique_ptr<sim::Engine> engine;
    std::unique_ptr<obs::stream::StreamDispatcher> dispatcher;
    std::unique_ptr<obs::Telemetry> telemetry;
    std::unique_ptr<scenarios::AggTestPmdWorld> agg;
    std::unique_ptr<scenarios::CorunWorld> corun;
    std::unique_ptr<core::Policy> policy;
    std::unique_ptr<sim::PlatformTelemetry> gauges;
    LlcRecorder *recorder = nullptr;

    ~Host()
    {
        if (recorder)
            platform->llc().setShadow(nullptr);
    }

    net::PacketPipeline &
    pipeline()
    {
        return agg ? *agg->pipeline() : *corun->pipeline();
    }
    core::TenantRegistry &
    registry()
    {
        return agg ? agg->registry() : corun->registry();
    }
};

std::unique_ptr<Host>
buildHost(const Workload &w, std::uint64_t seed, const HostOptions &opt,
          SpanLog &spans)
{
    auto h = std::make_unique<Host>();
    sim::PlatformConfig pc;
    pc.num_cores = 8;
    pc.llc_approx = opt.llc_approx;
    h->platform = std::make_unique<sim::Platform>(pc);
    if (opt.recorder) {
        h->recorder = opt.recorder;
        h->platform->llc().setShadow(opt.recorder);
    }
    h->engine = std::make_unique<sim::Engine>(*h->platform);
    obs::Telemetry *tel = nullptr;
    if (opt.telemetry || opt.pipeline_counters) {
        h->telemetry = std::make_unique<obs::Telemetry>();
        tel = h->telemetry.get();
    }
    if (opt.telemetry) {
        h->dispatcher = std::make_unique<obs::stream::StreamDispatcher>();
        h->dispatcher->adopt(
            std::make_unique<obs::stream::JsonlFileExporter>(
                opt.stream_path));
        tel->sampler().setStream(h->dispatcher.get());
        h->engine->attachTelemetry(tel);
    }

    if (w.kind == Kind::Agg) {
        scenarios::AggTestPmdConfig cfg;
        cfg.seed = seed;
        h->agg = std::make_unique<scenarios::AggTestPmdWorld>(
            *h->platform, cfg);
        h->agg->attach(*h->engine);
    } else {
        scenarios::CorunConfig cfg;
        cfg.seed = seed;
        h->corun = std::make_unique<scenarios::CorunWorld>(
            *h->platform, cfg);
        h->corun->attach(*h->engine);
    }
    if (tel)
        h->pipeline().setTelemetry(tel);

    core::IatParams params;
    params.interval_seconds = kPolicyInterval;
    h->policy = core::makePolicy(core::PolicyKind::Iat,
                                 h->platform->pqos(), h->registry(),
                                 params, core::TenantModel::Aggregation,
                                 opt.telemetry ? tel : nullptr);
    Host *raw = h.get();
    h->engine->addPeriodic(
        kPolicyInterval,
        [raw, &spans](double now) {
            const auto s = spans.open("core.tick");
            raw->policy->tick(now);
            spans.close(s);
        },
        0.0);

    // The platform sampler goes in last so its first sample sees
    // every registered metric.
    if (opt.telemetry) {
        h->gauges = std::make_unique<sim::PlatformTelemetry>(
            *h->platform, tel->metrics());
        h->engine->addPeriodic(kSampleInterval,
                               [raw, &spans](double now) {
                                   const auto s =
                                       spans.open("obs.sample");
                                   raw->gauges->update();
                                   raw->telemetry->sampler().sample(now);
                                   spans.close(s);
                               });
    }
    return h;
}

std::uint64_t
stagePackets(net::PacketPipeline &p)
{
    std::uint64_t n = 0;
    for (const auto &st : p.stages())
        n += st->packetsProcessed();
    return n;
}

/** Line-rate NIC conservation: what was offered must match the
 *  configured rate within a burst-count tolerance, and tx <= rx. */
std::string
checkNic(const net::NicQueue &nic, double rate_pps, double elapsed_s)
{
    const auto &rx = nic.rxStats();
    const double offered =
        static_cast<double>(rx.rx_packets + rx.totalDrops());
    const double expect = rate_pps * elapsed_s;
    const double tol = 0.01 + 6.0 / std::sqrt(expect / 32.0 + 1.0);
    if (std::abs(offered - expect) > tol * expect)
        return nic.name() + ": offered " + std::to_string(offered) +
               " vs rate*t " + std::to_string(expect);
    if (nic.txStats().tx_packets > rx.rx_packets)
        return nic.name() + ": tx exceeds rx";
    if (rx.rx_packets == 0)
        return nic.name() + ": nothing delivered";
    return {};
}

/** Checks that need no committed digest (any seed). */
std::string
hostInvariants(Host &h)
{
    const double t = h.platform->now();
    if (h.agg) {
        const double rate = net::lineRatePps40G(h.agg->config().frame_bytes);
        for (unsigned i = 0; i < h.agg->nicCount(); ++i)
            if (auto e = checkNic(h.agg->nic(i), rate, t); !e.empty())
                return e;
    } else {
        if (h.corun->redisResponses() == 0)
            return "corun: no Redis responses";
        if (h.corun->pcAppProgress() == 0)
            return "corun: PC tenant made no progress";
    }
    for (const auto &st : h.pipeline().stages())
        if (st->packetsProcessed() == 0)
            return "stage " + st->name() + " processed nothing";
    return {};
}

/**
 * Simulated-output digest of a single-host world: NIC (or, for
 * corun, whose NICs are private, per-device DMA) counters, stages,
 * per-core instructions and cycles, LLC slice/device/core counters,
 * writebacks, DRAM bytes, final CAT and DDIO masks and MSR traffic.
 */
std::string
hostDigest(Host &h)
{
    std::ostringstream os;
    sim::Platform &p = *h.platform;
    const cache::SlicedLlc &llc = p.llc();
    char t[32];
    std::snprintf(t, sizeof(t), "%a", p.now());
    os << "t=" << t;
    if (h.agg) {
        for (unsigned i = 0; i < h.agg->nicCount(); ++i) {
            const auto &n = h.agg->nic(i);
            os << " nic" << i << "=" << n.rxStats().rx_packets << '/'
               << n.rxStats().drops_ring_full << '/'
               << n.rxStats().drops_no_buffer << '/'
               << n.txStats().tx_packets;
        }
    } else {
        os << " redis=" << h.corun->redisResponses()
           << " pc=" << h.corun->pcAppProgress();
    }
    for (const auto &st : h.pipeline().stages())
        os << ' ' << st->name() << '=' << st->packetsProcessed();
    for (unsigned c = 0; c < p.config().num_cores; ++c) {
        const auto cc = static_cast<cache::CoreId>(c);
        os << " core" << c << '=' << p.instructionsRetired(cc) << '/'
           << p.cyclesElapsed(cc) << '/' << llc.coreCounters(cc).llc_refs
           << '/' << llc.coreCounters(cc).llc_misses << "/clos"
           << llc.coreClos(cc);
    }
    for (unsigned s = 0; s < llc.geometry().num_slices; ++s) {
        const auto &sc = llc.sliceCounters(s);
        os << " s" << s << '=' << sc.ddio_hits << '/' << sc.ddio_misses
           << '/' << sc.lookups;
    }
    for (unsigned d = 0; d < 2; ++d) {
        const auto &dc = llc.deviceCounters(static_cast<cache::DeviceId>(d));
        os << " dev" << d << '=' << dc.ddio_hits << '/' << dc.ddio_misses
           << '/' << dc.lookups;
    }
    os << " wb=" << llc.totalWritebacks()
       << " dram=" << p.dram().counters().totalReadBytes() << '/'
       << p.dram().counters().totalWriteBytes();
    os << " cat=";
    for (unsigned c = 0; c < cache::SlicedLlc::numClos; ++c)
        os << std::hex << llc.closMask(static_cast<cache::ClosId>(c)).bits()
           << std::dec << (c + 1 < cache::SlicedLlc::numClos ? "," : "");
    os << " ddio=" << std::hex << llc.ddioMask().bits() << std::dec
       << " msr=" << p.msrBus().writeCount() << '/'
       << p.msrBus().readCount() << '/' << p.msrBus().rejectedWriteCount();
    return os.str();
}
/// @}

/// @name Cluster assembly
/// @{

cluster::ClusterConfig
clusterConfig(std::uint64_t seed, unsigned threads)
{
    cluster::ClusterConfig cfg;
    cfg.shards = kClusterShards;
    cfg.batch_tenants = kClusterShards;
    cfg.threads = threads;
    cfg.scheduler.policy = cluster::PlacePolicy::LoadAware;
    cfg.shard.remote_rate_pps = 0.5e6;
    cfg.shard.seed = seed;
    return cfg;
}

std::uint64_t
clusterPackets(cluster::ClusterWorld &world)
{
    std::uint64_t n = 0;
    for (unsigned s = 0; s < world.shardCount(); ++s)
        n += stagePackets(*world.shard(s).world().pipeline());
    return n;
}

std::string
clusterInvariants(cluster::ClusterWorld &world)
{
    for (unsigned s = 0; s < world.shardCount(); ++s) {
        auto &sh = world.shard(s);
        auto &w = sh.world();
        for (unsigned i = 0; i < w.nicCount(); ++i)
            if (auto e = checkNic(w.nic(i), sh.config().rate_pps,
                                  sh.platform().now());
                !e.empty())
                return "shard " + std::to_string(s) + " " + e;
    }
    auto &f = world.fabric();
    if (f.framesDelivered() + f.framesDropped() > f.framesRouted())
        return "fabric delivered+dropped exceeds routed";
    if (f.framesRouted() == 0)
        return "fabric routed nothing";
    return {};
}
/// @}

/// @name Legs
/// @{

struct Leg
{
    double setup_s = 0.0;
    double window_wall_s = 0.0;
    double window_sim_s = 0.0;
    std::uint64_t packets = 0;   ///< stage packet events in the window
    std::vector<double> step_us; ///< one per timed run() call
    std::uint64_t world_seed = 0;
    std::string digest;
    std::string invariant_error;

    double simRate() const { return window_sim_s / window_wall_s; }
    double pktRate() const { return packets / window_wall_s; }
};

/**
 * Step @p w's window on @p h one quantum at a time (or, with
 * @p one_call, as a single Engine::run: the stepping check).
 */
void
runHostWindow(Host &h, const Workload &w, Leg &leg, SpanLog &spans,
              bool one_call = false)
{
    sim::Engine &engine = *h.engine;
    const double q = h.platform->config().quantum_seconds;
    const auto quanta = static_cast<std::uint64_t>(
        std::llround(w.window_s / q));
    engine.run(w.warmup_s);
    const std::uint64_t pk0 = stagePackets(h.pipeline());
    const double sim0 = h.platform->now();
    leg.step_us.reserve(quanta);
    const auto t0 = Clock::now();
    if (one_call) {
        engine.run(static_cast<double>(quanta) * q);
    } else {
        for (std::uint64_t i = 0; i < quanta; ++i) {
            const auto s = spans.open("sim.quantum");
            const auto a = Clock::now();
            engine.run(q);
            const auto b = Clock::now();
            spans.close(s);
            leg.step_us.push_back(secondsBetween(a, b) * 1e6);
        }
    }
    leg.window_wall_s = secondsBetween(t0, Clock::now());
    leg.window_sim_s = h.platform->now() - sim0;
    leg.packets = stagePackets(h.pipeline()) - pk0;
    leg.digest = hostDigest(h);
    leg.invariant_error = hostInvariants(h);
}

void
runClusterWindow(cluster::ClusterWorld &world, const Workload &w,
                 Leg &leg, SpanLog &spans, bool one_call = false)
{
    const double e = world.config().epoch_seconds;
    const auto epochs = static_cast<std::uint64_t>(
        std::llround(w.window_s / e));
    world.run(w.warmup_s);
    const std::uint64_t pk0 = clusterPackets(world);
    const double sim0 = world.now();
    const auto t0 = Clock::now();
    if (one_call) {
        world.run(static_cast<double>(epochs) * e);
    } else {
        for (std::uint64_t i = 0; i < epochs; ++i) {
            const auto s = spans.open("cluster.epoch");
            const auto a = Clock::now();
            world.run(e);
            const auto b = Clock::now();
            spans.close(s);
            leg.step_us.push_back(secondsBetween(a, b) * 1e6);
        }
    }
    leg.window_wall_s = secondsBetween(t0, Clock::now());
    leg.window_sim_s = world.now() - sim0;
    leg.packets = clusterPackets(world) - pk0;
    leg.digest = world.digest();
    leg.invariant_error = clusterInvariants(world);
}
/// @}

/// @name Statistics and output
/// @{

/** Linear-interpolated quantile, @p q in [0, 1]; 0 when empty. */
double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double
sum(const std::vector<double> &v)
{
    double s = 0.0;
    for (double x : v)
        s += x;
    return s;
}

std::uint64_t
fnv1a(const std::string &s)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (unsigned char c : s) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

std::string
hexDigest(const std::string &text)
{
    char buf[20];
    std::snprintf(buf, sizeof(buf), "%016" PRIx64, fnv1a(text));
    return buf;
}

double
peakRssMib()
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0;
    return 0.0;
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (c == '\n') {
            out += "\\n";
            continue;
        }
        out += c;
    }
    return out;
}

struct Metric
{
    std::string name;
    double value;
    std::string unit;
    std::size_t samples;
};

/** Result of one run: metrics, legs checked, extra checks. */
struct Report
{
    std::vector<Metric> metrics;
    std::vector<Leg> legs;
    std::uint64_t checks = 0;              ///< non-leg checks run
    std::vector<std::string> check_errors; ///< non-leg checks failed
    std::uint64_t ops_checked = 0;         ///< replayed LLC ops
    std::uint64_t ops_failed = 0;          ///< replay mismatches

    void
    add(std::string name, double value, std::string unit,
        std::size_t samples = 1)
    {
        metrics.push_back({std::move(name), value, std::move(unit),
                           samples});
    }
};

void
printReport(const Workload &w, const Report &r)
{
    for (const auto &m : r.metrics)
        std::printf("%-32s %16.6g %-8s (n=%zu)\n", m.name.c_str(),
                    m.value, m.unit.c_str(), m.samples);
    std::string out = "{\"workload\":\"";
    out += w.name;
    out += "\",\"legs\":[";
    for (std::size_t i = 0; i < r.legs.size(); ++i) {
        const Leg &leg = r.legs[i];
        out += i ? "," : "";
        out += "{\"world_seed\":" + std::to_string(leg.world_seed) +
               ",\"digest\":\"" + hexDigest(leg.digest) +
               "\",\"invariant_error\":\"" +
               jsonEscape(leg.invariant_error) + "\"}";
    }
    out += "],\"check_errors\":[";
    for (std::size_t i = 0; i < r.check_errors.size(); ++i)
        out += (i ? ",\"" : "\"") + jsonEscape(r.check_errors[i]) + "\"";
    char buf[128];
    std::snprintf(buf, sizeof(buf),
                  "],\"checks\":%" PRIu64 ",\"ops_checked\":%" PRIu64
                  ",\"ops_failed\":%" PRIu64 ",\"metrics\":{",
                  r.checks, r.ops_checked, r.ops_failed);
    out += buf;
    for (std::size_t i = 0; i < r.metrics.size(); ++i) {
        const Metric &m = r.metrics[i];
        char v[64];
        std::snprintf(v, sizeof(v), "%.17g", m.value);
        out += (i ? ",\"" : "\"") + m.name + "\":{\"value\":" + v +
               ",\"unit\":\"" + m.unit +
               "\",\"samples\":" + std::to_string(m.samples) + "}";
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
}
/// @}

/// @name Runs
/// @{

struct RunContext
{
    const Workload &w;
    std::uint64_t seed;       ///< the run's seed (names output files)
    std::string out_dir;
    SpanLog spans;
    unsigned leg_no = 0;
    std::uint64_t world_seed; ///< the next leg's world seed
};

std::string
streamPath(RunContext &ctx)
{
    return ctx.out_dir + "/stream-" + ctx.w.name + ".jsonl";
}

/** Flush and measure the telemetry workload's stream; returns bytes. */
double
flushStream(Host &h, double &flush_ms, const std::string &path)
{
    const auto t0 = Clock::now();
    h.dispatcher->flushAll();
    flush_ms = secondsBetween(t0, Clock::now()) * 1e3;
    std::error_code ec;
    const auto bytes = std::filesystem::file_size(path, ec);
    return ec ? 0.0 : static_cast<double>(bytes);
}

/**
 * One ordinary leg: build (timed), warm up, step the window. The
 * host is handed to @p inspect before it is torn down.
 */
template <typename Inspect>
Leg
runLeg(RunContext &ctx, HostOptions opt, Inspect &&inspect,
       bool one_call = false)
{
    const Workload &w = ctx.w;
    ctx.spans.setLeg(ctx.leg_no++);
    const auto root = ctx.spans.open("leg");
    Leg leg;
    leg.world_seed = ctx.world_seed;
    if (w.kind == Kind::Cluster) {
        const auto s = ctx.spans.open("scenarios.build");
        const auto t0 = Clock::now();
        cluster::ClusterWorld world(
            clusterConfig(ctx.world_seed, kClusterThreads));
        leg.setup_s = secondsBetween(t0, Clock::now());
        ctx.spans.close(s);
        runClusterWindow(world, w, leg, ctx.spans, one_call);
        inspect(world, leg);
    } else {
        if (w.telemetry)
            std::filesystem::remove(streamPath(ctx));
        opt.stream_path = streamPath(ctx);
        const auto s = ctx.spans.open("scenarios.build");
        const auto t0 = Clock::now();
        auto h = buildHost(w, ctx.world_seed, opt, ctx.spans);
        leg.setup_s = secondsBetween(t0, Clock::now());
        ctx.spans.close(s);
        runHostWindow(*h, w, leg, ctx.spans, one_call);
        inspect(*h, leg);
    }
    ctx.spans.close(root);
    return leg;
}

HostOptions
workloadOptions(const Workload &w)
{
    HostOptions opt;
    opt.llc_approx = w.llc_approx;
    opt.telemetry = w.telemetry;
    return opt;
}

/**
 * Host-speed reference: random read-modify-writes over a fixed 32 MiB
 * buffer, timed for 100 ms. On a shared VM the memory-bound speed of
 * the whole host drifts with the neighbours' load: over eight 20 s
 * runs of agg-exact the run medians of raw sim-s/s spread 23%
 * (quartile distance / median) and this loop's rate 22%, while their
 * ratio spread 3%. measureRun() therefore times the loop before and
 * after every leg and scales the leg's host times to a host on which
 * the loop runs at kNominalRate. Set-up time is reported raw: it is
 * allocation-bound, and scaling it doubled its spread.
 */
class HostReference
{
  public:
    static constexpr double kNominalRate = 100.0; ///< M updates/s
    static constexpr std::size_t kWords = std::size_t{1} << 22;

    HostReference()
    {
        const auto rss0 = currentRssBytes();
        buf_.assign(kWords, 1);
        resident_mib_ =
            static_cast<double>(currentRssBytes() - rss0) / (1 << 20);
    }

    /** Updates per second over one timed window, in millions. */
    double
    rate()
    {
        std::uint64_t n = 0;
        const auto t0 = Clock::now();
        double elapsed = 0.0;
        while (elapsed < 0.1) {
            for (int i = 0; i < 4096; ++i) {
                x_ ^= x_ << 13;
                x_ ^= x_ >> 7;
                x_ ^= x_ << 17;
                buf_[x_ & (kWords - 1)] += x_;
            }
            n += 4096;
            elapsed = secondsBetween(t0, Clock::now());
        }
        return static_cast<double>(n) / elapsed * 1e-6;
    }

    /** Resident memory the buffer adds to the process. */
    double residentMib() const { return resident_mib_; }

  private:
    std::vector<std::uint64_t> buf_;
    std::uint64_t x_ = 0x9e3779b97f4a7c15ull;
    double resident_mib_ = 0.0;
};

/**
 * Untraced run: legs until @p seconds of host time have passed, each
 * bracketed by the host reference. Reported rates and step times are
 * scaled by (reference rate / nominal rate) of their own leg; the raw
 * per-leg figures are printed beside them.
 */
Report
measureRun(RunContext &ctx, double seconds)
{
    const Workload &w = ctx.w;
    Report r;
    HostReference ref;
    std::vector<double> flush_ms, host_ref, scale;
    auto inspect = [&](auto &target, Leg &) {
        if constexpr (std::is_same_v<std::decay_t<decltype(target)>,
                                     Host>) {
            if (w.telemetry) {
                double ms = 0.0;
                flushStream(target, ms, streamPath(ctx));
                flush_ms.push_back(ms);
            }
        }
    };
    // Peak memory is read after the first leg: later legs rebuild the
    // same world, and the run's own per-leg timings and heap
    // fragmentation would otherwise make it grow with the leg count,
    // that is with host speed.
    double peak_mib = 0.0;
    const auto start = Clock::now();
    while (r.legs.size() < 2 * w.world_seeds ||
           (secondsBetween(start, Clock::now()) < seconds &&
            r.legs.size() < 10000)) {
        ctx.world_seed = worldSeed(w, ctx.seed,
                                   static_cast<unsigned>(r.legs.size()) %
                                       w.world_seeds);
        const double before = ref.rate();
        r.legs.push_back(runLeg(ctx, workloadOptions(w), inspect));
        if (r.legs.size() == 1)
            peak_mib = peakRssMib() - ref.residentMib();
        const double after = ref.rate();
        host_ref.push_back(0.5 * (before + after));
        scale.push_back(host_ref.back() / HostReference::kNominalRate);
    }
    if (w.telemetry)
        std::filesystem::remove(streamPath(ctx));

    // Quanta and epochs are both spans of simulated time (50 us and
    // 500 us). Single-host quanta are timed one by one and summed
    // into epochs; cluster epochs are timed one by one and divided
    // evenly over their quanta.
    // Per leg: the rates, and the medians of its quanta and epochs.
    // Tails are taken over the timed calls of all legs pooled, which
    // leaves at least ten samples beyond them.
    std::vector<double> sim_rate, pkt_rate, quantum_p50, epoch_p50;
    std::vector<double> quantum_us, epoch_ms, raw_rate, setup;
    for (std::size_t l = 0; l < r.legs.size(); ++l) {
        const Leg &leg = r.legs[l];
        const double k = scale[l];
        raw_rate.push_back(leg.simRate());
        setup.push_back(leg.setup_s);
        sim_rate.push_back(leg.simRate() / k);
        pkt_rate.push_back(leg.pktRate() / k);
        std::vector<double> quanta, epochs;
        if (w.kind == Kind::Cluster) {
            for (double e : leg.step_us) {
                epochs.push_back(e * k * 1e-3);
                quanta.push_back(e * k / kQuantaPerEpoch);
            }
        } else {
            double group = 0.0;
            for (std::size_t i = 0; i < leg.step_us.size(); ++i) {
                quanta.push_back(leg.step_us[i] * k);
                group += leg.step_us[i];
                if (i % kQuantaPerEpoch == kQuantaPerEpoch - 1) {
                    epochs.push_back(group * k * 1e-3);
                    group = 0.0;
                }
            }
        }
        quantum_p50.push_back(quantile(quanta, 0.5));
        epoch_p50.push_back(quantile(epochs, 0.5));
        quantum_us.insert(quantum_us.end(), quanta.begin(), quanta.end());
        epoch_ms.insert(epoch_ms.end(), epochs.begin(), epochs.end());
    }
    std::printf("# per leg, raw sim-s/s @ host reference / setup ms:");
    for (std::size_t l = 0; l < raw_rate.size(); ++l)
        std::printf(" %.4g@%.0f/%.3g", raw_rate[l], host_ref[l],
                    setup[l] * 1e3);
    std::printf("\n");
    std::printf("# host reference: median %.2f M updates/s (nominal "
                "%.0f); raw median %.6g sim-s/s\n",
                quantile(host_ref, 0.5), HostReference::kNominalRate,
                quantile(raw_rate, 0.5));
    if (w.telemetry)
        std::printf("# stream flush: %.3f ms median over %zu legs\n",
                    quantile(flush_ms, 0.5), flush_ms.size());
    // Per-leg figures: the median over each world seed's legs,
    // averaged over the world seeds (a plain median when there is one).
    auto seedMean = [&](const std::vector<double> &v) {
        double total = 0.0;
        unsigned seeds = 0;
        for (unsigned k = 0; k < w.world_seeds && k < r.legs.size(); ++k) {
            std::vector<double> mine;
            for (std::size_t l = k; l < v.size(); l += w.world_seeds)
                mine.push_back(v[l]);
            total += quantile(mine, 0.5);
            ++seeds;
        }
        return total / seeds;
    };
    const std::size_t legs = r.legs.size();
    r.add("sim_s_per_wall_s", seedMean(sim_rate), "sim-s/s", legs);
    r.add("pkts_per_wall_s", seedMean(pkt_rate), "pkt/s", legs);
    r.add("quantum_us_p50", seedMean(quantum_p50), "us",
          quantum_us.size());
    r.add("quantum_us_p99", quantile(quantum_us, 0.99), "us",
          quantum_us.size());
    r.add("epoch_ms_p50", seedMean(epoch_p50), "ms", epoch_ms.size());
    r.add("epoch_ms_p95", quantile(epoch_ms, 0.95), "ms",
          epoch_ms.size());
    r.add("setup_s", quantile(setup, 0.5), "s", legs);
    r.add("peak_rss_mib", peak_mib, "MiB", 1);
    return r;
}

/** Counters of one single-host world, for the per-layer table. */
struct LayerCounts
{
    double llc_lookups = 0, demand_refs = 0, demand_misses = 0;
    double ddio_hits = 0, ddio_misses = 0, writebacks = 0;
    double rx = 0, drops_ring = 0, drops_buf = 0, offered = 0, tx = 0;
    double msr_reads = 0, msr_writes = 0, msr_rejected = 0;
    double dram_read = 0, dram_write = 0, ticks = 0;
    std::vector<std::pair<std::string, double>> stages;

    void
    addPlatform(sim::Platform &p)
    {
        const auto &llc = p.llc();
        for (unsigned s = 0; s < llc.geometry().num_slices; ++s) {
            llc_lookups += llc.sliceCounters(s).lookups;
            ddio_hits += llc.sliceCounters(s).ddio_hits;
            ddio_misses += llc.sliceCounters(s).ddio_misses;
        }
        for (unsigned c = 0; c < p.config().num_cores; ++c) {
            const auto &cc = llc.coreCounters(static_cast<cache::CoreId>(c));
            demand_refs += cc.llc_refs;
            demand_misses += cc.llc_misses;
        }
        writebacks += llc.totalWritebacks();
        auto &bus = p.msrBus();
        msr_reads += bus.readCount();
        msr_writes += bus.writeCount();
        msr_rejected += bus.rejectedWriteCount();
        dram_read += p.dram().counters().totalReadBytes();
        dram_write += p.dram().counters().totalWriteBytes();
    }
    void
    addNic(const net::NicQueue &n)
    {
        rx += n.rxStats().rx_packets;
        drops_ring += n.rxStats().drops_ring_full;
        drops_buf += n.rxStats().drops_no_buffer;
        offered += n.rxStats().rx_packets + n.rxStats().totalDrops();
        tx += n.txStats().tx_packets;
    }
    void
    addStages(net::PacketPipeline &p)
    {
        for (const auto &st : p.stages()) {
            auto it = std::find_if(stages.begin(), stages.end(),
                                   [&](const auto &e) {
                                       return e.first == st->name();
                                   });
            if (it == stages.end())
                stages.emplace_back(st->name(), st->packetsProcessed());
            else
                it->second += st->packetsProcessed();
        }
    }
};

/** Sum of one registry counter family across the pipeline sources. */
double
registryCounter(obs::Telemetry &tel, const std::string &suffix)
{
    double total = 0.0;
    tel.metrics().forEach([&](const std::string &name, obs::MetricKind,
                              const obs::Counter *c, const obs::Gauge *,
                              const obs::Histogram *) {
        if (c != nullptr && name.rfind("net.", 0) == 0 &&
            name.size() > suffix.size() &&
            name.compare(name.size() - suffix.size(), suffix.size(),
                         suffix) == 0)
            total += static_cast<double>(c->value());
    });
    return total;
}

/** Synthetic core/DMA mix through Platform; returns ns per op. */
double
platformNsPerOp(unsigned llc_approx, std::uint64_t seed)
{
    sim::PlatformConfig pc;
    pc.num_cores = 8;
    pc.llc_approx = llc_approx;
    sim::Platform platform(pc);
    std::uint64_t rng = 0x9e3779b97f4a7c15ull ^ (seed * 0xbf58476d1ce4e5b9ull);
    if (rng == 0)
        rng = 1;
    auto next = [&rng] {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        return rng;
    };
    constexpr std::uint64_t kFootprintLines = 1ull << 27; // 8 GiB
    auto runOps = [&](std::uint64_t n) {
        for (std::uint64_t i = 0; i < n; ++i) {
            const cache::Addr addr = (next() & (kFootprintLines - 1)) * 64;
            const auto core = static_cast<cache::CoreId>((i >> 3) & 7);
            const auto dev = static_cast<cache::DeviceId>(i & 1);
            switch (i & 7) {
              case 0: case 1: case 2: case 3:
                platform.coreAccess(core, addr, cache::AccessType::Read);
                break;
              case 4: case 5:
                platform.coreAccess(core, addr, cache::AccessType::Write);
                break;
              case 6:
                platform.dmaWrite(dev, addr, 64);
                break;
              default:
                platform.dmaRead(dev, addr, 64);
                break;
            }
        }
    };
    runOps(kMixOps / 8);
    const auto t0 = Clock::now();
    runOps(kMixOps);
    return secondsBetween(t0, Clock::now()) * 1e9 / kMixOps;
}

/** Traced run: fixed legs, per-layer metrics, Chrome trace. */
Report
traceRun(RunContext &ctx)
{
    const Workload &w = ctx.w;
    Report r;
    auto none = [](auto &, Leg &) {};

    // 1. One-call leg, run first so it also absorbs the process's
    // cold start: its time is not used.
    const Leg one = runLeg(ctx, workloadOptions(w), none, true);
    if (w.telemetry)
        std::filesystem::remove(streamPath(ctx));

    // 2. Untraced reference leg. The stepping check: one run() call
    // must reach the same digest as the per-quantum (per-epoch) calls
    // the timers wrap.
    r.legs.push_back(runLeg(ctx, workloadOptions(w), none));
    const double untraced_rate = r.legs.back().simRate();
    ++r.checks;
    if (one.digest != r.legs.back().digest)
        r.check_errors.push_back(
            "one-call run() digest differs from the stepped run");
    if (w.telemetry)
        std::filesystem::remove(streamPath(ctx));

    // 3. Traced leg: spans on; counts from here.
    LayerCounts lc;
    double flush_ms = 0.0, stream_bytes = 0.0;
    double approx_demand_err = 0.0, approx_ddio_err = 0.0,
           approx_tx_err = 0.0;
    double epochs = 0, migrations = 0, fabric_frames = 0,
           fabric_drops = 0, redis = 0, pc_instr = 0, quanta = 0;
    auto inspect = [&](auto &target, Leg &leg) {
        using T = std::decay_t<decltype(target)>;
        if constexpr (std::is_same_v<T, Host>) {
            Host &h = target;
            quanta = static_cast<double>(leg.step_us.size());
            lc.addPlatform(*h.platform);
            lc.addStages(h.pipeline());
            if (h.agg) {
                for (unsigned i = 0; i < h.agg->nicCount(); ++i)
                    lc.addNic(h.agg->nic(i));
            } else {
                // CorunWorld keeps its NICs private: read the rx and
                // drop counters the pipeline exports to a registry.
                lc.rx = registryCounter(*h.telemetry, ".rx_packets");
                const double drops =
                    registryCounter(*h.telemetry, ".rx_drops");
                lc.offered = lc.rx + drops;
                redis = static_cast<double>(h.corun->redisResponses());
                pc_instr = static_cast<double>(h.corun->pcAppProgress());
            }
            if (w.telemetry)
                stream_bytes = flushStream(h, flush_ms, streamPath(ctx));
            if (w.llc_approx > 1) {
                // Exact twin over the same window, for the error the
                // sampled model buys its speed with.
                HostOptions exact;
                SpanLog quiet;
                auto twin = buildHost(w, ctx.world_seed, exact, quiet);
                twin->engine->run(w.warmup_s + w.window_s);
                const auto err = check::measureApproxErrors(
                    twin->platform->llc(), h.platform->llc());
                approx_demand_err = err.demand_hit_rate_err;
                approx_ddio_err = err.ddio_hit_rate_err;
                const double tx_exact =
                    static_cast<double>(twin->agg->txPackets());
                approx_tx_err =
                    tx_exact > 0.0
                        ? std::abs(static_cast<double>(h.agg->txPackets()) -
                                   tx_exact) / tx_exact
                        : 0.0;
            }
        } else {
            cluster::ClusterWorld &world = target;
            epochs = static_cast<double>(leg.step_us.size());
            for (unsigned s = 0; s < world.shardCount(); ++s) {
                auto &sh = world.shard(s);
                lc.addPlatform(sh.platform());
                lc.addStages(*sh.world().pipeline());
                for (unsigned i = 0; i < sh.world().nicCount(); ++i)
                    lc.addNic(sh.world().nic(i));
                lc.ticks += static_cast<double>(sh.daemon().ticks());
            }
            // Migrations and fabric totals, from the public digest.
            const std::string d = world.digest();
            auto field = [&](const char *key) {
                const auto at = d.find(key);
                return at == std::string::npos
                           ? 0.0
                           : std::stod(d.substr(at + std::strlen(key)));
            };
            fabric_frames = field("fabric.routed=");
            fabric_drops = field("fabric.dropped=");
            const auto m = d.find(" migrations=");
            const std::string list =
                d.substr(m + 12, d.find('\n', m) - m - 12);
            migrations = list.empty()
                             ? 0.0
                             : 1.0 + static_cast<double>(std::count(
                                         list.begin(), list.end(), ','));
        }
    };
    HostOptions traced = workloadOptions(w);
    traced.pipeline_counters = w.kind == Kind::Corun;
    ctx.spans.enable(true);
    r.legs.push_back(runLeg(ctx, traced, inspect));
    ctx.spans.enable(false);
    const double traced_rate = r.legs.back().simRate();
    const double traced_wall = r.legs.back().window_wall_s;
    if (w.telemetry)
        std::filesystem::remove(streamPath(ctx));

    // 4. LLC record/replay (exact single-host workloads).
    double replay_ns = 0.0, replay_ops = 0.0, replay_mismatches = 0.0;
    if (w.kind != Kind::Cluster && w.llc_approx == 1) {
        LlcRecorder rec(kRecordCapOps);
        HostOptions opt = workloadOptions(w);
        opt.recorder = &rec;
        r.legs.push_back(runLeg(ctx, opt, none));
        sim::PlatformConfig pc;
        pc.num_cores = 8;
        const auto rep = replayLlc(rec.ops(), pc);
        replay_ops = static_cast<double>(rep.ops);
        replay_mismatches = static_cast<double>(rep.mismatches);
        replay_ns = rep.ops ? rep.wall_s * 1e9 / rep.ops : 0.0;
        r.ops_checked += rep.ops;
        r.ops_failed += rep.mismatches;
        if (rec.truncated())
            std::printf("# LLC recording truncated at %zu ops\n",
                        rec.ops().size());
    }


    const double plat_ns = platformNsPerOp(w.llc_approx, ctx.seed);

    // Per-layer table.
    const auto ticks_us = ctx.spans.durationsUs("core.tick");
    const auto sample_us = ctx.spans.durationsUs("obs.sample");
    std::vector<double> setups;
    for (const Leg &leg : r.legs)
        setups.push_back(leg.setup_s);
    setups.push_back(one.setup_s);
    if (w.kind != Kind::Cluster)
        lc.ticks = static_cast<double>(ticks_us.size());

    r.add("sim.quanta", w.kind == Kind::Cluster ? epochs * 10 : quanta,
          "count");
    const auto self = ctx.spans.selfUs("sim.quantum");
    r.add("sim.quantum_self_us_p50", quantile(self, 0.5), "us",
          self.size());
    r.add("cache.llc_ops", lc.llc_lookups, "count");
    r.add("cache.replay_ops", replay_ops, "count");
    r.add("cache.replay_mismatches", replay_mismatches, "count");
    r.add("cache.llc_replay_ns_per_op", replay_ns, "ns");
    r.add("cache.platform_ns_per_op", plat_ns, "ns", kMixOps);
    r.add("cache.llc_demand_hit_ratio",
          lc.demand_refs > 0 ? 1.0 - lc.demand_misses / lc.demand_refs : 0.0,
          "ratio");
    r.add("cache.ddio_hit_ratio",
          lc.ddio_hits + lc.ddio_misses > 0
              ? lc.ddio_hits / (lc.ddio_hits + lc.ddio_misses)
              : 0.0,
          "ratio");
    r.add("cache.writebacks", lc.writebacks, "count");
    r.add("cache.approx_demand_hit_err", approx_demand_err, "abs");
    r.add("cache.approx_ddio_hit_err", approx_ddio_err, "abs");
    r.add("cache.approx_tx_rel_err", approx_tx_err, "ratio");
    r.add("net.rx_delivered", lc.rx, "count");
    r.add("net.rx_drops_ring_full", lc.drops_ring, "count");
    r.add("net.rx_drops_no_buffer", lc.drops_buf, "count");
    r.add("net.delivered_ratio", lc.offered > 0 ? lc.rx / lc.offered : 0.0,
          "ratio");
    r.add("net.tx_packets", lc.tx, "count");
    for (const char *stage :
         {"ovs0", "ovs1", "pmd0", "pmd1", "redis0", "redis1"}) {
        double n = 0.0;
        for (const auto &[name, count] : lc.stages)
            if (name == stage)
                n = count;
        r.add(std::string("wl.") + stage + ".packets", n, "count");
    }
    r.add("wl.redis_responses", redis, "count");
    r.add("wl.pc_instructions", pc_instr, "count");
    r.add("core.ticks", lc.ticks, "count");
    r.add("core.tick_us_p50", quantile(ticks_us, 0.5), "us",
          ticks_us.size());
    r.add("core.tick_us_max", quantile(ticks_us, 1.0), "us",
          ticks_us.size());
    r.add("core.tick_share", sum(ticks_us) * 1e-6 / traced_wall,
          "ratio");
    r.add("rdt.msr_reads", lc.msr_reads, "count");
    r.add("rdt.msr_writes", lc.msr_writes, "count");
    r.add("rdt.msr_rejected", lc.msr_rejected, "count");
    r.add("mem.dram_read_bytes", lc.dram_read, "B");
    r.add("mem.dram_write_bytes", lc.dram_write, "B");
    r.add("obs.samples", static_cast<double>(sample_us.size()), "count");
    r.add("obs.sample_us_p50", quantile(sample_us, 0.5), "us",
          sample_us.size());
    r.add("obs.flush_ms", flush_ms, "ms");
    r.add("obs.stream_bytes", stream_bytes, "B");
    r.add("cluster.epochs", epochs, "count");
    r.add("cluster.migrations", migrations, "count");
    r.add("cluster.fabric_frames", fabric_frames, "count");
    r.add("cluster.fabric_drops", fabric_drops, "count");
    r.add("scenarios.build_s", quantile(setups, 0.5), "s", setups.size());
    r.add("trace.overhead_ratio", traced_rate / untraced_rate, "ratio");

    const std::string trace_path = ctx.out_dir + "/trace-" + w.name +
                                   "-seed" + std::to_string(ctx.seed) +
                                   ".json";
    ++r.checks;
    if (!ctx.spans.writeChrome(trace_path, w.name))
        r.check_errors.push_back("cannot write " + trace_path);
    else
        std::printf("# spans written to %s\n", trace_path.c_str());
    return r;
}
/// @}

} // namespace

int
main(int argc, char **argv)
{
    const CliArgs args(argc, argv);
    const std::string name = args.getString("workload", "");
    const auto seed =
        static_cast<std::uint64_t>(args.getInt("world-seed", 1));
    const double seconds = args.getDouble("seconds", 10.0);
    const bool trace = args.getInt("trace", 0) != 0;
    const std::string out_dir = args.getString("out", ".");
    args.declareKnown({"workload", "world-seed", "seconds", "trace", "out"});
    args.warnUnknown();

    const Workload *w = nullptr;
    for (const auto &candidate : kWorkloads)
        if (name == candidate.name)
            w = &candidate;
    if (w == nullptr) {
        std::fprintf(stderr, "iatbench: unknown workload '%s'\n",
                     name.c_str());
        return 2;
    }
    std::filesystem::create_directories(out_dir);
    RunContext ctx{*w, seed, out_dir, {}, 0, worldSeed(*w, seed, 0)};
    const Report report = trace ? traceRun(ctx) : measureRun(ctx, seconds);
    std::ofstream(out_dir + "/digest-" + w->name + "-seed" +
                  std::to_string(seed) + ".txt")
        << report.legs.front().digest << '\n';
    printReport(*w, report);
    return 0;
}
