#include "workloads.h"

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>

#include "codes/factory.h"
#include "common/aligned_buffer.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/thread_pool.h"
#include "core/analysis.h"
#include "core/read_planner.h"
#include "core/scheme.h"
#include "devices.h"
#include "gf/kernels.h"
#include "obs/heat.h"
#include "obs/metrics.h"
#include "obs/request_trace.h"
#include "store/disk.h"
#include "store/ec_pipeline.h"
#include "store/io_backend.h"
#include "store/stripe_store.h"
#include "store/uring_disk.h"

namespace perfbench {
namespace {

using ecfrm::Rng;
using ecfrm::SplitMix64;
using ecfrm::core::AccessPlan;
using ecfrm::store::BlockDevice;
using ecfrm::store::StripeStore;

enum class DeviceKind { memory, modeled, file };

struct Spec {
    std::string name;
    std::string code;
    std::int64_t element_bytes;
    std::int64_t fill_bytes;  // rounded up to whole stripes
    DeviceKind device;
    int readers;
    std::int64_t append_chunk;
    std::int64_t append_bytes;  // the writer's cap per run; 0: no writer
};

constexpr std::int64_t KiB = 1024;
constexpr std::int64_t MiB = 1024 * KiB;

const std::vector<Spec>& specs() {
    static const std::vector<Spec> all = {
        {"mem_reads", "rs:6,3", 4 * KiB, 256 * MiB, DeviceKind::memory, 3, 0, 0},
        {"modeled_reads", "lrc:6,2,2", 64 * KiB, 32 * MiB, DeviceKind::modeled, 2, 0, 0},
        {"append_read_file", "rs:6,3", 64 * KiB, 256 * MiB, DeviceKind::file, 2, 1 * MiB,
         256 * MiB},
    };
    return all;
}

/// The paper's request shape: uniform start, 1..20 elements.
constexpr int kMaxReadElements = 20;
/// Modeled service time is the Savvio 10K.3 price of 1 MiB elements
/// divided by this, so one request costs about 1-3 ms.
constexpr double kDilation = 24.0;
/// Median overshoot the modeled device's self-check tolerates. The
/// sleep_until wake-up latency of a 4-vCPU VM measured 60-270 us; a batch
/// double-charged would overshoot by its price, over 1 ms.
constexpr double kOvershootToleranceUs = 500.0;
/// Requests per client replayed through the planner for the core.*
/// counts: the first ones of each client's seeded stream.
constexpr int kPlanSample = 2000;
/// Setups per untraced run; setup_s is their median.
constexpr int kSetups = 5;
/// Detached/attached window pairs of the traced run's obs.overhead_share.
constexpr int kOverheadPairs = 4;
/// Unrecorded reads at the start of every read phase.
constexpr double kWarmupSeconds = 0.2;
/// Append bursts per run, spread over the healthy phase.
constexpr int kSlices = 32;
/// EcPipeline encode threads of a workload with a writer.
constexpr std::size_t kPipelineThreads = 1;
// Phase tags keep every phase's request streams distinct.
constexpr int kHealthy = 1;
constexpr int kDegraded = 2;
constexpr int kReference = 3;

/// Fill pattern: the 8-byte word at logical byte offset 8*i holds
/// (i + key) * odd constant, so every read can be checked byte for byte
/// against its logical offset, appended bytes included.
class Pattern {
  public:
    explicit Pattern(std::uint64_t seed) : key_(SplitMix64(seed ^ 0x5eedfeedULL).next()) {}

    void fill(std::int64_t offset, ecfrm::ByteSpan out) const {
        std::uint64_t i = static_cast<std::uint64_t>(offset / 8) + key_;
        for (std::size_t b = 0; b < out.size(); b += 8, ++i) {
            const std::uint64_t w = i * kMul;
            std::memcpy(out.data() + b, &w, 8);
        }
    }

    bool matches(std::int64_t offset, ecfrm::ConstByteSpan in) const {
        std::uint64_t i = static_cast<std::uint64_t>(offset / 8) + key_;
        std::uint64_t diff = 0;
        for (std::size_t b = 0; b < in.size(); b += 8, ++i) {
            std::uint64_t w = 0;
            std::memcpy(&w, in.data() + b, 8);
            diff |= w ^ (i * kMul);
        }
        return diff == 0;
    }

  private:
    static constexpr std::uint64_t kMul = 0x9e3779b97f4a7c15ULL;
    std::uint64_t key_;
};

std::uint64_t stream_seed(std::uint64_t seed, int phase, int client) {
    return SplitMix64(seed ^ (static_cast<std::uint64_t>(phase) << 32) ^
                      static_cast<std::uint64_t>(client + 1) * 0x9e3779b97f4a7c15ULL)
        .next();
}

struct Request {
    std::int64_t start = 0;  // element
    std::int64_t count = 0;
};

Request draw(Rng& rng, std::int64_t total_elements) {
    Request r;
    const std::int64_t longest = std::min<std::int64_t>(kMaxReadElements, total_elements);
    r.count = 1 + static_cast<std::int64_t>(rng.next_below(static_cast<std::uint64_t>(longest)));
    r.start = static_cast<std::int64_t>(
        rng.next_below(static_cast<std::uint64_t>(total_elements - r.count + 1)));
    return r;
}

double ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

double seconds_since(Clock::time_point t0) {
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

Clock::time_point after(Clock::time_point t0, double seconds) {
    return t0 + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(seconds));
}

/// Shared failure bookkeeping of one run.
struct Ledger {
    std::atomic<std::int64_t> attempted{0};
    std::atomic<std::int64_t> failed{0};
    std::mutex mu;
    std::vector<std::string> problems;  // guarded by mu; first few only

    void fail(const std::string& what) {
        failed.fetch_add(1, std::memory_order_relaxed);
        std::lock_guard<std::mutex> lock(mu);
        if (problems.size() < 8) problems.push_back(what);
    }
};

/// One built store with its devices.
struct Rig {
    std::unique_ptr<StripeStore> store;
    std::vector<std::unique_ptr<DiskTotals>> totals;  // traced runs only
    std::vector<const BlockDevice*> base;             // innermost devices
    std::string dir;                                  // file devices only

    Rig() = default;
    Rig(const Rig&) = delete;
    Rig& operator=(const Rig&) = delete;
    ~Rig() {
        store.reset();
        if (!dir.empty()) {
            std::error_code ignored;
            std::filesystem::remove_all(dir, ignored);
        }
    }

    std::int64_t elements() const { return store->committed_bytes() / store->element_bytes(); }
};

std::unique_ptr<Rig> build_rig(const Spec& spec,
                               const std::shared_ptr<ecfrm::codes::ErasureCode>& code,
                               const Pattern& pattern, std::uint64_t seed, bool traced,
                               int attempt) {
    auto rig = std::make_unique<Rig>();
    if (spec.device == DeviceKind::file) {
        rig->dir = ".bench_data/" + spec.name + "-" + std::to_string(::getpid()) + "-" +
                   std::to_string(attempt);
        std::filesystem::remove_all(rig->dir);
        std::filesystem::create_directories(rig->dir);
    }
    const auto factory = [&](int index) -> ecfrm::Result<std::unique_ptr<BlockDevice>> {
        std::unique_ptr<BlockDevice> dev;
        switch (spec.device) {
            case DeviceKind::memory:
                dev = std::make_unique<ecfrm::store::Disk>(spec.element_bytes);
                break;
            case DeviceKind::modeled:
                dev = std::make_unique<ModeledDevice>(
                    std::make_unique<ecfrm::store::Disk>(spec.element_bytes),
                    ecfrm::sim::DiskModel(ecfrm::sim::DiskProfile::savvio_10k3(), MiB), kDilation,
                    stream_seed(seed, 99, index));
                break;
            case DeviceKind::file: {
                auto opened = ecfrm::store::open_file_device(rig->dir, index, spec.element_bytes);
                if (!opened.ok()) return opened.error();
                dev = std::move(opened).take();
                break;
            }
        }
        rig->base.push_back(dev.get());
        if (traced) {
            rig->totals.push_back(std::make_unique<DiskTotals>());
            dev = std::make_unique<TimingDevice>(std::move(dev), index, *rig->totals.back());
        }
        return dev;
    };
    auto opened = StripeStore::open(
        ecfrm::core::Scheme(code, ecfrm::layout::LayoutKind::ecfrm), spec.element_bytes,
        factory);
    if (!opened.ok()) throw std::runtime_error("store open failed: " + opened.error().message);
    rig->store = std::move(opened).take();
    if (rig->store->scheme().disks() > IoTally::kMaxDisks) {
        throw std::runtime_error("more disks than IoTally tracks");
    }

    StripeStore& store = *rig->store;
    const std::int64_t stripe = store.stripe_data_bytes();
    const std::int64_t fill = (spec.fill_bytes + stripe - 1) / stripe * stripe;
    std::vector<std::uint8_t> chunk(static_cast<std::size_t>(MiB));
    for (std::int64_t off = 0; off < fill;) {
        const std::int64_t n = std::min<std::int64_t>(MiB, fill - off);
        const ecfrm::ByteSpan span(chunk.data(), static_cast<std::size_t>(n));
        pattern.fill(off, span);
        auto status = store.append(span);
        if (!status.ok()) throw std::runtime_error("fill failed: " + status.error().message);
        off += n;
    }
    auto flushed = store.flush();
    if (!flushed.ok()) throw std::runtime_error("fill flush failed: " + flushed.error().message);
    return rig;
}

/// Time one build_rig in a child process, so that every setup starts
/// from the same cold heap and pays its first-touch page faults, as the
/// first build of a process does. Within one process, glibc keeps memory
/// a freed store returned, and later builds ran up to 1.8x faster.
double child_setup_s(const Spec& spec, const std::shared_ptr<ecfrm::codes::ErasureCode>& code,
                     const Pattern& pattern, std::uint64_t seed, int attempt) {
    int fds[2];
    if (::pipe(fds) != 0) throw std::runtime_error("pipe failed");
    std::fflush(nullptr);
    const pid_t pid = ::fork();
    if (pid < 0) throw std::runtime_error("fork failed");
    if (pid == 0) {
        ::close(fds[0]);
        double seconds = -1.0;
        try {
            const Clock::time_point t0 = Clock::now();
            const std::unique_ptr<Rig> rig = build_rig(spec, code, pattern, seed, false, attempt);
            seconds = seconds_since(t0);
        } catch (const std::exception& e) {
            std::fprintf(stderr, "perfbench_harness: setup %d: %s\n", attempt, e.what());
        }
        const bool sent = ::write(fds[1], &seconds, sizeof seconds) == sizeof seconds;
        ::_exit(sent && seconds >= 0.0 ? 0 : 1);
    }
    ::close(fds[1]);
    double seconds = -1.0;
    const bool got = ::read(fds[0], &seconds, sizeof seconds) == sizeof seconds;
    ::close(fds[0]);
    int status = 0;
    const bool waited = ::waitpid(pid, &status, 0) == pid;
    if (!got || !waited || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
        throw std::runtime_error("setup " + std::to_string(attempt) + " failed");
    }
    return seconds;
}

/// What a read phase measured. The traced fields stay zero untraced.
struct ReadStats {
    std::vector<double> latency_us;
    std::int64_t bytes = 0;
    double wall_s = 0.0;
    double latency_sum_us = 0.0;
    std::int64_t batches = 0;
    double batch_us = 0.0;
    double max_disk_us = 0.0;

    std::int64_t reads() const { return static_cast<std::int64_t>(latency_us.size()); }
    double percentile(double q) const { return ecfrm::percentile(latency_us, q); }
    double mb_s() const { return ratio(static_cast<double>(bytes) / 1e6, wall_s); }

    void merge(const ReadStats& o) {
        latency_us.insert(latency_us.end(), o.latency_us.begin(), o.latency_us.end());
        bytes += o.bytes;
        wall_s += o.wall_s;
        latency_sum_us += o.latency_sum_us;
        batches += o.batches;
        batch_us += o.batch_us;
        max_disk_us += o.max_disk_us;
    }
};

/// One request stream per client, continued across a phase's windows.
std::vector<Rng> client_streams(std::uint64_t seed, int phase, int readers) {
    std::vector<Rng> out;
    for (int c = 0; c < readers; ++c) out.emplace_back(stream_seed(seed, phase, c));
    return out;
}

/// Closed-loop readers: each client issues its next read when the last
/// returns, checks every byte, and stops at the deadline (and not before
/// `*hold` clears, when given). Client 0 runs on the calling thread.
ReadStats run_readers(Rig& rig, const Spec& spec, const Pattern& pattern, Ledger& ledger,
                      std::vector<Rng>& streams, double seconds, bool track_committed = false,
                      const std::atomic<bool>* hold = nullptr) {
    StripeStore& store = *rig.store;
    const std::int64_t eb = spec.element_bytes;
    const std::int64_t fixed_total = rig.elements();
    const bool traced = !rig.totals.empty();
    const Clock::time_point t0 = Clock::now();
    const Clock::time_point deadline = after(t0, seconds);
    std::vector<ReadStats> per(streams.size());

    auto client = [&](std::size_t c) {
        ReadStats& out = per[c];
        IoTally tally;
        if (traced) set_thread_tally(&tally);
        while (Clock::now() < deadline || (hold != nullptr && hold->load())) {
            const Request r = draw(streams[c], track_committed ? rig.elements() : fixed_total);
            tally.reset();
            const Clock::time_point r0 = Clock::now();
            auto got = store.read_bytes(r.start * eb, r.count * eb);
            const double us = std::chrono::duration<double, std::micro>(Clock::now() - r0).count();
            ledger.attempted.fetch_add(1, std::memory_order_relaxed);
            if (!got.ok()) {
                ledger.fail("read failed: " + got.error().message);
                continue;
            }
            if (static_cast<std::int64_t>(got.value().size()) != r.count * eb ||
                !pattern.matches(r.start * eb, got.value())) {
                ledger.fail("read of elements [" + std::to_string(r.start) + ", +" +
                            std::to_string(r.count) + ") returned wrong bytes");
                continue;
            }
            out.latency_us.push_back(us);
            out.latency_sum_us += us;
            out.bytes += r.count * eb;
            out.batches += tally.batches;
            out.batch_us += tally.batch_us;
            out.max_disk_us += tally.max_disk_us();
        }
        if (traced) set_thread_tally(nullptr);
    };

    std::vector<std::thread> threads;
    for (std::size_t c = 1; c < streams.size(); ++c) threads.emplace_back(client, c);
    client(0);
    for (auto& t : threads) t.join();

    ReadStats merged;
    for (const ReadStats& p : per) merged.merge(p);
    merged.wall_s = seconds_since(t0);
    return merged;
}

/// Unrecorded reads (still checked) before a phase's recorded ones.
void warm_up(Rig& rig, const Spec& spec, const Pattern& pattern, Ledger& ledger,
             std::uint64_t seed, int phase) {
    std::vector<Rng> streams = client_streams(seed, phase + 100, spec.readers);
    run_readers(rig, spec, pattern, ledger, streams, kWarmupSeconds);
}

struct WriteStats {
    std::vector<double> latency_us;
    std::int64_t bytes = 0;
    double busy_s = 0.0;  // inside append(): what the appending caller waits
    std::size_t pending_max = 0;
    std::int64_t sync_encodes = 0;
    std::int64_t stripes = 0;

    std::int64_t appends() const { return static_cast<std::int64_t>(latency_us.size()); }
    double mb_s() const { return ratio(static_cast<double>(bytes) / 1e6, busy_s); }
};

/// One burst of appends: `bytes` in spec.append_chunk pieces through
/// `pipeline`, starting at logical offset `base`, then its encode backlog
/// drained (outside the timings: background encodes cost the caller
/// nothing until the backlog forces a synchronous one).
void append_burst(ecfrm::store::EcPipeline& pipeline, const Spec& spec, const Pattern& pattern,
                  Ledger& ledger, std::int64_t base, std::int64_t bytes, WriteStats& out) {
    std::vector<std::uint8_t> chunk(static_cast<std::size_t>(spec.append_chunk));
    for (std::int64_t done = 0; done < bytes; done += spec.append_chunk) {
        pattern.fill(base + done, chunk);
        const Clock::time_point t0 = Clock::now();
        auto status = pipeline.append(chunk);
        const double us = std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
        ledger.attempted.fetch_add(1, std::memory_order_relaxed);
        if (!status.ok()) {
            ledger.fail("append failed: " + status.error().message);
            continue;
        }
        out.latency_us.push_back(us);
        out.busy_s += us * 1e-6;
        out.bytes += spec.append_chunk;
        out.pending_max = std::max(out.pending_max, pipeline.snapshot().pending_stripes);
    }
    auto drained = pipeline.quiesce();
    if (!drained.ok()) ledger.fail("encode backlog failed: " + drained.error().message);
}

/// The healthy phase: the readers read throughout. A workload with a
/// writer also appends, in kSlices bursts that each start on their slice
/// boundary while the readers read, so reads and appends both sample the
/// whole phase.
void healthy_phase(Rig& rig, const Spec& spec, const Pattern& pattern, Ledger& ledger,
                   std::uint64_t seed, double seconds, ReadStats& reads, WriteStats& writes) {
    StripeStore& store = *rig.store;
    std::vector<Rng> streams = client_streams(seed, kHealthy, spec.readers);
    if (spec.append_bytes == 0) {
        reads = run_readers(rig, spec, pattern, ledger, streams, seconds);
        return;
    }
    ecfrm::ThreadPool pool(kPipelineThreads);
    ecfrm::store::EcPipeline pipeline(store, &pool);
    const std::int64_t elements0 = store.stored_data_elements();
    // The pipeline buffers its tail itself, so the store's logical size
    // lags the append stream; offsets are tracked here.
    const std::int64_t base = store.logical_bytes();
    const std::int64_t sync0 = pipeline.snapshot().sync_encodes;
    const std::int64_t burst = spec.append_bytes / kSlices;
    std::atomic<bool> writing{true};
    const Clock::time_point t0 = Clock::now();
    std::thread readers([&] {
        reads = run_readers(rig, spec, pattern, ledger, streams, seconds, true, &writing);
    });
    for (int i = 0; i < kSlices; ++i) {
        std::this_thread::sleep_until(after(t0, seconds * i / kSlices));
        append_burst(pipeline, spec, pattern, ledger, base + i * burst, burst, writes);
    }
    writing.store(false);
    readers.join();
    writes.sync_encodes = pipeline.snapshot().sync_encodes - sync0;
    writes.stripes = (store.stored_data_elements() - elements0) /
                     store.scheme().layout().data_per_stripe();
}

/// Observability attached to the store for one traced phase.
struct Observers {
    ecfrm::obs::MetricRegistry registry;
    ecfrm::obs::RequestForensics forensics;
    ecfrm::obs::DiskHeatModel heat;
    StripeStore& store;

    static ecfrm::obs::ForensicsOptions options() {
        ecfrm::obs::ForensicsOptions o;
        o.slow_threshold_us = -1.0;  // capture only recovery-active requests
        o.max_exemplars = 8;
        return o;
    }

    explicit Observers(StripeStore& s) : forensics(options()), heat(s.scheme().disks()), store(s) {
        store.attach_observability(&registry, nullptr, &forensics, &heat);
    }
    ~Observers() { store.attach_observability(nullptr); }
    Observers(const Observers&) = delete;
    Observers& operator=(const Observers&) = delete;

    /// Phase totals over every request class, microseconds.
    std::map<std::string, double> phases(ecfrm::obs::RequestClass cls) const {
        std::map<std::string, double> out;
        for (const auto& [name, us] : forensics.phase_totals(cls)) out[name] += us;
        return out;
    }
    std::int64_t count(const char* name) { return registry.counter(name).value(); }
};

struct DiskSnapshot {
    std::vector<std::int64_t> read_ns, write_ns, write_batches, write_bytes;
};

DiskSnapshot snapshot_disks(const Rig& rig) {
    DiskSnapshot s;
    for (const auto& t : rig.totals) {
        s.read_ns.push_back(t->read_ns.load());
        s.write_ns.push_back(t->write_ns.load());
        s.write_batches.push_back(t->write_batches.load());
        s.write_bytes.push_back(t->write_bytes.load());
    }
    return s;
}

std::int64_t sum(const std::vector<std::int64_t>& v) {
    std::int64_t s = 0;
    for (std::int64_t x : v) s += x;
    return s;
}

struct PlanCounts {
    double max_disk_load = 0.0;
    double max_disk_load_sd = 0.0;
    double fanout = 0.0;
    double fetch_per_elem = 0.0;
    std::int64_t plans = 0;
};

/// The core.* counts: the first kPlanSample requests of every client's
/// seeded stream, planned as the store plans them (healthy, or around
/// `failed` with the default local-first policy).
PlanCounts plan_counts(const ecfrm::core::Scheme& scheme, std::uint64_t seed, int phase,
                       int readers, std::int64_t total_elements, int failed) {
    ecfrm::OnlineStats max_load;
    double fanout = 0.0;
    double fetched = 0.0;
    double requested = 0.0;
    for (int c = 0; c < readers; ++c) {
        Rng rng(stream_seed(seed, phase, c));
        for (int i = 0; i < kPlanSample; ++i) {
            const Request r = draw(rng, total_elements);
            ecfrm::Result<AccessPlan> plan =
                failed < 0 ? ecfrm::Result<AccessPlan>(
                                 ecfrm::core::plan_normal_read(scheme, r.start, r.count))
                           : ecfrm::core::plan_degraded_read(scheme, r.start, r.count, failed);
            if (!plan.ok()) throw std::runtime_error("planner failed: " + plan.error().message);
            max_load.add(plan.value().max_load());
            fanout += static_cast<double>(plan.value().batches().size());
            fetched += static_cast<double>(plan.value().total_fetched());
            requested += static_cast<double>(r.count);
        }
    }
    PlanCounts out;
    out.plans = static_cast<std::int64_t>(max_load.count());
    out.max_disk_load = max_load.mean();
    out.max_disk_load_sd = max_load.stddev();
    out.fanout = fanout / static_cast<double>(out.plans);
    out.fetch_per_elem = fetched / requested;
    return out;
}

/// Median over `reps` batches of the mean time of one call, microseconds.
template <typename Fn>
double time_call_us(Fn&& fn, double budget_s) {
    int per_batch = 1;
    for (;;) {  // size a batch to about 1 ms
        const Clock::time_point t0 = Clock::now();
        for (int i = 0; i < per_batch; ++i) fn();
        if (seconds_since(t0) > 1e-3 || per_batch > (1 << 20)) break;
        per_batch *= 2;
    }
    std::vector<double> means;
    const Clock::time_point start = Clock::now();
    while (means.size() < 5 || seconds_since(start) < budget_s) {
        const Clock::time_point t0 = Clock::now();
        for (int i = 0; i < per_batch; ++i) fn();
        means.push_back(seconds_since(t0) * 1e6 / per_batch);
    }
    std::sort(means.begin(), means.end());
    return means[means.size() / 2];
}

/// The ladder floor: isolated ErasureCode calls at the workload's scheme
/// and element size.
std::pair<double, double> codec_floor_us(const ecfrm::core::Scheme& scheme, std::int64_t eb,
                                         std::uint64_t seed, double budget_s) {
    const auto& code = scheme.code();
    const int n = code.n();
    const int k = code.k();
    std::vector<ecfrm::AlignedBuffer> bufs;
    Rng rng(seed);
    for (int i = 0; i < n; ++i) {
        bufs.emplace_back(static_cast<std::size_t>(eb));
        for (std::size_t b = 0; b < bufs.back().size(); ++b) {
            bufs.back().data()[b] = static_cast<std::uint8_t>(rng.next_u64());
        }
    }
    std::vector<ecfrm::ConstByteSpan> data;
    std::vector<ecfrm::ByteSpan> parity;
    std::vector<ecfrm::ByteSpan> all;
    for (int i = 0; i < n; ++i) {
        all.push_back(bufs[static_cast<std::size_t>(i)].span());
        if (i < k) {
            data.push_back(bufs[static_cast<std::size_t>(i)].span());
        } else {
            parity.push_back(bufs[static_cast<std::size_t>(i)].span());
        }
    }
    const double encode_group_us = time_call_us([&] { code.encode(data, parity); }, budget_s);

    // Rebuild position 0 the way the degraded planner does: from its
    // structured repair set when the code has one, else from k survivors.
    std::vector<int> sources = code.repair_spec(0).preferred;
    if (sources.empty()) {
        for (int p = 1; p <= k; ++p) sources.push_back(p);
    }
    auto repair = code.solve_repair(0, sources);
    if (!repair.ok()) throw std::runtime_error("solve_repair failed: " + repair.error().message);
    ecfrm::codes::DecodePlan plan;
    plan.repairs.push_back(repair.value());
    const double decode_us =
        time_call_us([&] { ecfrm::codes::ErasureCode::apply_plan(plan, all); }, budget_s);
    return {encode_group_us * scheme.layout().groups_per_stripe(), decode_us};
}

double peak_rss_mb() {
    rusage usage{};
    ::getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

std::string backend_name(const Rig& rig, const Spec& spec) {
    switch (spec.device) {
        case DeviceKind::memory: return "memory";
        case DeviceKind::modeled: return "modeled-memory";
        case DeviceKind::file: break;
    }
    if (const auto* u = dynamic_cast<const ecfrm::store::UringDisk*>(rig.base.front())) {
        return u->uring_active() ? "uring" : "pread (uring unavailable)";
    }
    return ecfrm::store::to_string(ecfrm::store::default_io_backend());
}

/// Accumulates output metrics in order.
struct Sink {
    std::vector<Metric>& out;
    void add(const std::string& name, double value, const char* unit, std::int64_t samples,
             bool gated = true) {
        out.push_back(Metric{name, value, unit, samples, gated});
    }
};

/// Per-layer metrics of one traced read phase.
void report_read_layers(Sink& sink, const std::string& prefix, const ReadStats& rs,
                        Observers& obs, const DiskSnapshot& before, const DiskSnapshot& now,
                        const PlanCounts& plans, std::int64_t copies,
                        const std::vector<char>& alive) {
    using ecfrm::obs::RequestClass;
    std::map<std::string, double> phases = obs.phases(RequestClass::normal);
    for (const auto& [name, us] : obs.phases(RequestClass::degraded)) phases[name] += us;
    double phase_sum = 0.0;
    for (const auto& [name, us] : phases) phase_sum += us;
    const std::int64_t reads = rs.reads();
    const double n = static_cast<double>(reads);

    std::vector<double> busy;
    for (std::size_t d = 0; d < before.read_ns.size(); ++d) {
        if (alive[d] != 0) busy.push_back(static_cast<double>(now.read_ns[d] - before.read_ns[d]));
    }
    ecfrm::OnlineStats busy_stats;
    for (double b : busy) busy_stats.add(b);

    const auto add = [&](const char* name, double value, const char* unit, std::int64_t samples) {
        sink.add(prefix + name, value, unit, samples);
    };
    const auto count = [&](const char* counter) { return static_cast<double>(obs.count(counter)); };
    add("store.untraced_share", 1.0 - ratio(phase_sum, rs.latency_sum_us), "ratio", reads);
    add("store.assemble_copies_per_read", ratio(static_cast<double>(copies), n), "count", reads);
    add("core.plan_us", ratio(phases["plan"], n), "us", reads);
    add("exec.fetch_us", ratio(phases["fetch"], n), "us", reads);
    add("exec.decode_us", ratio(phases["decode"], n), "us", reads);
    add("exec.fetch_overhead", ratio(phases["fetch"], rs.batch_us), "ratio", reads);
    add("exec.retries", count("ecfrm_store_retries_total"), "count", reads);
    add("exec.replans", count("ecfrm_store_replans_total"), "count", reads);
    add("exec.hedges", count("ecfrm_store_hedged_reads_total"), "count", reads);
    add("core.max_disk_load", plans.max_disk_load, "elements", plans.plans);
    add("core.fanout", plans.fanout, "disks", plans.plans);
    add("core.fetch_per_elem", plans.fetch_per_elem, "ratio", plans.plans);
    add("dev.read_batches_per_read", ratio(static_cast<double>(rs.batches), n), "count", reads);
    add("dev.read_batch_us", ratio(rs.batch_us, static_cast<double>(rs.batches)), "us", rs.batches);
    add("dev.max_disk_us", ratio(rs.max_disk_us, n), "us", reads);
    add("dev.busy_cov", ratio(busy_stats.stddev(), busy_stats.mean()), "ratio",
        static_cast<std::int64_t>(busy.size()));
}

void report_write_layers(Sink& sink, const WriteStats& ws, Observers& obs,
                         const DiskSnapshot& before, const DiskSnapshot& now) {
    std::map<std::string, double> phases = obs.phases(ecfrm::obs::RequestClass::write);
    const double batches = static_cast<double>(sum(now.write_batches) - sum(before.write_batches));
    const double stripes = static_cast<double>(ws.stripes);
    const std::int64_t appends = ws.appends();
    sink.add("dev.write_batch_us",
             ratio(static_cast<double>(sum(now.write_ns) - sum(before.write_ns)) * 1e-3, batches),
             "us", static_cast<std::int64_t>(batches));
    sink.add("dev.write_bytes_per_user_byte",
             ratio(static_cast<double>(sum(now.write_bytes) - sum(before.write_bytes)),
                   static_cast<double>(ws.bytes)),
             "ratio", appends);
    sink.add("store.encode_us_per_stripe", ratio(phases["encode"], stripes), "us", ws.stripes);
    sink.add("store.commit_us_per_stripe", ratio(phases["commit"], stripes), "us", ws.stripes);
    sink.add("pipeline.pending_max", static_cast<double>(ws.pending_max), "stripes", appends);
    sink.add("pipeline.sync_encodes", static_cast<double>(ws.sync_encodes), "count", appends);
}

}  // namespace

const std::vector<std::string>& workload_names() {
    static const std::vector<std::string> names = [] {
        std::vector<std::string> out;
        for (const Spec& s : specs()) out.push_back(s.name);
        return out;
    }();
    return names;
}

Outcome run_workload(const Options& options) {
    const auto it = std::find_if(specs().begin(), specs().end(),
                                 [&](const Spec& s) { return s.name == options.workload; });
    if (it == specs().end()) throw std::runtime_error("unknown workload " + options.workload);
    const Spec& spec = *it;
    const std::uint64_t seed = options.seed;
    const bool traced = options.trace;
    const double S = options.seconds;
    const Pattern pattern(seed);
    Ledger ledger;
    Outcome outcome;
    Sink sink{outcome.metrics};

    double overshoot_us = 0.0;
    if (spec.device == DeviceKind::modeled) {
        const std::string problem =
            modeled_device_selfcheck(kDilation, kOvershootToleranceUs, &overshoot_us);
        if (!problem.empty()) outcome.problems.push_back("modeled device self-check: " + problem);
    }

    auto code = ecfrm::codes::make_code(spec.code);
    if (!code.ok()) throw std::runtime_error("bad code " + spec.code);

    // Setup: build the store and write the initial fill. Untraced runs
    // first build kSetups - 1 more in child processes; setup_s is the
    // median of all. The process's own build is measured.
    std::vector<double> setup_s;
    for (int attempt = 1; !traced && attempt < kSetups; ++attempt) {
        setup_s.push_back(child_setup_s(spec, code.value(), pattern, seed, attempt));
    }
    const Clock::time_point setup0 = Clock::now();
    const std::unique_ptr<Rig> rig = build_rig(spec, code.value(), pattern, seed, traced, 0);
    setup_s.push_back(seconds_since(setup0));
    StripeStore& store = *rig->store;
    const ecfrm::core::Scheme& scheme = store.scheme();
    const std::int64_t fill_elements = rig->elements();
    const auto disks = static_cast<std::uint64_t>(scheme.disks());
    const int failed_disk = static_cast<int>(SplitMix64(seed ^ 0xfa11ed).next() % disks);

    // Recorded now: a failed file device drops its io_uring rings.
    const std::string io_backend = backend_name(*rig, spec);

    // Traced runs first measure the cost of observing: the same healthy
    // reads with forensics, heat and metrics detached and attached, in
    // windows ordered detached-attached-attached-detached and so on, so a
    // drift over the measurement (such as the page cache settling after
    // the fill) weighs on both sides alike.
    double scale = 1.0;
    if (traced) {
        scale = 0.75;
        warm_up(*rig, spec, pattern, ledger, seed, kReference);
        std::vector<Rng> streams = client_streams(seed, kReference, spec.readers);
        const double window = 0.24 * S / (2 * kOverheadPairs);
        ReadStats detached;
        ReadStats attached;
        for (int i = 0; i < 2 * kOverheadPairs; ++i) {
            if ((i + 1) / 2 % 2 == 0) {
                detached.merge(run_readers(*rig, spec, pattern, ledger, streams, window));
            } else {
                Observers obs(store);
                attached.merge(run_readers(*rig, spec, pattern, ledger, streams, window));
            }
        }
        sink.add("obs.overhead_share",
                 ratio(attached.percentile(0.5), detached.percentile(0.5)) - 1.0, "ratio",
                 attached.reads());
    }

    ReadStats healthy;
    WriteStats writes;
    {
        warm_up(*rig, spec, pattern, ledger, seed, kHealthy);
        std::optional<Observers> obs;
        if (traced) obs.emplace(store);
        const DiskSnapshot before = snapshot_disks(*rig);
        const std::int64_t copies0 = store.assemble_staging_copies();
        healthy_phase(*rig, spec, pattern, ledger, seed, 0.5 * S * scale, healthy, writes);
        if (traced) {
            const DiskSnapshot now = snapshot_disks(*rig);
            const PlanCounts plans =
                plan_counts(scheme, seed, kHealthy, spec.readers, fill_elements, -1);
            // The sampled mean must agree with the exact enumeration.
            const double exact =
                ecfrm::core::analyze_normal_reads(scheme, kMaxReadElements).mean_max_load;
            const double se = plans.max_disk_load_sd / std::sqrt(static_cast<double>(plans.plans));
            if (std::fabs(plans.max_disk_load - exact) > 5.0 * se + 1e-9) {
                outcome.problems.push_back(
                    "core.max_disk_load " + std::to_string(plans.max_disk_load) +
                    " disagrees with analyze_normal_reads " + std::to_string(exact));
            }
            report_read_layers(sink, "", healthy, *obs, before, now, plans,
                               store.assemble_staging_copies() - copies0,
                               std::vector<char>(static_cast<std::size_t>(scheme.disks()), 1));
            // Zero, with zero samples, on a workload without a writer.
            report_write_layers(sink, writes, *obs, before, now);
        }
    }

    // Device bytes per user byte, before a disk fails and drops its rows.
    std::int64_t device_bytes = 0;
    for (const BlockDevice* dev : rig->base) device_bytes += dev->rows() * spec.element_bytes;
    const double stored_ratio = ratio(static_cast<double>(device_bytes),
                                      static_cast<double>(store.committed_bytes()));

    auto failed = store.fail_disk(failed_disk);
    if (!failed.ok()) throw std::runtime_error("fail_disk: " + failed.error().message);
    ReadStats degraded;
    {
        warm_up(*rig, spec, pattern, ledger, seed, kDegraded);
        std::optional<Observers> obs;
        if (traced) obs.emplace(store);
        const DiskSnapshot before = snapshot_disks(*rig);
        const std::int64_t copies0 = store.assemble_staging_copies();
        std::vector<Rng> streams = client_streams(seed, kDegraded, spec.readers);
        degraded = run_readers(*rig, spec, pattern, ledger, streams, 0.45 * S * scale);
        if (traced) {
            std::vector<char> alive(static_cast<std::size_t>(scheme.disks()), 1);
            alive[static_cast<std::size_t>(failed_disk)] = 0;
            report_read_layers(
                sink, "degraded.", degraded, *obs, before, snapshot_disks(*rig),
                plan_counts(scheme, seed, kDegraded, spec.readers, rig->elements(), failed_disk),
                store.assemble_staging_copies() - copies0, alive);
        }
    }

    if (traced) {
        const auto [encode_us, decode_us] =
            codec_floor_us(scheme, spec.element_bytes, seed, 0.05 * S);
        sink.add("codes.encode_us_per_stripe", encode_us, "us", 1);
        sink.add("codes.decode_us_per_elem", decode_us, "us", 1);
    } else {
        sink.add("setup_s", ecfrm::percentile(setup_s, 0.5), "s",
                 static_cast<std::int64_t>(setup_s.size()));
        // The tails and the append timings are printed but not gated: on
        // a shared 4-vCPU VM their spread across seeds exceeds 0.25, the
        // largest bound a gated metric may carry.
        sink.add("read_p50_us", healthy.percentile(0.50), "us", healthy.reads());
        sink.add("read_p99_us", healthy.percentile(0.99), "us", healthy.reads(), false);
        sink.add("read_mb_s", healthy.mb_s(), "MB/s", healthy.reads());
        sink.add("degraded_read_p50_us", degraded.percentile(0.50), "us", degraded.reads());
        sink.add("degraded_read_p99_us", degraded.percentile(0.99), "us", degraded.reads(),
                 false);
        sink.add("degraded_read_mb_s", degraded.mb_s(), "MB/s", degraded.reads());
        if (spec.append_bytes > 0) {
            const std::int64_t appends = writes.appends();
            sink.add("append_p50_us", ecfrm::percentile(writes.latency_us, 0.50), "us", appends,
                     false);
            sink.add("append_p95_us", ecfrm::percentile(writes.latency_us, 0.95), "us", appends,
                     false);
            sink.add("append_mb_s", writes.mb_s(), "MB/s", appends, false);
        }
        sink.add("peak_rss_mb", peak_rss_mb(), "MB", 1);
        sink.add("stored_bytes_per_user_byte", stored_ratio, "ratio", 1);
    }

    outcome.attempted = ledger.attempted.load();
    outcome.failed = ledger.failed.load();
    for (const std::string& p : ledger.problems) outcome.problems.push_back(p);
    outcome.correct = outcome.problems.empty() && outcome.failed == 0;
    sink.add("ops_failed_frac",
             ratio(static_cast<double>(outcome.failed), static_cast<double>(outcome.attempted)),
             "ratio", outcome.attempted, false);
    outcome.env = {
        {"workload", spec.name},
        {"seed", std::to_string(seed)},
        {"code", spec.code + " ecfrm"},
        {"element_bytes", std::to_string(spec.element_bytes)},
        {"fill_bytes", std::to_string(fill_elements * spec.element_bytes)},
        {"readers", std::to_string(spec.readers)},
        {"io_backend", io_backend},
        {"fsync", std::getenv("ECFRM_FSYNC") != nullptr ? std::getenv("ECFRM_FSYNC") : "off"},
        {"build_type", PERFBENCH_BUILD_TYPE},
        {"nproc", std::to_string(std::thread::hardware_concurrency())},
        {"gf_simd", ecfrm::gf::to_string(ecfrm::gf::active_tier())},
        {"failed_disk", std::to_string(failed_disk)},
    };
    if (spec.device == DeviceKind::modeled) {
        outcome.env.emplace_back("modeled_dilation", std::to_string(kDilation));
        outcome.env.emplace_back("modeled_overshoot_us", std::to_string(overshoot_us));
    }
    return outcome;
}

}  // namespace perfbench
