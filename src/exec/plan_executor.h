// exec::PlanExecutor: the request-execution engine between the planners
// (core) and the devices (store). It owns the machinery that used to be
// inlined in StripeStore::execute_read:
//
//   - per-disk submission queues: each AccessPlan::DiskBatch is issued as
//     chunked vectored read_batch calls with a bounded in-flight depth
//     (RecoveryOptions::batch_elements), one queue per disk;
//   - one submit/reap loop per fetch round: every queue is put in flight
//     first (an async device batch, a pool task, or nothing yet for a
//     queue the reaper runs inline), then reaped in submission order
//     through one completion routine;
//   - the self-healing policy: bounded retries with exponential backoff,
//     per-op timeout detection, hedged reads that decode a straggling
//     disk's elements from the others (the hedge deadline counts from
//     each queue's start, so a queue still waiting for a pool thread is
//     never a straggler), and mid-flight degraded replans that reuse
//     every element already fetched;
//   - the decode stage that materialises lost elements from a plan's
//     repair recipes.
//
// The same engine serves the normal/degraded read path (fetch + decode),
// reconstruction and hedging (rebuild_element), and scrub/verify
// (read_group), so all share one I/O policy. All methods are thread-safe:
// N readers may call fetch() concurrently, and recovery options /
// observability can be swapped while requests are in flight.
//
// Per-request element state is a flat slot table indexed like the plan:
// fetch i is slot i, decode recipe d's target is slot fetches + d. A slot
// is a buffer (executor staging or a view of caller memory) plus a "held"
// flag; requested elements land in caller memory by their request index.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <vector>

#include "common/aligned_buffer.h"
#include "common/buffer_pool.h"
#include "common/result.h"
#include "common/thread_pool.h"
#include "common/types.h"
#include "core/access_plan.h"
#include "core/scheme.h"
#include "core/write_plan.h"
#include "obs/heat.h"
#include "obs/metrics.h"
#include "obs/request_trace.h"
#include "obs/trace.h"
#include "store/block_device.h"

namespace ecfrm::exec {

/// Self-healing knobs for the device I/O paths. Defaults are inert
/// (no timeouts, no backoff sleeps, no hedging) so clean-path behaviour
/// and benchmarks are unchanged until a caller opts in.
struct RecoveryOptions {
    /// Same-device retries after a transient I/O error (0 disables).
    int max_retries = 2;
    /// Base backoff before retry r: backoff_ms * 2^r (0: retry immediately).
    double backoff_ms = 0.0;
    /// >0: ops slower than this surface as Error::timeout — the payload is
    /// discarded and the read path routes around the slow device instead
    /// of retrying it. (Per-op deadlines need per-op timing, so timed
    /// queues issue elements singly instead of as vectored batches.)
    double op_timeout_ms = 0.0;
    /// >0 (needs a thread pool): when a fetch queue is still running this
    /// long after it started, hedge its elements by decoding them from
    /// the other disks instead of waiting.
    double hedge_ms = 0.0;
    /// Adaptive hedging (needs a thread pool and an attached
    /// DiskHeatModel): derive the hedge deadline per fetch round from the
    /// participating disks' live windowed p99 latency —
    /// auto_hedge_factor * median(p99), floored at auto_hedge_min_ms —
    /// instead of the static hedge_ms. Until the heat window has enough
    /// samples the static hedge_ms (possibly 0 = no hedging) applies.
    bool auto_hedge = false;
    double auto_hedge_factor = 3.0;
    double auto_hedge_min_ms = 0.5;
    /// Degraded-read replans allowed per read as newly-misbehaving disks
    /// are discovered mid-flight.
    int max_replans = 2;
    /// Bounded in-flight depth of a per-disk submission queue: at most
    /// this many elements ride in one vectored read_batch call (<=0:
    /// unbounded, the whole queue goes down in one call).
    int batch_elements = 32;
};

/// Executor-owned recovery/decode counters (all optional). Bundled so the
/// whole set swaps atomically while requests are in flight.
struct ExecutorMetrics {
    obs::Counter* retries = nullptr;
    obs::Counter* timeouts = nullptr;
    obs::Counter* replans = nullptr;
    obs::Counter* hedged_reads = nullptr;
    obs::Counter* decodes = nullptr;
    obs::Counter* writes = nullptr;           // elements written via write()
    obs::Counter* degraded_writes = nullptr;  // elements skipped on failed devices
};

/// One element a request holds or will hold, at its plan slot.
struct Slot {
    /// Executor staging (pool/heap) or a view of caller memory.
    ElementBuf buf;
    /// The buffer holds the element's bytes (fetched, hedged or decoded).
    bool held = false;
};

/// Caller memory for a read's requested elements: request i's element
/// covers bytes [i * element_bytes - skew, (i + 1) * element_bytes - skew)
/// of `bytes`. Elements wholly inside land there in place (fetched by the
/// device or decoded there); an element that straddles an edge of `bytes`
/// is staged, and the caller copies its overlap. Empty: stage everything.
/// A failed or timed-out op may have scribbled on an element's place;
/// that is safe because its slot is not held and recovery overwrites it.
struct ReadDest {
    ByteSpan bytes;
    std::int64_t skew = 0;
};

/// Request-trace context threaded down the execution pipeline: the
/// per-request span tree (null = untraced, every use is a branch) and
/// the span id to parent recovery detail under. Passed by value — it is
/// two words.
struct TraceCtx {
    obs::RequestTrace* rt = nullptr;
    std::uint32_t parent = 0;
};

class PlanExecutor {
  public:
    /// Produces the plan for the current exclusion set. Called once up
    /// front and once per replan round; planning failures abort the fetch.
    using Replanner = std::function<Result<core::AccessPlan>(const std::vector<DiskId>&)>;

    /// `scheme` must outlive the executor; `pool` may be null (serial
    /// execution, deterministic disk order).
    PlanExecutor(const core::Scheme* scheme, std::int64_t element_bytes, ThreadPool* pool)
        : scheme_(scheme), element_bytes_(element_bytes), pool_(pool) {}

    ~PlanExecutor() { drain_orphans(); }

    /// Block until every hedged pool flight (including a straggling
    /// per-disk fetch abandoned at its hedge deadline, still finishing on
    /// the pool) has completed. Owners of anything those flights touch —
    /// the devices, an attached heat model or metric registry — must call
    /// this before tearing that dependency down; attach() and the
    /// destructor do so automatically.
    void drain_orphans() const {
        std::unique_lock<std::mutex> lock(orphan_mu_);
        orphan_cv_.wait(lock, [&] { return orphans_ == 0; });
    }

    /// (Re)bind the devices the executor issues I/O against, indexed by
    /// DiskId. Pointers must stay valid until the next bind.
    void bind(std::vector<store::BlockDevice*> devices) { devices_ = std::move(devices); }

    /// Pooled arena for element staging buffers (null: plain heap). Must
    /// outlive every request, including orphaned hedge queues — pass a
    /// process-lifetime pool (store::element_arena) or drain_orphans()
    /// before freeing it. When the devices are uring-backed and the same
    /// pool is registered with their rings, staging reads become
    /// registered-buffer fixed reads.
    void set_buffer_pool(BufferPool* pool) { buffer_pool_ = pool; }

    /// Publish new recovery options as an immutable snapshot; requests
    /// already in flight keep the snapshot they loaded (retired snapshots
    /// live until the executor is destroyed).
    void set_recovery(const RecoveryOptions& options) {
        auto snapshot = std::make_unique<const RecoveryOptions>(options);
        const RecoveryOptions* fresh = snapshot.get();
        {
            std::lock_guard<std::mutex> lock(metrics_mu_);
            retired_recovery_.push_back(std::move(snapshot));
        }
        recovery_.store(fresh, std::memory_order_release);
    }
    RecoveryOptions recovery() const { return options(); }

    /// Swap the observability sinks; race-free against in-flight requests
    /// (atomic bundle publication, retired bundles live until the executor
    /// is destroyed). `heat`, when given, is fed per-queue issue/complete
    /// samples and per-request max batch loads, and powers auto_hedge.
    /// Blocks until orphaned hedge queues still holding the previous sinks
    /// have drained, so the caller may free those sinks on return.
    void attach(const ExecutorMetrics& metrics, obs::Tracer* tracer,
                obs::DiskHeatModel* heat = nullptr) {
        auto bundle = std::make_unique<const ExecutorMetrics>(metrics);
        const ExecutorMetrics* fresh = bundle.get();
        {
            std::lock_guard<std::mutex> lock(metrics_mu_);
            retired_.push_back(std::move(bundle));
        }
        metrics_.store(fresh, std::memory_order_release);
        tracer_.store(tracer, std::memory_order_release);
        heat_.store(heat, std::memory_order_release);
        drain_orphans();
    }

    /// Everything a completed fetch pipeline hands back: the plan that
    /// finally completed (after any replans), its slot table (every fetch
    /// slot held; decode slots held when a replan carried them over), and the
    /// exclusion set as grown by mid-flight discoveries.
    struct FetchResult {
        core::AccessPlan plan;
        std::vector<Slot> slots;
        std::vector<DiskId> excluded;
    };

    /// Run the fetch pipeline: plan via `replan`, issue per-disk queues,
    /// retry/hedge per policy, and replan around disks that misbehave
    /// mid-flight — reusing every element already in hand. Fails with the
    /// last typed device error when recovery is exhausted.
    ///
    /// Each round submits one flight per disk queue before reaping any:
    /// an AsyncBatch on devices whose async_reads() is true (unless per-op
    /// timeouts are on), a pool task when a pool is attached and the
    /// round has several queues, otherwise a queue run inline when the
    /// reaper reaches it. Flights are reaped in submission order, and
    /// every decode waits for the decode stage. In an unhedged round the
    /// reaper runs a pool flight that no pool thread has started yet
    /// itself, so no read waits on a pool wake-up. A hedged round
    /// (hedge_ms or auto_hedge, with a pool) makes every flight a pool
    /// task and gives each a deadline counted from its own start; only
    /// flights still running past it have their elements decoded from the
    /// other disks (rebuild_element), and the round returns without
    /// joining them.
    ///
    /// When `rt` is given, the pipeline appends its causal tree to the
    /// request: contiguous `plan`/`fetch` phase spans per round directly
    /// under the root (so phase durations tile the request), with
    /// per-disk batches, retries, backoff waits, timeouts and hedge
    /// decodes as children of the round's fetch span.
    /// Requested elements land in `dest` (see ReadDest), except in hedged
    /// rounds, whose flights read into round-owned buffers so a straggler
    /// can outlive the requesting frame. A replan carries every held slot
    /// over to the new plan's slot with the same coordinates.
    Result<FetchResult> fetch(const Replanner& replan, std::vector<DiskId> excluded,
                              obs::RequestTrace* rt = nullptr, ReadDest dest = {}) const;

    /// Run the plan's decode recipes, materialising each target slot from
    /// source slots already held. `tc` hangs a `decode.element` span per
    /// recipe under the caller's span. Recipes whose target is already
    /// held (carried over by a replan) are skipped; requested targets are
    /// decoded straight into `dest`.
    Status decode(const core::AccessPlan& plan, std::vector<Slot>& slots, TraceCtx tc = {},
                  ReadDest dest = {}) const;

    /// Rebuild one element into `target` from group sources living on
    /// disks not marked in `avoid` (indexed by DiskId), using policy
    /// reads. Returns the number of source elements read. Serves
    /// reconstruction and the hedge decodes of fetch().
    Result<std::int64_t> rebuild_element(const layout::GroupCoord& coord,
                                         const std::vector<char>& avoid, ByteSpan target) const;

    /// Read every element of one group into bufs[position] (n spans of
    /// element_bytes), batched per disk. Raw device reads: no retry or
    /// timeout policy — callers (scrub, verify) want the device's first
    /// answer.
    Status read_group(StripeId stripe, int group, std::span<const ByteSpan> bufs) const;

    /// Outcome of one executed write plan.
    struct WriteReport {
        std::int64_t elements_written = 0;
        /// Degraded writes: placements whose device is failed are skipped —
        /// the element stays recoverable through its group's parity, and
        /// reconstruction restores it onto the replacement device.
        std::int64_t elements_skipped = 0;
    };

    /// Execute a write plan: one submission queue per disk, each issued as
    /// chunked vectored write_batch calls (RecoveryOptions::batch_elements
    /// deep), in parallel across disks when a thread pool is attached.
    /// `payloads[w.payload]` supplies the bytes of each placement `w`, so
    /// one payload may back many placements (replication) and payload
    /// order is independent of submission order. Transient errors retry
    /// with backoff under the same policy as reads (a retry rewrites the
    /// full payload, healing torn writes). With `allow_degraded`, a failed
    /// device's remaining placements are skipped and counted instead of
    /// failing the plan. `tc` hangs per-disk `disk.write_batch` spans (and
    /// retry/backoff detail) under the caller's span.
    Result<WriteReport> write(const core::WritePlan& plan,
                              std::span<const ConstByteSpan> payloads, TraceCtx tc = {},
                              bool allow_degraded = true) const;

    /// Device read with per-op timeout detection and bounded retries on
    /// transient errors. On timeout the payload is discarded and
    /// Error::timeout is returned (the caller routes around the device).
    Status device_read(DiskId disk, RowId row, ByteSpan out) const;

  private:
    const RecoveryOptions& options() const { return *recovery_.load(std::memory_order_acquire); }
    const ExecutorMetrics& metrics() const { return *metrics_.load(std::memory_order_acquire); }
    obs::Tracer* tracer() const { return tracer_.load(std::memory_order_acquire); }
    obs::DiskHeatModel* heat() const { return heat_.load(std::memory_order_acquire); }

    Status read_with_policy(DiskId disk, RowId row, ByteSpan out, const RecoveryOptions& opts,
                            TraceCtx tc = {}) const;

    /// Issue one per-disk read queue (rows/outs row-sorted) through
    /// submit_ops, or op by op under per-op timeouts.
    Status submit_queue(DiskId disk, std::span<const RowId> rows, std::span<const ByteSpan> outs,
                        const RecoveryOptions& opts, std::size_t* done, TraceCtx tc = {}) const;

    /// Chunked submission of reads and writes: `batch` issues up to
    /// opts.batch_elements ops per call, `one` retries a transiently
    /// failed op with backoff. `*done` counts ops that landed.
    template <typename Buf, typename BatchOp, typename OneOp>
    Status submit_ops(DiskId disk, std::span<const RowId> rows, std::span<const Buf> bufs,
                      const RecoveryOptions& opts, std::size_t* done, TraceCtx tc,
                      const BatchOp& batch, const OneOp& one) const;

    /// Storage for the element at request index `request`: its place in
    /// `dest` when it lies wholly inside, else staging.
    ElementBuf make_element(std::int64_t request, ReadDest dest) const {
        if (request >= 0) {
            const std::int64_t at = request * element_bytes_ - dest.skew;
            if (at >= 0 && at + element_bytes_ <= static_cast<std::int64_t>(dest.bytes.size())) {
                return ElementBuf::external(dest.bytes.subspan(
                    static_cast<std::size_t>(at), static_cast<std::size_t>(element_bytes_)));
            }
        }
        return ElementBuf::alloc(static_cast<std::size_t>(element_bytes_), buffer_pool_);
    }

    /// One per-disk queue of a fetch round, and the round that owns
    /// them (both defined in plan_executor.cpp).
    struct Flight;
    struct Round;

    /// Start a flight's clock and report its issue to the heat model.
    void start_flight(const Round& round, Flight& flight) const;
    /// Issue a started flight's queue through submit_queue.
    void run_queue(Round& round, Flight& flight) const;
    /// Body of a pool flight that its pool task has claimed.
    void run_pooled(Round& round, Flight& flight) const;
    /// Feed a settled flight's latency and errors to the heat model.
    void feed_heat(const Round& round, const Flight& flight) const;

    void orphan_started() const {
        std::lock_guard<std::mutex> lock(orphan_mu_);
        ++orphans_;
    }
    void orphan_finished() const {
        std::lock_guard<std::mutex> lock(orphan_mu_);
        --orphans_;
        orphan_cv_.notify_all();
    }

    static const ExecutorMetrics* empty_metrics() {
        static const ExecutorMetrics none;
        return &none;
    }

    const core::Scheme* scheme_;
    std::int64_t element_bytes_;
    ThreadPool* pool_;
    std::vector<store::BlockDevice*> devices_;
    BufferPool* buffer_pool_ = nullptr;

    static const RecoveryOptions* default_recovery() {
        static const RecoveryOptions defaults;
        return &defaults;
    }

    std::atomic<const RecoveryOptions*> recovery_{default_recovery()};
    std::atomic<const ExecutorMetrics*> metrics_{empty_metrics()};
    std::mutex metrics_mu_;  // guards retired_ and retired_recovery_
    std::vector<std::unique_ptr<const ExecutorMetrics>> retired_;
    std::vector<std::unique_ptr<const RecoveryOptions>> retired_recovery_;
    std::atomic<obs::Tracer*> tracer_{nullptr};
    std::atomic<obs::DiskHeatModel*> heat_{nullptr};

    mutable std::mutex orphan_mu_;
    mutable std::condition_variable orphan_cv_;
    mutable std::int64_t orphans_ = 0;  // hedged pool flights not yet finished
};

}  // namespace ecfrm::exec
