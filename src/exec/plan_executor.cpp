#include "exec/plan_executor.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <string>
#include <thread>
#include <tuple>

#include "codes/erasure_code.h"
#include "gf/kernels.h"

namespace ecfrm::exec {

using core::AccessPlan;
using layout::GroupCoord;

namespace {

void backoff(const RecoveryOptions& opts, int attempt) {
    if (opts.backoff_ms > 0.0) {
        std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
            opts.backoff_ms * static_cast<double>(1 << attempt)));
    }
}

/// Backoff with the wait recorded on the request trace (the sleep is the
/// single biggest self-inflicted latency contributor, so it gets its own
/// span rather than vanishing into the parent).
void traced_backoff(const RecoveryOptions& opts, int attempt, DiskId disk, TraceCtx tc) {
    if (tc.rt == nullptr || opts.backoff_ms <= 0.0) {
        backoff(opts, attempt);
        return;
    }
    const double t0 = obs::forensic_now_us();
    backoff(opts, attempt);
    tc.rt->complete(tc.parent, "backoff.wait", t0, obs::forensic_now_us() - t0,
                    {{"disk", std::to_string(disk)}, {"attempt", std::to_string(attempt + 1)}});
}

/// One fetch round's outcome: which disks newly misbehaved and the most
/// recent typed error, so the replan loop can route around them (or give
/// up with the right diagnosis).
struct FetchOutcome {
    bool complete = true;
    std::vector<DiskId> bad_disks;
    std::optional<Error> last_error;
};

}  // namespace

Status PlanExecutor::read_with_policy(DiskId disk, RowId row, ByteSpan out,
                                      const RecoveryOptions& opts, TraceCtx tc) const {
    const ExecutorMetrics& m = metrics();
    obs::DiskHeatModel* const heat = this->heat();
    const bool timed = opts.op_timeout_ms > 0.0;
    for (int attempt = 0;; ++attempt) {
        const double trace_t0 = tc.rt != nullptr ? obs::forensic_now_us() : 0.0;
        const auto t0 = timed ? std::chrono::steady_clock::now()
                              : std::chrono::steady_clock::time_point{};
        Status status = devices_[static_cast<std::size_t>(disk)]->read(row, out);
        if (timed) {
            const double elapsed_ms =
                std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0)
                    .count();
            if (status.ok() && elapsed_ms > opts.op_timeout_ms) {
                // Too slow to trust: discard the payload and route around
                // the device rather than retrying into the same stall.
                if (m.timeouts != nullptr) m.timeouts->add(1);
                if (heat != nullptr) heat->on_timeout(disk, obs::DiskHeatModel::now_seconds());
                if (tc.rt != nullptr) {
                    tc.rt->count_timeout();
                    tc.rt->complete(tc.parent, "op.timeout", trace_t0,
                                    obs::forensic_now_us() - trace_t0,
                                    {{"disk", std::to_string(disk)},
                                     {"row", std::to_string(row)},
                                     {"deadline_ms", std::to_string(opts.op_timeout_ms)}});
                }
                return Error::timeout("disk " + std::to_string(disk) + " read exceeded " +
                                      std::to_string(opts.op_timeout_ms) + " ms deadline");
            }
        }
        if (status.ok()) return status;
        if (status.error().code != Error::Code::io_error || attempt >= opts.max_retries) {
            if (tc.rt != nullptr) {
                tc.rt->complete(tc.parent, "op.error", trace_t0,
                                obs::forensic_now_us() - trace_t0,
                                {{"disk", std::to_string(disk)},
                                 {"row", std::to_string(row)},
                                 {"error", status.error().message}});
            }
            return status;
        }
        if (m.retries != nullptr) m.retries->add(1);
        if (heat != nullptr) heat->on_retry(disk, obs::DiskHeatModel::now_seconds());
        if (tc.rt != nullptr) {
            tc.rt->count_retry();
            tc.rt->complete(tc.parent, "retry", trace_t0, obs::forensic_now_us() - trace_t0,
                            {{"disk", std::to_string(disk)},
                             {"row", std::to_string(row)},
                             {"attempt", std::to_string(attempt + 1)},
                             {"error", status.error().message}});
        }
        traced_backoff(opts, attempt, disk, tc);
    }
}

Status PlanExecutor::device_read(DiskId disk, RowId row, ByteSpan out) const {
    return read_with_policy(disk, row, out, options());
}

template <typename Buf, typename BatchOp, typename OneOp>
Status PlanExecutor::submit_ops(DiskId disk, std::span<const RowId> rows,
                                std::span<const Buf> bufs, const RecoveryOptions& opts,
                                std::size_t* done, TraceCtx tc, const BatchOp& batch,
                                const OneOp& one) const {
    *done = 0;
    const ExecutorMetrics& m = metrics();
    obs::DiskHeatModel* const heat = this->heat();
    const std::size_t depth =
        opts.batch_elements > 0 ? static_cast<std::size_t>(opts.batch_elements) : rows.size();
    std::size_t offset = 0;
    while (offset < rows.size()) {
        const std::size_t n = std::min(depth, rows.size() - offset);
        std::size_t completed = 0;
        auto status = batch(rows.subspan(offset, n), bufs.subspan(offset, n), &completed);
        *done += completed;
        if (status.ok()) {
            offset += n;
            continue;
        }
        // The op at `offset + completed` failed and the rest of the chunk
        // was never attempted. Retry just that op under the policy — its
        // in-batch failure already consumed attempt zero.
        if (status.error().code != Error::Code::io_error || opts.max_retries < 1) return status;
        const std::size_t j = offset + completed;
        Status retried = status;
        for (int attempt = 1; attempt <= opts.max_retries; ++attempt) {
            if (m.retries != nullptr) m.retries->add(1);
            if (heat != nullptr) heat->on_retry(disk, obs::DiskHeatModel::now_seconds());
            if (tc.rt != nullptr) {
                tc.rt->count_retry();
                tc.rt->complete(tc.parent, "retry", obs::forensic_now_us(), 0.0,
                                {{"disk", std::to_string(disk)},
                                 {"row", std::to_string(rows[j])},
                                 {"attempt", std::to_string(attempt)},
                                 {"error", retried.error().message}});
            }
            traced_backoff(opts, attempt - 1, disk, tc);
            retried = one(rows[j], bufs[j]);
            if (retried.ok()) break;
            if (retried.error().code != Error::Code::io_error) return retried;
        }
        if (!retried.ok()) return retried;
        *done += 1;
        offset = j + 1;
    }
    return Status::success();
}

Status PlanExecutor::submit_queue(DiskId disk, std::span<const RowId> rows,
                                  std::span<const ByteSpan> outs, const RecoveryOptions& opts,
                                  std::size_t* done, TraceCtx tc) const {
    if (opts.op_timeout_ms > 0.0) {
        // Per-op deadline detection needs per-op timing: issue singly.
        *done = 0;
        for (std::size_t i = 0; i < rows.size(); ++i) {
            auto status = read_with_policy(disk, rows[i], outs[i], opts, tc);
            if (!status.ok()) return status;
            *done = i + 1;
        }
        return Status::success();
    }
    const store::BlockDevice& device = *devices_[static_cast<std::size_t>(disk)];
    return submit_ops(
        disk, rows, outs, opts, done, tc,
        [&](auto r, auto o, std::size_t* completed) { return device.read_batch(r, o, completed); },
        [&](RowId row, ByteSpan out) { return device.read(row, out); });
}

Result<PlanExecutor::WriteReport> PlanExecutor::write(const core::WritePlan& plan,
                                                      std::span<const ConstByteSpan> payloads,
                                                      TraceCtx tc, bool allow_degraded) const {
    const RecoveryOptions& opts = options();
    const ExecutorMetrics& m = metrics();
    obs::DiskHeatModel* const heat = this->heat();
    const auto& writes = plan.writes();
    for (const core::WriteAccess& w : writes) {
        if (w.payload >= payloads.size()) return Error::invalid("write plan payload out of range");
        if (payloads[w.payload].size() != static_cast<std::size_t>(element_bytes_)) {
            return Error::invalid("write plan payload has wrong element size");
        }
    }

    std::vector<core::WriteBatch> queues = plan.batches();
    std::atomic<std::int64_t> written{0};
    std::atomic<std::int64_t> skipped{0};
    std::mutex state_mu;
    std::optional<Error> first_error;  // guarded by state_mu

    auto run_queue = [&](std::size_t a) {
        const core::WriteBatch& queue = queues[a];
        std::vector<ConstByteSpan> data;
        data.reserve(queue.write_indices.size());
        for (std::size_t i : queue.write_indices) data.push_back(payloads[writes[i].payload]);
        const double rt_issue_us = tc.rt != nullptr ? obs::forensic_now_us() : 0.0;
        if (heat != nullptr) heat->on_issue(queue.disk);
        store::BlockDevice& device = *devices_[static_cast<std::size_t>(queue.disk)];
        std::size_t done = 0;
        // A retry rewrites the full payload, healing a torn write.
        auto status = submit_ops(
            queue.disk, queue.rows, std::span<const ConstByteSpan>(data.data(), data.size()), opts,
            &done, tc,
            [&](auto r, auto d, std::size_t* landed) { return device.write_batch(r, d, landed); },
            [&](RowId row, ConstByteSpan d) { return device.write(row, d); });
        if (heat != nullptr) {
            const double now_s = obs::DiskHeatModel::now_seconds();
            heat->on_write_complete(queue.disk, static_cast<std::int64_t>(done),
                                    static_cast<std::int64_t>(done) * element_bytes_, now_s);
            if (!status.ok() && status.error().code != Error::Code::disk_failed) {
                heat->on_error(queue.disk, now_s);
            }
        }
        if (tc.rt != nullptr) {
            const std::uint32_t batch_node = tc.rt->complete(
                tc.parent, "disk.write_batch", rt_issue_us, obs::forensic_now_us() - rt_issue_us,
                {obs::RequestTrace::IntAttr{"disk", queue.disk},
                 {"elements", static_cast<std::int64_t>(queue.write_indices.size())},
                 {"done", static_cast<std::int64_t>(done)},
                 {"bytes", static_cast<std::int64_t>(done) * element_bytes_}});
            if (!status.ok()) tc.rt->attr(batch_node, "error", status.error().message);
        }
        written.fetch_add(static_cast<std::int64_t>(done));
        if (!status.ok()) {
            if (status.error().code == Error::Code::disk_failed && allow_degraded) {
                // Degraded write: whatever of this queue did not land
                // stays recoverable through the group parities.
                skipped.fetch_add(static_cast<std::int64_t>(queue.rows.size() - done));
                return;
            }
            std::lock_guard<std::mutex> lock(state_mu);
            if (!first_error.has_value()) first_error = status.error();
        }
    };

    if (pool_ != nullptr && queues.size() > 1) {
        parallel_for(*pool_, queues.size(), run_queue);
    } else {
        for (std::size_t a = 0; a < queues.size(); ++a) run_queue(a);
    }

    if (first_error.has_value()) return *first_error;
    if (m.writes != nullptr) m.writes->add(written.load());
    if (m.degraded_writes != nullptr && skipped.load() > 0) m.degraded_writes->add(skipped.load());
    return WriteReport{written.load(), skipped.load()};
}

/// One per-disk queue of a fetch round ([begin, end) of the round's
/// rows/outs): an AsyncBatch in flight, a pool task, or a queue the
/// reaper runs inline. `state` matters to pool flights only. The pool
/// task and an unhedged reaper race to claim a queued flight; a hedged
/// reaper may abandon a running one. Changes the reaper waits on are
/// made under the round's mutex.
struct PlanExecutor::Flight : core::DiskRun {
    enum State : int { queued, claimed, running, done, abandoned };
    bool pooled = false;
    std::unique_ptr<store::BlockDevice::AsyncBatch> batch;
    std::atomic<int> state{queued};
    Status status = Status::success();
    std::size_t landed = 0;  // elements that landed
    double start_us = 0.0;  // forensic clock, when the round is timed
    double dur_us = 0.0;

    /// Take a queued pool flight for the calling thread; false when the
    /// pool task or the reaper already has it.
    bool claim() {
        int expected = queued;
        return state.compare_exchange_strong(expected, claimed);
    }
};

/// One fetch round's flights and the memory they read into, co-owned by
/// its pool tasks if it has any. A task that finds its flight claimed by
/// the reaper touches nothing else, so unhedged rounds may point
/// `rows`/`outs` at the requesting frame, which reaps every flight
/// before it returns. A hedged round owns copies instead, so a straggler
/// can outlive it. No flights when every queue runs inline.
struct PlanExecutor::Round {
    explicit Round(std::size_t queues) : flights(queues) {}
    const RecoveryOptions* opts = nullptr;  // a retired-safe snapshot
    obs::DiskHeatModel* heat = nullptr;     // kept alive for orphans by drain_orphans()
    TraceCtx tc;         // retry spans; empty when hedged (the trace dies with the request)
    bool timed = false;  // flights record start and duration
    bool hedged = false;
    std::span<const RowId> rows;
    std::span<const ByteSpan> outs;
    std::vector<Flight> flights;
    std::vector<RowId> own_rows;   // hedged rounds: bufs[j] receives own_rows[j]
    std::vector<ElementBuf> bufs;
    std::vector<ByteSpan> own_outs;
    std::mutex mu;
    std::condition_variable cv;
};

void PlanExecutor::start_flight(const Round& round, Flight& flight) const {
    if (round.timed) flight.start_us = obs::forensic_now_us();
    if (round.heat != nullptr) round.heat->on_issue(flight.disk);
}

void PlanExecutor::run_queue(Round& round, Flight& flight) const {
    const std::size_t n = flight.end - flight.begin;
    flight.status = submit_queue(flight.disk, round.rows.subspan(flight.begin, n),
                                 round.outs.subspan(flight.begin, n), *round.opts, &flight.landed,
                                 round.tc);
    if (round.timed) flight.dur_us = obs::forensic_now_us() - flight.start_us;
}

void PlanExecutor::run_pooled(Round& round, Flight& flight) const {
    start_flight(round, flight);
    {
        std::lock_guard<std::mutex> lock(round.mu);
        flight.state.store(Flight::running);
    }
    round.cv.notify_all();
    run_queue(round, flight);
    int was = Flight::running;
    {
        std::lock_guard<std::mutex> lock(round.mu);
        was = flight.state.exchange(Flight::done);
    }
    round.cv.notify_all();
    // An abandoned straggler is never reaped: it reports its true stall
    // to the heat model itself. Hedged flights are orphan-counted, so the
    // executor and its sinks are still alive here.
    if (was == Flight::abandoned) feed_heat(round, flight);
    if (round.hedged) orphan_finished();
}

void PlanExecutor::feed_heat(const Round& round, const Flight& flight) const {
    obs::DiskHeatModel* const heat = round.heat;
    if (heat == nullptr) return;
    const double now_s = obs::DiskHeatModel::now_seconds();
    const auto landed = static_cast<std::int64_t>(flight.landed);
    heat->on_complete(flight.disk, landed, landed * element_bytes_, flight.dur_us, now_s);
    if (!flight.status.ok() && flight.status.error().code != Error::Code::timeout) {
        heat->on_error(flight.disk, now_s);
    }
}

namespace {

GroupCoord slot_coord(const AccessPlan& plan, std::size_t slot) {
    if (slot < plan.fetches().size()) return plan.fetches()[slot].coord;
    const core::GroupDecode& d = plan.decodes()[slot - plan.fetches().size()];
    return {d.stripe, d.group, d.repair.target_position};
}

/// Replan carry-over: every held slot of `old_plan` moves to the slot of
/// `next` with the same coordinates (a fetch may become a decode target
/// or the reverse), so recovery never re-reads what it already holds.
std::vector<Slot> carry_over(const AccessPlan& old_plan, std::vector<Slot>& old_slots,
                             const AccessPlan& next) {
    using Key = std::tuple<StripeId, int, int>;
    auto key = [](const GroupCoord& c) { return Key{c.stripe, c.group, c.position}; };
    std::vector<std::pair<Key, std::size_t>> held;
    for (std::size_t s = 0; s < old_slots.size(); ++s) {
        if (old_slots[s].held) held.emplace_back(key(slot_coord(old_plan, s)), s);
    }
    std::sort(held.begin(), held.end());
    std::vector<Slot> slots(next.slots());
    for (std::size_t s = 0; s < slots.size(); ++s) {
        const Key k = key(slot_coord(next, s));
        auto it = std::lower_bound(held.begin(), held.end(), std::make_pair(k, std::size_t{0}));
        if (it != held.end() && it->first == k) slots[s] = std::move(old_slots[it->second]);
    }
    return slots;
}

}  // namespace

Result<PlanExecutor::FetchResult> PlanExecutor::fetch(const Replanner& replan,
                                                      std::vector<DiskId> excluded,
                                                      obs::RequestTrace* rt,
                                                      ReadDest dest) const {
    const RecoveryOptions& opts = options();
    const ExecutorMetrics& m = metrics();
    obs::Tracer* const tracer = this->tracer();
    obs::DiskHeatModel* const heat = this->heat();

    // The request's element state: one slot per plan slot, kept across
    // replan rounds (by coordinates) so recovery never re-reads what it
    // already holds.
    std::optional<AccessPlan> plan;
    std::vector<Slot> slots;
    bool request_load_recorded = false;  // heat records max load once per request

    // One round's per-disk submission queues over flat arrays: queue
    // [q.begin, q.end) issues rows[j] into outs[j] for fetch slot idx[j].
    // A round with nothing held issues the plan's own schedule; only a
    // replan round copies out the fetches it still lacks.
    std::span<const std::size_t> idx;
    std::span<const RowId> rows;
    std::span<const core::DiskRun> queues;
    std::vector<std::size_t> idx_left;
    std::vector<RowId> rows_left;
    std::vector<core::DiskRun> queues_left;
    std::vector<ByteSpan> outs;
    DecodeScratch scratch;  // eager decode passes

    // Issue everything the plan wants that we don't already hold, one
    // flight per disk queue (devices serialise internally, so one queue
    // per device is the natural unit, and it is also the granularity the
    // tracer reports: the request finishes when the slowest queue does).
    // `fetch_node` is the round's phase span on the request trace;
    // per-disk batches, retries, eager and hedge decodes hang under it.
    auto fetch_round = [&](const AccessPlan& p, std::uint32_t fetch_node) -> FetchOutcome {
        FetchOutcome outcome;
        const auto& fetches = p.fetches();

        bool any_held = false;
        for (std::size_t i = 0; i < fetches.size() && !any_held; ++i) any_held = slots[i].held;
        if (!any_held) {
            idx = p.schedule_fetches();
            rows = p.schedule_rows();
            queues = p.runs();
        } else {
            idx_left.clear();
            rows_left.clear();
            queues_left.clear();
            const auto order = p.schedule_fetches();
            const auto order_rows = p.schedule_rows();
            for (const core::DiskRun& run : p.runs()) {
                const std::size_t begin = idx_left.size();
                for (std::size_t j = run.begin; j < run.end; ++j) {
                    if (slots[order[j]].held) continue;
                    idx_left.push_back(order[j]);
                    rows_left.push_back(order_rows[j]);
                }
                if (idx_left.size() > begin) queues_left.push_back({run.disk, begin, idx_left.size()});
            }
            idx = idx_left;
            rows = rows_left;
            queues = queues_left;
        }
        if (queues.empty()) return outcome;

        // Effective hedge deadline for this round: static hedge_ms, or —
        // under auto_hedge with a warm heat window — derived from the
        // participating disks' live windowed p99 (median * factor), so
        // the deadline tracks the fleet's actual speed instead of a
        // constant tuned for hardware that may no longer exist.
        double hedge_deadline_ms = opts.hedge_ms;
        if (opts.auto_hedge && heat != nullptr && pool_ != nullptr) {
            std::vector<int> participating;
            for (const core::DiskRun& run : p.runs()) participating.push_back(run.disk);
            const double derived =
                heat->hedge_deadline_ms(participating, opts.auto_hedge_factor,
                                        opts.auto_hedge_min_ms,
                                        obs::DiskHeatModel::now_seconds());
            if (derived > 0.0) hedge_deadline_ms = derived;
        }
        const bool hedged = pool_ != nullptr && hedge_deadline_ms > 0.0;

        if (heat != nullptr && !request_load_recorded) {
            // First round's deepest queue is the request's max per-disk
            // load — the measured twin of closed_form_max_load.
            request_load_recorded = true;
            std::size_t max_load = 0;
            for (const core::DiskRun& q : queues) max_load = std::max(max_load, q.end - q.begin);
            heat->on_request(static_cast<std::int64_t>(max_load),
                             obs::DiskHeatModel::now_seconds());
        }

        // Flights that go out before any is reaped, so the disks overlap:
        // async batches (per-op timeouts need per-op timing, which a batch
        // does not give; an in-flight batch cannot be abandoned, so none
        // when hedged) and, with a pool, pool tasks for the other queues
        // (all of them when hedged). The rest run inline when reaped.
        // Only pool tasks need the round on the heap.
        const bool async_flights = !hedged && opts.op_timeout_ms <= 0.0;
        const bool pool_flights = hedged || (pool_ != nullptr && queues.size() > 1);
        bool ahead = pool_flights;
        for (std::size_t a = 0; a < queues.size() && !ahead; ++a) {
            ahead = async_flights &&
                    devices_[static_cast<std::size_t>(queues[a].disk)]->async_reads();
        }
        std::shared_ptr<Round> shared;
        std::optional<Round> local;
        Round& r = pool_flights ? *(shared = std::make_shared<Round>(queues.size()))
                                : local.emplace(ahead ? queues.size() : 0);

        // Destinations. Unhedged: each pending slot keeps the buffer an
        // earlier round gave it, or gets its place in `dest` (requested
        // elements) or staging; each belongs to exactly one flight.
        // Hedged: the round reads into buffers it owns, and a flight's
        // elements move into their slots when it is reaped.
        r.opts = &opts;
        r.heat = heat;
        r.hedged = hedged;
        r.timed = hedged || rt != nullptr || tracer != nullptr || heat != nullptr;
        if (hedged) {
            r.own_rows.assign(rows.begin(), rows.end());
            r.bufs.reserve(idx.size());
            r.own_outs.reserve(idx.size());
            for (std::size_t j = 0; j < idx.size(); ++j) {
                r.bufs.push_back(
                    ElementBuf::alloc(static_cast<std::size_t>(element_bytes_), buffer_pool_));
                r.own_outs.push_back(r.bufs.back().span());
            }
            r.rows = r.own_rows;
            r.outs = r.own_outs;
        } else {
            outs.resize(idx.size());
            for (std::size_t j = 0; j < idx.size(); ++j) {
                Slot& slot = slots[idx[j]];
                if (slot.buf.data() == nullptr) slot.buf = make_element(fetches[idx[j]].request, dest);
                outs[j] = slot.buf.span();
            }
            r.tc = TraceCtx{rt, fetch_node};
            r.rows = rows;
            r.outs = outs;
        }

        std::size_t out_end = 0;  // one past the last flight that goes out
        for (std::size_t a = 0; a < r.flights.size(); ++a) {
            Flight& f = r.flights[a];
            static_cast<core::DiskRun&>(f) = queues[a];
            store::BlockDevice& device = *devices_[static_cast<std::size_t>(f.disk)];
            if (async_flights && device.async_reads()) {
                start_flight(r, f);
                f.batch = device.submit_read_batch(r.rows.subspan(f.begin, f.end - f.begin),
                                                   r.outs.subspan(f.begin, f.end - f.begin));
            } else if (pool_flights) {
                f.pooled = true;
                if (hedged) orphan_started();
                pool_->submit([this, shared, a] {
                    Flight& flight = shared->flights[a];
                    if (flight.claim()) run_pooled(*shared, flight);
                });
            } else {
                continue;
            }
            out_end = a + 1;
        }

        std::vector<DiskId> bad;
        std::optional<Error> last_error;

        // The completion bookkeeping of every reaped flight: settle an
        // async batch (retrying its failed suffix under the policy), feed
        // heat and both tracers, mark what landed held, and note a bad
        // disk for the replan.
        auto finish_queue = [&](Flight& f) {
            const std::size_t n = f.end - f.begin;
            if (f.batch != nullptr) {
                f.status = f.batch->await(&f.landed);
                f.batch.reset();
                if (!f.status.ok() && f.status.error().code == Error::Code::io_error &&
                    opts.max_retries > 0 && f.landed < n) {
                    // The failed op and everything behind it get the
                    // retry / backoff machinery, re-reading over whatever
                    // the abandoned async ops may have scribbled.
                    const std::size_t from = f.begin + f.landed;
                    const std::size_t left = n - f.landed;
                    std::size_t more = 0;
                    f.status = submit_queue(f.disk, r.rows.subspan(from, left),
                                            r.outs.subspan(from, left), opts, &more,
                                            TraceCtx{rt, fetch_node});
                    f.landed += more;
                }
                if (r.timed) f.dur_us = obs::forensic_now_us() - f.start_us;
            }
            feed_heat(r, f);
            if (rt != nullptr) {
                const std::uint32_t batch_node = rt->complete(
                    fetch_node, "disk.batch", f.start_us, f.dur_us,
                    {obs::RequestTrace::IntAttr{"disk", f.disk},
                     {"elements", static_cast<std::int64_t>(n)},
                     {"done", static_cast<std::int64_t>(f.landed)},
                     {"bytes", static_cast<std::int64_t>(f.landed) * element_bytes_}});
                if (!f.status.ok()) rt->attr(batch_node, "error", f.status.error().message);
            }
            if (tracer != nullptr && f.status.ok()) {
                // Both clocks are steady; only the epoch differs.
                const double tracer_start_us =
                    f.start_us + (tracer->now_us() - obs::forensic_now_us());
                tracer->complete("disk.batch", "io", tracer_start_us, f.dur_us,
                                 {{"disk", std::to_string(f.disk)},
                                  {"elements", std::to_string(n)}});
            }
            for (std::size_t j = f.begin; j < f.begin + f.landed; ++j) {
                Slot& slot = slots[idx[j]];
                if (slot.held) continue;  // hedge-decoded already
                if (hedged) slot.buf = std::move(r.bufs[j]);
                slot.held = true;
            }
            if (!f.status.ok()) {
                // The device is suspect: let the replan route around it.
                bad.push_back(f.disk);
                last_error = f.status.error();
            }
        };

        // Wait for pool flight `f` to finish. Hedged, give up once it has
        // run `hedge_deadline_ms` since its own start: a flight still
        // queued behind busy pool threads is never late.
        auto await_pooled = [&](Flight& f) {
            std::unique_lock<std::mutex> lock(r.mu);
            if (!hedged) {
                r.cv.wait(lock, [&] { return f.state.load() == Flight::done; });
                return true;
            }
            r.cv.wait(lock, [&] { return f.state.load() >= Flight::running; });
            const double left_us =
                f.start_us + hedge_deadline_ms * 1000.0 - obs::forensic_now_us();
            return r.cv.wait_for(lock,
                                 std::chrono::duration<double, std::micro>(std::max(left_us, 0.0)),
                                 [&] { return f.state.load() == Flight::done; });
        };

        // Reap in submission order through one completion routine. While
        // a later flight is still out, let any recipe whose sources just
        // landed decode now, overlapping that flight's I/O; with nothing
        // left to overlap, the decode stage does the rest.
        std::vector<std::size_t> stragglers;
        for (std::size_t a = 0; a < queues.size(); ++a) {
            Flight solo;
            if (r.flights.empty()) static_cast<core::DiskRun&>(solo) = queues[a];
            Flight& f = r.flights.empty() ? solo : r.flights[a];
            // An unhedged reaper runs a pool flight no pool thread has
            // started yet itself (caller participation): no read waits on
            // a wake-up, and nested pool use stays deadlock-free.
            if (f.batch == nullptr && (!f.pooled || (!hedged && f.claim()))) {
                start_flight(r, f);
                run_queue(r, f);
            } else if (f.pooled && !await_pooled(f)) {
                stragglers.push_back(a);
                continue;
            }
            finish_queue(f);
            // Partial mode cannot fail: recipes missing sources are
            // skipped and re-tried by the final decode stage.
            if (a + 1 < out_end) {
                (void)try_decode(p, slots, /*partial=*/true, TraceCtx{rt, fetch_node}, dest,
                                 scratch);
            }
        }

        if (!stragglers.empty()) {
            // Hedge: decode every straggler's elements from the disks that
            // are neither straggling nor excluded.
            std::vector<char> avoid(devices_.size(), 0);
            for (std::size_t a : stragglers) avoid[static_cast<std::size_t>(r.flights[a].disk)] = 1;
            for (DiskId d : excluded) avoid[static_cast<std::size_t>(d)] = 1;
            if (rt != nullptr) {
                rt->complete(fetch_node, "hedge.trigger", obs::forensic_now_us(), 0.0,
                             {{"stragglers", std::to_string(stragglers.size())},
                              {"deadline_ms", std::to_string(hedge_deadline_ms)},
                              {"auto", opts.auto_hedge ? "true" : "false"}});
            }
            for (std::size_t a : stragglers) {
                const Flight& f = r.flights[a];
                for (std::size_t j = f.begin; j < f.end; ++j) {
                    const core::Access& access = fetches[idx[j]];
                    Slot& slot = slots[idx[j]];
                    if (m.hedged_reads != nullptr) m.hedged_reads->add(1);
                    if (rt != nullptr) rt->count_hedge();
                    if (slot.buf.data() == nullptr) slot.buf = make_element(access.request, dest);
                    const double hedge_t0 = rt != nullptr ? obs::forensic_now_us() : 0.0;
                    slot.held = rebuild_element(access.coord, avoid, slot.buf.span()).ok();
                    if (rt != nullptr) {
                        rt->complete(fetch_node, "hedge.decode", hedge_t0,
                                     obs::forensic_now_us() - hedge_t0,
                                     {{"disk", std::to_string(f.disk)},
                                      {"stripe", std::to_string(access.coord.stripe)},
                                      {"group", std::to_string(access.coord.group)},
                                      {"position", std::to_string(access.coord.position)},
                                      {"decoded", slot.held ? "true" : "false"}});
                    }
                }
            }
            // Settle each straggler. One whose elements could not all be
            // decoded is joined after all: correctness beats the deadline.
            // One that has finished by now is reaped. The rest are
            // abandoned to finish on the pool (orphan-counted), and their
            // late bytes die with the round.
            for (std::size_t a : stragglers) {
                Flight& f = r.flights[a];
                bool covered = true;
                for (std::size_t j = f.begin; j < f.end && covered; ++j) {
                    covered = slots[idx[j]].held;
                }
                bool reap = false;
                {
                    std::unique_lock<std::mutex> lock(r.mu);
                    if (!covered) r.cv.wait(lock, [&] { return f.state.load() == Flight::done; });
                    int running = Flight::running;
                    reap = !f.state.compare_exchange_strong(running, Flight::abandoned);
                }
                if (reap) finish_queue(f);
            }
        }

        for (std::size_t i = 0; i < fetches.size(); ++i) {
            if (!slots[i].held) {
                outcome.complete = false;
                break;
            }
        }
        outcome.bad_disks = std::move(bad);
        outcome.last_error = std::move(last_error);
        return outcome;
    };

    // Replan loop: plan, fetch, and when a disk misbehaves mid-flight,
    // exclude it and re-plan the remaining elements around it — reusing
    // every element already in hand. Each round's plan/fetch pair lands
    // as contiguous phase spans directly under the request root, so the
    // per-phase durations tile the request end to end.
    std::optional<Error> last_error;
    for (int round = 0;; ++round) {
        const std::uint32_t plan_node =
            rt != nullptr ? rt->begin_phase("plan",
                                            {{"round", round},
                                             {"excluded", static_cast<std::int64_t>(
                                                              excluded.size())}})
                          : 0;
        auto planned = replan(excluded);
        if (rt != nullptr) {
            if (planned.ok()) {
                rt->end_with(plan_node,
                             {{"fetches", planned.value().total_fetched()},
                              {"decodes",
                               static_cast<std::int64_t>(planned.value().decodes().size())}});
            } else {
                rt->attr(plan_node, "error", planned.error().message);
                rt->end(plan_node);
            }
        }
        if (!planned.ok()) return planned.error();
        if (round > 0) {
            if (m.replans != nullptr) m.replans->add(1);
            if (rt != nullptr) rt->count_replan();
            slots = carry_over(*plan, slots, planned.value());
        } else {
            slots.resize(planned.value().slots());
        }
        plan.emplace(std::move(planned).take());

        const std::uint32_t fetch_node =
            rt != nullptr ? rt->begin_phase("fetch", {{"round", round}}) : 0;
        FetchOutcome outcome = fetch_round(*plan, fetch_node);
        if (rt != nullptr) {
            if (!outcome.bad_disks.empty()) {
                rt->end_with(fetch_node, {{"bad_disks", static_cast<std::int64_t>(
                                                            outcome.bad_disks.size())}});
            } else {
                rt->end(fetch_node);
            }
        }
        if (outcome.last_error.has_value()) last_error = outcome.last_error;
        if (outcome.complete) break;
        bool grew = false;
        for (DiskId d : outcome.bad_disks) {
            if (std::find(excluded.begin(), excluded.end(), d) == excluded.end()) {
                excluded.push_back(d);
                grew = true;
            }
        }
        if (!grew || round >= opts.max_replans) {
            if (last_error.has_value()) return *last_error;
            return Error::io("element fetch failed during plan execution");
        }
    }

    return FetchResult{std::move(*plan), std::move(slots), std::move(excluded)};
}

Status PlanExecutor::decode(const AccessPlan& plan, std::vector<Slot>& slots, TraceCtx tc,
                            ReadDest dest) const {
    DecodeScratch scratch;
    return try_decode(plan, slots, /*partial=*/false, tc, dest, scratch);
}

Status PlanExecutor::try_decode(const AccessPlan& plan, std::vector<Slot>& slots, bool partial,
                                TraceCtx tc, ReadDest dest, DecodeScratch& scratch) const {
    const ExecutorMetrics& m = metrics();
    const std::size_t first = plan.fetches().size();
    std::vector<ConstByteSpan>& srcs = scratch.srcs;
    std::vector<std::uint8_t>& coeffs = scratch.coeffs;
    std::vector<ByteSpan>& target_span = scratch.target;
    for (std::size_t d = 0; d < plan.decodes().size(); ++d) {
        const core::GroupDecode& decode = plan.decodes()[d];
        Slot& target = slots[first + d];
        // Recipes run in plan order (later recipes may chain on earlier
        // targets); ones already satisfied by an eager pass are skipped,
        // so each recipe is decoded and counted exactly once per fetch.
        if (target.held) continue;
        const double decode_t0 = tc.rt != nullptr ? obs::forensic_now_us() : 0.0;
        srcs.clear();
        coeffs.clear();
        bool ready = true;
        for (std::size_t t = 0; t < decode.sources.size(); ++t) {
            const Slot& source = slots[plan.slot(decode.sources[t])];
            if (!source.held) {
                if (partial) {
                    ready = false;
                    break;
                }
                return Error::internal("decode source missing from plan");
            }
            srcs.push_back(source.buf.span());
            coeffs.push_back(decode.repair.terms[t].coeff);
        }
        if (!ready) continue;
        if (target.buf.data() == nullptr) target.buf = make_element(decode.request, dest);
        target_span.assign(1, target.buf.span());
        // One fused single-destination pass (the target never appears
        // among its own sources).
        gf::encode_regions(srcs, target_span, coeffs.data(), pool_);
        target.held = true;
        if (m.decodes != nullptr) m.decodes->add(1);
        if (tc.rt != nullptr) {
            tc.rt->add_decodes(1);
            tc.rt->complete(tc.parent, "decode.element", decode_t0,
                            obs::forensic_now_us() - decode_t0,
                            {obs::RequestTrace::IntAttr{"stripe", decode.stripe},
                             {"group", decode.group},
                             {"position", decode.repair.target_position},
                             {"sources", static_cast<std::int64_t>(decode.repair.terms.size())}});
        }
    }
    return Status::success();
}

Result<std::int64_t> PlanExecutor::rebuild_element(const GroupCoord& coord,
                                                   const std::vector<char>& avoid,
                                                   ByteSpan target) const {
    const auto& code = scheme_->code();
    std::vector<int> available;
    for (int p = 0; p < code.n(); ++p) {
        if (p == coord.position) continue;
        const Location ploc = scheme_->layout().locate({coord.stripe, coord.group, p});
        if (!avoid[static_cast<std::size_t>(ploc.disk)]) available.push_back(p);
    }
    auto repair = code.solve_repair(coord.position, available);
    if (!repair.ok()) return repair.error();
    std::vector<AlignedBuffer> srcs;
    std::vector<ByteSpan> buffers(static_cast<std::size_t>(code.n()));
    srcs.reserve(repair->terms.size());
    for (const auto& term : repair->terms) {
        const Location sloc =
            scheme_->layout().locate({coord.stripe, coord.group, term.source_position});
        srcs.emplace_back(static_cast<std::size_t>(element_bytes_));
        auto status = device_read(sloc.disk, sloc.row, srcs.back().span());
        if (!status.ok()) return status.error();
        buffers[static_cast<std::size_t>(term.source_position)] = srcs.back().span();
    }
    buffers[static_cast<std::size_t>(coord.position)] = target;
    codes::DecodePlan one;
    one.repairs.push_back(repair.value());
    codes::ErasureCode::apply_plan(one, buffers);
    return static_cast<std::int64_t>(repair->terms.size());
}

Status PlanExecutor::read_group(StripeId stripe, int group, std::span<const ByteSpan> bufs) const {
    const int n = scheme_->code().n();
    if (static_cast<int>(bufs.size()) != n) return Error::invalid("read_group needs n buffers");
    struct Item {
        Location loc;
        int position;
    };
    std::vector<Item> items;
    items.reserve(static_cast<std::size_t>(n));
    for (int p = 0; p < n; ++p) {
        items.push_back({scheme_->layout().locate({stripe, group, p}), p});
    }
    std::sort(items.begin(), items.end(), [](const Item& a, const Item& b) {
        return a.loc.disk != b.loc.disk ? a.loc.disk < b.loc.disk : a.loc.row < b.loc.row;
    });
    std::size_t i = 0;
    while (i < items.size()) {
        std::size_t j = i;
        while (j < items.size() && items[j].loc.disk == items[i].loc.disk) ++j;
        std::vector<RowId> rows;
        std::vector<ByteSpan> outs;
        rows.reserve(j - i);
        outs.reserve(j - i);
        for (std::size_t t = i; t < j; ++t) {
            rows.push_back(items[t].loc.row);
            outs.push_back(bufs[static_cast<std::size_t>(items[t].position)]);
        }
        auto status = devices_[static_cast<std::size_t>(items[i].loc.disk)]->read_batch(
            std::span<const RowId>(rows.data(), rows.size()),
            std::span<const ByteSpan>(outs.data(), outs.size()));
        if (!status.ok()) return status;
        i = j;
    }
    return Status::success();
}

}  // namespace ecfrm::exec
