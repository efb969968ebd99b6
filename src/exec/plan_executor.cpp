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

Status PlanExecutor::device_write(DiskId disk, RowId row, ConstByteSpan data) const {
    const RecoveryOptions& opts = options();
    const ExecutorMetrics& m = metrics();
    for (int attempt = 0;; ++attempt) {
        Status status = devices_[static_cast<std::size_t>(disk)]->write(row, data);
        if (status.ok()) return status;
        if (status.error().code != Error::Code::io_error || attempt >= opts.max_retries) {
            return status;
        }
        if (m.retries != nullptr) m.retries->add(1);
        backoff(opts, attempt);
    }
}

Status PlanExecutor::submit_queue(DiskId disk, std::span<const RowId> rows,
                                  std::span<const ByteSpan> outs, const RecoveryOptions& opts,
                                  std::size_t* done, TraceCtx tc) const {
    *done = 0;
    store::BlockDevice& device = *devices_[static_cast<std::size_t>(disk)];
    if (opts.op_timeout_ms > 0.0) {
        // Per-op deadline detection needs per-op timing: issue singly.
        for (std::size_t i = 0; i < rows.size(); ++i) {
            auto status = read_with_policy(disk, rows[i], outs[i], opts, tc);
            if (!status.ok()) return status;
            *done = i + 1;
        }
        return Status::success();
    }
    const ExecutorMetrics& m = metrics();
    obs::DiskHeatModel* const heat = this->heat();
    const std::size_t depth =
        opts.batch_elements > 0 ? static_cast<std::size_t>(opts.batch_elements) : rows.size();
    std::size_t offset = 0;
    while (offset < rows.size()) {
        const std::size_t n = std::min(depth, rows.size() - offset);
        std::size_t completed = 0;
        auto status = device.read_batch(rows.subspan(offset, n), outs.subspan(offset, n), &completed);
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
            retried = device.read(rows[j], outs[j]);
            if (retried.ok()) break;
            if (retried.error().code != Error::Code::io_error) return retried;
        }
        if (!retried.ok()) return retried;
        *done += 1;
        offset = j + 1;
    }
    return Status::success();
}

Status PlanExecutor::submit_write_queue(DiskId disk, std::span<const RowId> rows,
                                        std::span<const ConstByteSpan> data,
                                        const RecoveryOptions& opts, std::size_t* done,
                                        TraceCtx tc) const {
    *done = 0;
    store::BlockDevice& device = *devices_[static_cast<std::size_t>(disk)];
    const ExecutorMetrics& m = metrics();
    obs::DiskHeatModel* const heat = this->heat();
    const std::size_t depth =
        opts.batch_elements > 0 ? static_cast<std::size_t>(opts.batch_elements) : rows.size();
    std::size_t offset = 0;
    while (offset < rows.size()) {
        const std::size_t n = std::min(depth, rows.size() - offset);
        std::size_t completed = 0;
        auto status =
            device.write_batch(rows.subspan(offset, n), data.subspan(offset, n), &completed);
        *done += completed;
        if (status.ok()) {
            offset += n;
            continue;
        }
        // The op at `offset + completed` failed and the rest of the chunk
        // was never attempted. Retry just that op under the policy — a
        // retry rewrites the full payload, healing a torn write.
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
            retried = device.write(rows[j], data[j]);
            if (retried.ok()) break;
            if (retried.error().code != Error::Code::io_error) return retried;
        }
        if (!retried.ok()) return retried;
        *done += 1;
        offset = j + 1;
    }
    return Status::success();
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
        std::size_t done = 0;
        auto status = submit_write_queue(queue.disk, queue.rows,
                                         std::span<const ConstByteSpan>(data.data(), data.size()),
                                         opts, &done, tc);
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

bool PlanExecutor::side_decode(const GroupCoord& coord, const std::vector<char>& avoid,
                               ByteSpan target) const {
    const auto& code = scheme_->code();
    std::vector<int> sources;
    for (int p = 0; p < code.n(); ++p) {
        if (p == coord.position) continue;
        const Location sloc = scheme_->layout().locate({coord.stripe, coord.group, p});
        if (!avoid[static_cast<std::size_t>(sloc.disk)]) sources.push_back(p);
    }
    auto repair = code.solve_repair(coord.position, sources);
    if (!repair.ok()) return false;
    std::vector<AlignedBuffer> srcs;
    std::vector<ByteSpan> buffers(static_cast<std::size_t>(code.n()));
    srcs.reserve(repair->terms.size());
    for (const auto& term : repair->terms) {
        const Location sloc =
            scheme_->layout().locate({coord.stripe, coord.group, term.source_position});
        srcs.emplace_back(static_cast<std::size_t>(element_bytes_));
        if (!devices_[static_cast<std::size_t>(sloc.disk)]->read(sloc.row, srcs.back().span()).ok()) {
            return false;
        }
        buffers[static_cast<std::size_t>(term.source_position)] = srcs.back().span();
    }
    buffers[static_cast<std::size_t>(coord.position)] = target;
    codes::DecodePlan one;
    one.repairs.push_back(repair.value());
    codes::ErasureCode::apply_plan(one, buffers);
    return true;
}

void PlanExecutor::run_hedged_queue(HedgeState& state, std::size_t a) const {
    // Runs on the pool, possibly after the requesting frame returned: it
    // may touch only `state` (co-owned), the devices, and the executor's
    // attached sinks (kept alive by the orphan drain protocol). No
    // RequestTrace — that dies with the request.
    HedgeState::Queue& q = state.queues[a];
    obs::DiskHeatModel* const heat = this->heat();
    q.issue_us = obs::forensic_now_us();
    const auto t0 = std::chrono::steady_clock::now();
    if (heat != nullptr) heat->on_issue(q.disk);
    const std::size_t n = q.end - q.begin;
    q.status = submit_queue(q.disk, std::span<const RowId>(state.rows).subspan(q.begin, n),
                            std::span<const ByteSpan>(state.outs).subspan(q.begin, n),
                            *state.opts, &q.done_ops, TraceCtx{});
    q.dur_us =
        std::chrono::duration<double, std::micro>(std::chrono::steady_clock::now() - t0).count();
    if (heat != nullptr) {
        const double now_s = obs::DiskHeatModel::now_seconds();
        heat->on_complete(q.disk, static_cast<std::int64_t>(q.done_ops),
                          static_cast<std::int64_t>(q.done_ops) * element_bytes_, q.dur_us, now_s);
        if (!q.status.ok() && q.status.error().code != Error::Code::timeout) {
            heat->on_error(q.disk, now_s);
        }
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

    // Issue everything the plan wants that we don't already hold, one
    // submission queue per disk — in parallel across disks when a thread
    // pool is attached (devices serialise internally, so one queue per
    // device is the natural unit, and it is also the granularity the
    // tracer reports: the request finishes when the slowest queue does).
    // `fetch_node` is the round's phase span on the request trace;
    // per-disk batches, retries and hedge decodes hang under it.
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
        const bool hedge_mode = pool_ != nullptr && hedge_deadline_ms > 0.0;

        // Destinations: each pending slot keeps the buffer an earlier
        // round gave it, or gets its place in `dest` (requested elements)
        // or staging. Each belongs to exactly one queue, so queue workers
        // never share a slot. Hedged rounds skip this: their queue tasks
        // own their buffers outright so a straggling queue can outlive
        // this frame.
        if (!hedge_mode) {
            outs.resize(idx.size());
            for (std::size_t j = 0; j < idx.size(); ++j) {
                Slot& slot = slots[idx[j]];
                if (slot.buf.data() == nullptr) slot.buf = make_element(fetches[idx[j]].request, dest);
                outs[j] = slot.buf.span();
            }
        }

        if (heat != nullptr && !request_load_recorded) {
            // First round's deepest queue is the request's max per-disk
            // load — the measured twin of closed_form_max_load.
            request_load_recorded = true;
            std::size_t max_load = 0;
            for (const core::DiskRun& q : queues) max_load = std::max(max_load, q.end - q.begin);
            heat->on_request(static_cast<std::int64_t>(max_load),
                             obs::DiskHeatModel::now_seconds());
        }

        std::mutex state_mu;
        std::vector<DiskId> bad;          // guarded by state_mu
        std::optional<Error> last_error;  // guarded by state_mu

        auto run_queue = [&](std::size_t a) {
            const core::DiskRun& queue = queues[a];
            const std::size_t n = queue.end - queue.begin;
            const double issue_us = tracer != nullptr ? tracer->now_us() : 0.0;
            const double rt_issue_us = rt != nullptr ? obs::forensic_now_us() : 0.0;
            const auto heat_t0 = heat != nullptr ? std::chrono::steady_clock::now()
                                                 : std::chrono::steady_clock::time_point{};
            if (heat != nullptr) heat->on_issue(queue.disk);
            std::size_t done = 0;
            auto status = submit_queue(queue.disk, rows.subspan(queue.begin, n),
                                       std::span<const ByteSpan>(outs).subspan(queue.begin, n),
                                       opts, &done, TraceCtx{rt, fetch_node});
            if (heat != nullptr) {
                const double queue_us = std::chrono::duration<double, std::micro>(
                                            std::chrono::steady_clock::now() - heat_t0)
                                            .count();
                const double now_s = obs::DiskHeatModel::now_seconds();
                heat->on_complete(queue.disk, static_cast<std::int64_t>(done),
                                  static_cast<std::int64_t>(done) * element_bytes_, queue_us,
                                  now_s);
                if (!status.ok() && status.error().code != Error::Code::timeout) {
                    heat->on_error(queue.disk, now_s);
                }
            }
            if (rt != nullptr) {
                const std::uint32_t batch_node = rt->complete(
                    fetch_node, "disk.batch", rt_issue_us, obs::forensic_now_us() - rt_issue_us,
                    {obs::RequestTrace::IntAttr{"disk", queue.disk},
                     {"elements", static_cast<std::int64_t>(n)},
                     {"done", static_cast<std::int64_t>(done)},
                     {"bytes", static_cast<std::int64_t>(done) * element_bytes_}});
                if (!status.ok()) rt->attr(batch_node, "error", status.error().message);
            }
            // This queue's slots are its own: mark them without a lock.
            for (std::size_t j = 0; j < done; ++j) slots[idx[queue.begin + j]].held = true;
            if (!status.ok()) {
                // The device is suspect: abandon its remaining queue and
                // let the replan route around it.
                std::lock_guard<std::mutex> lock(state_mu);
                bad.push_back(queue.disk);
                last_error = status.error();
                return;
            }
            if (tracer != nullptr) {
                tracer->complete("disk.batch", "io", issue_us, tracer->now_us() - issue_us,
                                 {{"disk", std::to_string(queue.disk)},
                                  {"elements", std::to_string(n)}});
            }
        };

        // Serial overlapped execution: without a pool, per-disk queues
        // would otherwise run strictly one after another even though the
        // devices can overlap (io_uring keeps a batch in flight per disk).
        // When every participating device reports async_reads(), submit
        // all queues first, then await them in submission order — the
        // disks seek/read concurrently while this thread blocks on the
        // first — and run decode recipes eagerly as each disk's elements
        // land, so decode overlaps the remaining in-flight reads.
        // Per-op timeouts need per-op timing, which async batches don't
        // give; that policy keeps the submit_queue path.
        bool async_overlap =
            !hedge_mode && pool_ == nullptr && opts.op_timeout_ms <= 0.0 && queues.size() > 1;
        if (async_overlap) {
            for (const core::DiskRun& q : queues) {
                async_overlap =
                    async_overlap && devices_[static_cast<std::size_t>(q.disk)]->async_reads();
            }
        }

        if (hedge_mode) {
            // Hedged execution: every queue is a self-contained task that
            // owns its buffers and co-owns the shared round state. When
            // the slowest queue is still running past the hedge deadline,
            // its elements are decoded from the other disks and the round
            // returns WITHOUT joining it — the orphaned queue finishes on
            // the pool (tracked by the executor's orphan counter so sinks
            // and devices outlive it), keeps feeding the heat model with
            // its true stall latency, and its late payload is dropped
            // with the last shared reference to the state.
            auto state = std::make_shared<HedgeState>();
            state->opts = &opts;
            state->rows.assign(rows.begin(), rows.end());
            state->bufs.reserve(idx.size());
            state->outs.reserve(idx.size());
            for (std::size_t j = 0; j < idx.size(); ++j) {
                state->bufs.push_back(
                    ElementBuf::alloc(static_cast<std::size_t>(element_bytes_), buffer_pool_));
                state->outs.push_back(state->bufs.back().span());
            }
            state->queue_done.assign(queues.size(), 0);
            state->queues.resize(queues.size());
            for (std::size_t a = 0; a < queues.size(); ++a) {
                state->queues[a].disk = queues[a].disk;
                state->queues[a].begin = queues[a].begin;
                state->queues[a].end = queues[a].end;
            }
            for (std::size_t a = 0; a < queues.size(); ++a) {
                orphan_started();
                pool_->submit([this, state, a] {
                    run_hedged_queue(*state, a);
                    {
                        // Notify under the mutex: the waiter may drop its
                        // state reference the moment the predicate holds.
                        std::lock_guard<std::mutex> lock(state->mu);
                        state->queue_done[a] = 1;
                        ++state->done;
                        state->cv.notify_all();
                    }
                    orphan_finished();
                });
            }
            std::unique_lock<std::mutex> lock(state->mu);
            const bool all_done =
                state->cv.wait_for(lock,
                                   std::chrono::duration<double, std::milli>(hedge_deadline_ms),
                                   [&] { return state->done == state->queues.size(); });
            if (!all_done) {
                std::vector<char> avoid(devices_.size(), 0);
                std::vector<std::size_t> stragglers;
                for (std::size_t a = 0; a < queues.size(); ++a) {
                    if (!state->queue_done[a]) {
                        avoid[static_cast<std::size_t>(queues[a].disk)] = 1;
                        stragglers.push_back(a);
                    }
                }
                lock.unlock();
                for (DiskId d : excluded) avoid[static_cast<std::size_t>(d)] = 1;
                if (rt != nullptr) {
                    rt->complete(fetch_node, "hedge.trigger", obs::forensic_now_us(), 0.0,
                                 {{"stragglers", std::to_string(stragglers.size())},
                                  {"deadline_ms", std::to_string(hedge_deadline_ms)},
                                  {"auto", opts.auto_hedge ? "true" : "false"}});
                }
                for (std::size_t a : stragglers) {
                    for (std::size_t j = queues[a].begin; j < queues[a].end; ++j) {
                        const core::Access& access = fetches[idx[j]];
                        if (m.hedged_reads != nullptr) m.hedged_reads->add(1);
                        if (rt != nullptr) rt->count_hedge();
                        ElementBuf target =
                            ElementBuf::alloc(static_cast<std::size_t>(element_bytes_),
                                              buffer_pool_);
                        const double hedge_t0 = rt != nullptr ? obs::forensic_now_us() : 0.0;
                        const bool decoded = side_decode(access.coord, avoid, target.span());
                        if (rt != nullptr) {
                            rt->complete(fetch_node, "hedge.decode", hedge_t0,
                                         obs::forensic_now_us() - hedge_t0,
                                         {{"disk", std::to_string(queues[a].disk)},
                                          {"stripe", std::to_string(access.coord.stripe)},
                                          {"group", std::to_string(access.coord.group)},
                                          {"position", std::to_string(access.coord.position)},
                                          {"decoded", decoded ? "true" : "false"}});
                        }
                        if (decoded) {
                            slots[idx[j]].buf = std::move(target);
                            slots[idx[j]].held = true;
                        }
                    }
                }
                lock.lock();
                // A straggler whose elements could not all be hedge-decoded
                // must be joined after all — correctness beats the
                // deadline. (Typical cause: every queue missed the deadline
                // at once, e.g. a saturated pool, so `avoid` left no disks
                // to decode from. A genuinely slow minority decodes fully
                // and this wait returns immediately.)
                state->cv.wait(lock, [&] {
                    for (std::size_t a : stragglers) {
                        if (state->queue_done[a] != 0) continue;
                        for (std::size_t j = queues[a].begin; j < queues[a].end; ++j) {
                            if (!slots[idx[j]].held) return false;
                        }
                    }
                    return true;
                });
            }
            // Harvest every queue that has finished by now — the decode
            // window above may have let a near-miss complete. Stragglers
            // stay orphaned; their elements were hedge-decoded instead.
            const std::vector<char> finished = state->queue_done;
            lock.unlock();
            for (std::size_t a = 0; a < state->queues.size(); ++a) {
                if (finished[a] == 0) continue;
                HedgeState::Queue& hq = state->queues[a];
                const std::size_t n = hq.end - hq.begin;
                if (rt != nullptr) {
                    const std::uint32_t batch_node = rt->complete(
                        fetch_node, "disk.batch", hq.issue_us, hq.dur_us,
                        {obs::RequestTrace::IntAttr{"disk", hq.disk},
                         {"elements", static_cast<std::int64_t>(n)},
                         {"done", static_cast<std::int64_t>(hq.done_ops)},
                         {"bytes", static_cast<std::int64_t>(hq.done_ops) * element_bytes_}});
                    if (!hq.status.ok()) rt->attr(batch_node, "error", hq.status.error().message);
                }
                if (tracer != nullptr) {
                    tracer->complete("disk.batch", "io", tracer->now_us() - hq.dur_us, hq.dur_us,
                                     {{"disk", std::to_string(hq.disk)},
                                      {"elements", std::to_string(n)}});
                }
                if (!hq.status.ok()) {
                    bad.push_back(hq.disk);
                    last_error = hq.status.error();
                }
                for (std::size_t j = hq.begin; j < hq.begin + hq.done_ops; ++j) {
                    Slot& slot = slots[idx[j]];
                    if (slot.held) continue;  // hedge-decoded already
                    slot.buf = std::move(state->bufs[j]);
                    slot.held = true;
                }
            }
        } else if (async_overlap) {
            struct Flight {
                std::unique_ptr<store::BlockDevice::AsyncBatch> batch;
                double issue_us = 0.0;     // tracer clock
                double rt_issue_us = 0.0;  // forensic clock
                std::chrono::steady_clock::time_point heat_t0;
            };
            const std::span<const ByteSpan> all_outs(outs);
            std::vector<Flight> flights(queues.size());
            for (std::size_t a = 0; a < queues.size(); ++a) {
                const core::DiskRun& queue = queues[a];
                Flight& f = flights[a];
                f.issue_us = tracer != nullptr ? tracer->now_us() : 0.0;
                f.rt_issue_us = rt != nullptr ? obs::forensic_now_us() : 0.0;
                f.heat_t0 = std::chrono::steady_clock::now();
                if (heat != nullptr) heat->on_issue(queue.disk);
                const std::size_t n = queue.end - queue.begin;
                f.batch = devices_[static_cast<std::size_t>(queue.disk)]->submit_read_batch(
                    rows.subspan(queue.begin, n), all_outs.subspan(queue.begin, n));
            }
            for (std::size_t a = 0; a < queues.size(); ++a) {
                const core::DiskRun& queue = queues[a];
                const std::size_t n = queue.end - queue.begin;
                Flight& f = flights[a];
                std::size_t done = 0;
                Status status = f.batch->await(&done);
                f.batch.reset();
                if (!status.ok() && status.error().code == Error::Code::io_error &&
                    opts.max_retries > 0 && done < n) {
                    // Recover the suffix through the policy path: the
                    // failed op and everything behind it get the retry /
                    // backoff machinery, re-reading over whatever the
                    // abandoned async ops may have scribbled.
                    std::size_t more = 0;
                    status = submit_queue(queue.disk, rows.subspan(queue.begin + done, n - done),
                                          all_outs.subspan(queue.begin + done, n - done), opts,
                                          &more, TraceCtx{rt, fetch_node});
                    done += more;
                }
                if (heat != nullptr) {
                    const double queue_us = std::chrono::duration<double, std::micro>(
                                                std::chrono::steady_clock::now() - f.heat_t0)
                                                .count();
                    const double now_s = obs::DiskHeatModel::now_seconds();
                    heat->on_complete(queue.disk, static_cast<std::int64_t>(done),
                                      static_cast<std::int64_t>(done) * element_bytes_, queue_us,
                                      now_s);
                    if (!status.ok() && status.error().code != Error::Code::timeout) {
                        heat->on_error(queue.disk, now_s);
                    }
                }
                if (rt != nullptr) {
                    const std::uint32_t batch_node = rt->complete(
                        fetch_node, "disk.batch", f.rt_issue_us,
                        obs::forensic_now_us() - f.rt_issue_us,
                        {obs::RequestTrace::IntAttr{"disk", queue.disk},
                         {"elements", static_cast<std::int64_t>(n)},
                         {"done", static_cast<std::int64_t>(done)},
                         {"bytes", static_cast<std::int64_t>(done) * element_bytes_}});
                    if (!status.ok()) rt->attr(batch_node, "error", status.error().message);
                }
                if (tracer != nullptr && status.ok()) {
                    tracer->complete("disk.batch", "io", f.issue_us,
                                     tracer->now_us() - f.issue_us,
                                     {{"disk", std::to_string(queue.disk)},
                                      {"elements", std::to_string(n)}});
                }
                // Let any recipe whose sources just completed decode now,
                // overlapping the disks still in flight.
                for (std::size_t j = 0; j < done; ++j) slots[idx[queue.begin + j]].held = true;
                if (!status.ok()) {
                    bad.push_back(queue.disk);
                    last_error = status.error();
                    continue;
                }
                // Partial mode cannot fail: recipes missing sources are
                // skipped and re-tried by the final decode stage.
                Status eager = try_decode(p, slots, /*partial=*/true, TraceCtx{rt, fetch_node}, dest);
                (void)eager;
            }
        } else if (pool_ != nullptr && queues.size() > 1) {
            parallel_for(*pool_, queues.size(), run_queue);
        } else {
            for (std::size_t a = 0; a < queues.size(); ++a) run_queue(a);
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
    return try_decode(plan, slots, /*partial=*/false, tc, dest);
}

Status PlanExecutor::try_decode(const AccessPlan& plan, std::vector<Slot>& slots, bool partial,
                                TraceCtx tc, ReadDest dest) const {
    const ExecutorMetrics& m = metrics();
    const std::size_t first = plan.fetches().size();
    std::vector<ConstByteSpan> srcs;
    std::vector<std::uint8_t> coeffs;
    std::vector<ByteSpan> target_span;
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
