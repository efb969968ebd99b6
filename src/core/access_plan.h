// AccessPlan: the I/O schedule a read planner emits.
//
// A plan lists every distinct element to fetch (each exactly once — reads
// are deduplicated across direct service and repair traffic), plus the
// per-group decode recipes needed to materialise elements that live on a
// failed disk. The simulator prices a plan; the store executes one.
//
// Everything a plan names is addressed by position, not by key: fetch i is
// plan slot i, decode recipe d's target is slot fetches().size() + d, each
// element the user asked for records its index in the request, and each
// decode term records the slot of its source. The executor keeps one flat
// array of per-request element state indexed the same way.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "codes/erasure_code.h"
#include "common/types.h"
#include "layout/layout.h"

namespace ecfrm::core {

/// One element fetch.
struct Access {
    Location loc;                 // physical slot to read
    layout::GroupCoord coord;     // candidate-code coordinates
    /// Index of this element in the user's request (0 = first element
    /// asked for), or -1 for a repair source nobody asked for.
    std::int64_t request = -1;

    bool requested() const { return request >= 0; }
};

/// Where a decode source lives in its plan: fetch i as i, or the target
/// of an earlier decode recipe d as -(d + 1). AccessPlan::slot() turns a
/// reference into a plan slot index.
using SlotRef = std::int32_t;

/// One disk's share of a plan: the vectored submission unit. This is the
/// schedule model shared by the executor (which issues each batch as
/// chunked read_batch calls), the cluster simulator (which prices each
/// batch as one job), and `ecfrm_cli explain` (which reports it) — so
/// simulated, explained and real execution can never drift. The spans
/// view the plan's flat schedule: valid while the plan lives unmodified.
struct DiskBatch {
    DiskId disk = -1;
    std::span<const std::size_t> fetch_indices;  // indices into fetches(), row-ascending
    std::span<const RowId> rows;                 // parallel to fetch_indices
};

/// One disk's range [begin, end) of the plan's flat schedule.
struct DiskRun {
    DiskId disk = -1;
    std::size_t begin = 0;
    std::size_t end = 0;
};

/// Decode recipe for one group that lost an element the user wants.
struct GroupDecode {
    StripeId stripe = 0;
    int group = 0;
    codes::ElementRepair repair;  // positions are candidate-code positions
    /// sources[t] is where repair.terms[t]'s source element lives.
    std::vector<SlotRef> sources;
    /// Index of the target in the user's request, or -1 (reconstruction).
    std::int64_t request = -1;
};

class AccessPlan {
  public:
    explicit AccessPlan(int disks) : per_disk_(static_cast<std::size_t>(disks), 0) {}

    /// Size the fetch list up front (planners know their request size).
    void reserve(std::size_t fetches) { fetches_.reserve(fetches); }

    /// Record a fetch; the caller guarantees it is not a duplicate.
    void add_fetch(const Access& access) {
        fetches_.push_back(access);
        ++per_disk_[static_cast<std::size_t>(access.loc.disk)];
    }

    /// Record a decode recipe; every source reference must already exist.
    void add_decode(GroupDecode decode) { decodes_.push_back(std::move(decode)); }

    const std::vector<Access>& fetches() const { return fetches_; }
    const std::vector<GroupDecode>& decodes() const { return decodes_; }
    const std::vector<int>& per_disk_loads() const { return per_disk_; }

    /// Plan slots: one per fetch, then one per decode target.
    std::size_t slots() const { return fetches_.size() + decodes_.size(); }
    std::size_t slot(SlotRef ref) const {
        return ref >= 0 ? static_cast<std::size_t>(ref)
                        : fetches_.size() + static_cast<std::size_t>(-(ref + 1));
    }
    static SlotRef decode_ref(std::size_t decode) { return -static_cast<SlotRef>(decode) - 1; }

    /// The per-disk schedule, flat: schedule_fetches() lists every fetch
    /// index grouped by disk (ascending) and row-sorted within a disk,
    /// schedule_rows() the parallel rows, and runs() one range per disk
    /// that serves at least one element. Built once, on first use after
    /// the last add_fetch(), or by build_schedule(); the planners build it
    /// before returning, so a planned AccessPlan may be shared read-only
    /// across threads.
    std::span<const std::size_t> schedule_fetches() const {
        build_schedule();
        return order_;
    }
    std::span<const RowId> schedule_rows() const {
        build_schedule();
        return order_rows_;
    }
    std::span<const DiskRun> runs() const {
        build_schedule();
        return runs_;
    }

    /// Fetches grouped per disk, row-sorted: one DiskBatch per disk that
    /// serves at least one element, in ascending disk order. The number of
    /// batches is the plan's fan-out.
    std::vector<DiskBatch> batches() const {
        build_schedule();
        std::vector<DiskBatch> out;
        out.reserve(runs_.size());
        const std::span<const std::size_t> order(order_);
        const std::span<const RowId> rows(order_rows_);
        for (const DiskRun& run : runs_) {
            out.push_back({run.disk, order.subspan(run.begin, run.end - run.begin),
                           rows.subspan(run.begin, run.end - run.begin)});
        }
        return out;
    }

    /// Elements fetched from the most-loaded disk — the quantity the paper
    /// argues bounds parallel read latency.
    int max_load() const {
        int max = 0;
        for (int v : per_disk_) max = std::max(max, v);
        return max;
    }

    /// Total distinct elements fetched.
    std::int64_t total_fetched() const { return static_cast<std::int64_t>(fetches_.size()); }

    /// Elements the user asked for (satisfied directly or via decode).
    std::int64_t requested() const { return requested_; }
    void set_requested(std::int64_t count) { requested_ = count; }

    /// Degraded read cost: total elements read per user element — the
    /// network-bandwidth metric of Figure 9(a)/(b).
    double cost() const {
        return requested_ == 0 ? 0.0
                               : static_cast<double>(total_fetched()) / static_cast<double>(requested_);
    }

    /// Counting sort by disk, then a row sort within each disk. Fetches
    /// only ever append, so a size mismatch means the schedule is stale.
    void build_schedule() const {
        if (order_.size() == fetches_.size()) return;
        runs_.assign(per_disk_.size(), DiskRun{});
        std::size_t at = 0;
        for (std::size_t d = 0; d < per_disk_.size(); ++d) {
            runs_[d] = {static_cast<DiskId>(d), at, at};
            at += static_cast<std::size_t>(per_disk_[d]);
        }
        order_.resize(fetches_.size());
        order_rows_.resize(fetches_.size());
        for (std::size_t i = 0; i < fetches_.size(); ++i) {
            order_[runs_[static_cast<std::size_t>(fetches_[i].loc.disk)].end++] = i;
        }
        std::size_t kept = 0;
        for (const DiskRun& run : runs_) {
            if (run.begin == run.end) continue;
            const auto first = order_.begin() + static_cast<std::ptrdiff_t>(run.begin);
            const auto last = order_.begin() + static_cast<std::ptrdiff_t>(run.end);
            std::sort(first, last, [this](std::size_t a, std::size_t b) {
                return fetches_[a].loc.row != fetches_[b].loc.row
                           ? fetches_[a].loc.row < fetches_[b].loc.row
                           : a < b;
            });
            for (std::size_t s = run.begin; s < run.end; ++s) {
                order_rows_[s] = fetches_[order_[s]].loc.row;
            }
            runs_[kept++] = run;
        }
        runs_.resize(kept);
    }

  private:
    std::vector<Access> fetches_;
    std::vector<GroupDecode> decodes_;
    std::vector<int> per_disk_;
    std::int64_t requested_ = 0;
    mutable std::vector<std::size_t> order_;
    mutable std::vector<RowId> order_rows_;
    mutable std::vector<DiskRun> runs_;
};

}  // namespace ecfrm::core
