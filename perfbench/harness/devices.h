// Bench-side BlockDevice decorators.
//
// ModeledDevice holds every read batch until the calibrated disk model
// says it is done, on a FIFO clock per disk: a batch starts when the disk
// frees up and occupies it for DiskModel::service_seconds / dilation.
// submit_read_batch is genuinely asynchronous (the clock runs while the
// caller submits to other disks), so PlanExecutor takes its cross-disk
// overlap path and a request costs its busiest disk, as in the paper.
// Writes pass through unpriced.
//
// TimingDevice forwards every call unchanged and times read and write
// batches from outside: per disk (busy time), per request (through a
// thread-local IoTally the calling client installs) and in total. A read
// batch of a ModeledDevice is charged its service time on the disk's FIFO
// clock, which leaves out both its wait for the disk to free up and, on
// the async path, its wait to be reaped after earlier queues. Any other
// read batch is charged its wall time, an async one from submit to the
// return of await(), so it includes the wait to be reaped.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>

#include "common/rng.h"
#include "sim/disk_model.h"
#include "store/block_device.h"

namespace perfbench {

using ecfrm::ByteSpan;
using ecfrm::ConstByteSpan;
using ecfrm::RowId;
using ecfrm::Status;
using Clock = std::chrono::steady_clock;

class ModeledDevice final : public ecfrm::store::BlockDevice {
  public:
    ModeledDevice(std::unique_ptr<BlockDevice> inner, ecfrm::sim::DiskModel model, double dilation,
                  std::uint64_t seed);

    std::int64_t element_bytes() const override { return inner_->element_bytes(); }
    Status write(RowId row, ConstByteSpan data) override { return inner_->write(row, data); }
    Status read(RowId row, ByteSpan out) const override;
    Status read_batch(std::span<const RowId> rows, std::span<const ByteSpan> outs,
                      std::size_t* completed = nullptr) const override;
    std::unique_ptr<AsyncBatch> submit_read_batch(std::span<const RowId> rows,
                                                  std::span<const ByteSpan> outs) const override;
    bool async_reads() const override { return true; }
    Status write_batch(std::span<const RowId> rows, std::span<const ConstByteSpan> payloads,
                       std::size_t* completed = nullptr) override {
        return inner_->write_batch(rows, payloads, completed);
    }
    void fail() override { inner_->fail(); }
    void replace() override { inner_->replace(); }
    bool failed() const override { return inner_->failed(); }
    RowId rows() const override { return inner_->rows(); }
    Status corrupt_byte(RowId row, std::size_t offset) override {
        return inner_->corrupt_byte(row, offset);
    }

  private:
    /// Reserve the disk for one batch: returns the instant the batch
    /// completes on this disk's FIFO clock.
    Clock::time_point reserve(std::span<const RowId> rows) const;

    std::unique_ptr<BlockDevice> inner_;
    ecfrm::sim::DiskModel model_;
    double dilation_;
    mutable std::mutex mu_;
    mutable ecfrm::Rng rng_;              // guarded by mu_
    mutable Clock::time_point free_at_{};  // guarded by mu_
};

/// Device I/O of one client request, collected by TimingDevice while the
/// client has it installed as the thread's current tally.
struct IoTally {
    static constexpr int kMaxDisks = 32;
    std::int64_t batches = 0;
    double batch_us = 0.0;
    std::array<double, kMaxDisks> disk_us{};

    void reset() { *this = IoTally{}; }
    double max_disk_us() const;
};

/// Install (or clear, with null) the calling thread's request tally.
void set_thread_tally(IoTally* tally);

/// Totals of one disk, accumulated since construction.
struct DiskTotals {
    std::atomic<std::int64_t> read_ns{0};
    std::atomic<std::int64_t> write_batches{0};
    std::atomic<std::int64_t> write_ns{0};
    std::atomic<std::int64_t> write_bytes{0};
};

class TimingDevice final : public ecfrm::store::BlockDevice {
  public:
    TimingDevice(std::unique_ptr<BlockDevice> inner, int disk, DiskTotals& totals)
        : inner_(std::move(inner)), disk_(disk), totals_(totals) {}

    std::int64_t element_bytes() const override { return inner_->element_bytes(); }
    Status write(RowId row, ConstByteSpan data) override;
    Status read(RowId row, ByteSpan out) const override;
    Status read_batch(std::span<const RowId> rows, std::span<const ByteSpan> outs,
                      std::size_t* completed = nullptr) const override;
    std::unique_ptr<AsyncBatch> submit_read_batch(std::span<const RowId> rows,
                                                  std::span<const ByteSpan> outs) const override;
    bool async_reads() const override { return inner_->async_reads(); }
    Status write_batch(std::span<const RowId> rows, std::span<const ConstByteSpan> payloads,
                       std::size_t* completed = nullptr) override;
    void fail() override { inner_->fail(); }
    void replace() override { inner_->replace(); }
    bool failed() const override { return inner_->failed(); }
    RowId rows() const override { return inner_->rows(); }
    Status corrupt_byte(RowId row, std::size_t offset) override {
        return inner_->corrupt_byte(row, offset);
    }

    /// Account one finished read batch that took `ns`.
    void record_read(std::int64_t ns) const;

  private:
    void record_write(Clock::time_point t0, std::int64_t bytes) const;

    std::unique_ptr<BlockDevice> inner_;
    int disk_;
    DiskTotals& totals_;
};

/// The modeled device's self-check: a lone batch takes its DiskModel
/// price, two batches submitted back to back on one disk serialise, and
/// a store over modeled devices overlaps a multi-disk read instead of
/// summing its batches. No batch may finish early; the median overshoot
/// of a round of 5 trials may not exceed `tolerance_us` in at least one
/// of 3 rounds. Returns an empty string on success, else what failed.
/// `*overshoot_us` receives the last round's median lone-batch overshoot.
std::string modeled_device_selfcheck(double dilation, double tolerance_us, double* overshoot_us);

}  // namespace perfbench
