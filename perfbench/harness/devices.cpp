#include "devices.h"

#include <algorithm>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "codes/factory.h"
#include "core/scheme.h"
#include "store/disk.h"
#include "store/stripe_store.h"

namespace perfbench {

namespace {

thread_local IoTally* t_tally = nullptr;
/// Service time of the read batch the thread last issued to a
/// ModeledDevice, until TimingDevice takes it.
thread_local std::optional<Clock::duration> t_modeled_service;

std::optional<Clock::duration> take_modeled_service() {
    return std::exchange(t_modeled_service, std::nullopt);
}

std::int64_t to_ns(Clock::duration d) {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(d).count();
}

std::int64_t elapsed_ns(Clock::time_point t0) { return to_ns(Clock::now() - t0); }

/// A read batch's time as TimingDevice charges it: a modeled batch's
/// service time, else the wall time since `t0`.
std::int64_t read_ns(Clock::time_point t0, std::optional<Clock::duration> service) {
    return service ? to_ns(*service) : elapsed_ns(t0);
}

/// A batch whose bytes already landed at submit; await() holds the caller
/// until the modeled completion instant.
class ModeledBatch final : public ecfrm::store::BlockDevice::AsyncBatch {
  public:
    ModeledBatch(Status status, std::size_t done, Clock::time_point finish)
        : status_(std::move(status)), done_(done), finish_(finish) {}

    Status await(std::size_t* completed) override {
        std::this_thread::sleep_until(finish_);
        if (completed != nullptr) *completed = done_;
        return status_;
    }

  private:
    Status status_;
    std::size_t done_;
    Clock::time_point finish_;
};

class TimedBatch final : public ecfrm::store::BlockDevice::AsyncBatch {
  public:
    TimedBatch(std::unique_ptr<AsyncBatch> inner, const TimingDevice& device, Clock::time_point t0,
               std::optional<Clock::duration> service)
        : inner_(std::move(inner)), device_(device), t0_(t0), service_(service) {}

    Status await(std::size_t* completed) override {
        Status status = inner_->await(completed);
        device_.record_read(read_ns(t0_, service_));
        return status;
    }

  private:
    std::unique_ptr<AsyncBatch> inner_;
    const TimingDevice& device_;
    Clock::time_point t0_;
    std::optional<Clock::duration> service_;
};

}  // namespace

ModeledDevice::ModeledDevice(std::unique_ptr<BlockDevice> inner, ecfrm::sim::DiskModel model,
                             double dilation, std::uint64_t seed)
    : inner_(std::move(inner)), model_(model), dilation_(dilation), rng_(seed) {}

Clock::time_point ModeledDevice::reserve(std::span<const RowId> rows) const {
    std::lock_guard<std::mutex> lock(mu_);
    const double seconds =
        model_.service_seconds(std::vector<RowId>(rows.begin(), rows.end()), rng_) / dilation_;
    const Clock::time_point start = std::max(Clock::now(), free_at_);
    free_at_ = start + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(seconds));
    t_modeled_service = free_at_ - start;
    return free_at_;
}

Status ModeledDevice::read(RowId row, ByteSpan out) const {
    const Clock::time_point finish = reserve(std::span<const RowId>(&row, 1));
    Status status = inner_->read(row, out);
    std::this_thread::sleep_until(finish);
    return status;
}

Status ModeledDevice::read_batch(std::span<const RowId> rows, std::span<const ByteSpan> outs,
                                 std::size_t* completed) const {
    const Clock::time_point finish = reserve(rows);
    Status status = inner_->read_batch(rows, outs, completed);
    std::this_thread::sleep_until(finish);
    return status;
}

std::unique_ptr<ecfrm::store::BlockDevice::AsyncBatch> ModeledDevice::submit_read_batch(
    std::span<const RowId> rows, std::span<const ByteSpan> outs) const {
    const Clock::time_point finish = reserve(rows);
    std::size_t done = 0;
    Status status = inner_->read_batch(rows, outs, &done);
    return std::make_unique<ModeledBatch>(std::move(status), done, finish);
}

double IoTally::max_disk_us() const {
    return *std::max_element(disk_us.begin(), disk_us.end());
}

void set_thread_tally(IoTally* tally) { t_tally = tally; }

void TimingDevice::record_read(std::int64_t ns) const {
    totals_.read_ns.fetch_add(ns, std::memory_order_relaxed);
    if (t_tally != nullptr) {
        const double us = static_cast<double>(ns) * 1e-3;
        ++t_tally->batches;
        t_tally->batch_us += us;
        t_tally->disk_us[static_cast<std::size_t>(disk_)] += us;
    }
}

void TimingDevice::record_write(Clock::time_point t0, std::int64_t bytes) const {
    totals_.write_batches.fetch_add(1, std::memory_order_relaxed);
    totals_.write_ns.fetch_add(elapsed_ns(t0), std::memory_order_relaxed);
    totals_.write_bytes.fetch_add(bytes, std::memory_order_relaxed);
}

Status TimingDevice::write(RowId row, ConstByteSpan data) {
    const Clock::time_point t0 = Clock::now();
    Status status = inner_->write(row, data);
    record_write(t0, static_cast<std::int64_t>(data.size()));
    return status;
}

Status TimingDevice::read(RowId row, ByteSpan out) const {
    take_modeled_service();
    const Clock::time_point t0 = Clock::now();
    Status status = inner_->read(row, out);
    record_read(read_ns(t0, take_modeled_service()));
    return status;
}

Status TimingDevice::read_batch(std::span<const RowId> rows, std::span<const ByteSpan> outs,
                                std::size_t* completed) const {
    take_modeled_service();
    const Clock::time_point t0 = Clock::now();
    Status status = inner_->read_batch(rows, outs, completed);
    record_read(read_ns(t0, take_modeled_service()));
    return status;
}

std::unique_ptr<ecfrm::store::BlockDevice::AsyncBatch> TimingDevice::submit_read_batch(
    std::span<const RowId> rows, std::span<const ByteSpan> outs) const {
    take_modeled_service();
    const Clock::time_point t0 = Clock::now();
    auto inner = inner_->submit_read_batch(rows, outs);
    return std::make_unique<TimedBatch>(std::move(inner), *this, t0, take_modeled_service());
}

Status TimingDevice::write_batch(std::span<const RowId> rows,
                                 std::span<const ConstByteSpan> payloads, std::size_t* completed) {
    const Clock::time_point t0 = Clock::now();
    Status status = inner_->write_batch(rows, payloads, completed);
    record_write(t0, static_cast<std::int64_t>(rows.size()) * inner_->element_bytes());
    return status;
}

std::string modeled_device_selfcheck(double dilation, double tolerance_us, double* overshoot_us) {
    using ecfrm::sim::DiskModel;
    using ecfrm::sim::DiskProfile;
    constexpr std::int64_t kElem = 4096;
    constexpr std::uint64_t kSeed = 77;
    const DiskModel model(DiskProfile::savvio_10k3(), 1 << 20);
    const auto micros = [](Clock::duration d) {
        return std::chrono::duration<double, std::micro>(d).count();
    };

    ModeledDevice dev(std::make_unique<ecfrm::store::Disk>(kElem), model, dilation, kSeed);
    std::vector<std::uint8_t> payload(kElem, 0x5a);
    for (RowId r = 0; r < 8; ++r) {
        if (!dev.write(r, payload).ok()) return "modeled device write failed";
    }
    // Replays the device's price sequence: same model, same seed, same
    // row sets in the same order.
    ecfrm::Rng reference(kSeed);
    const auto price_us = [&](const std::vector<RowId>& rows) {
        return model.service_seconds(rows, reference) / dilation * 1e6;
    };
    std::vector<std::uint8_t> a(kElem), b(kElem), c(kElem);
    const std::vector<RowId> rows_a{2, 3};
    const std::vector<RowId> rows_b{6};
    const std::vector<ByteSpan> outs_a{ByteSpan(a), ByteSpan(b)};
    const std::vector<ByteSpan> outs_b{ByteSpan(c)};

    // Lone batches, then pairs submitted back to back on one disk (the
    // second must start when the first ends). Finishing early is a bug in
    // any trial. Lateness is judged on the median of a round of trials,
    // and a late round is retried: a loaded host can delay any wake-up,
    // and for a while.
    constexpr int kTrials = 5;
    constexpr int kRounds = 3;
    double pair_overshoot_us = 0.0;
    for (int round = 0; round < kRounds; ++round) {
        std::vector<double> lone;
        std::vector<double> pair;
        for (int trial = 0; trial < kTrials; ++trial) {
            const double price = price_us(rows_a);
            const Clock::time_point t0 = Clock::now();
            auto batch = dev.submit_read_batch(rows_a, outs_a);
            if (!batch->await().ok()) return "modeled lone batch failed";
            const double took = micros(Clock::now() - t0);
            if (took < price) return "modeled lone batch finished before its price";
            if (a != payload || b != payload) return "modeled batch returned wrong bytes";
            lone.push_back(took - price);
        }
        for (int trial = 0; trial < kTrials; ++trial) {
            const double price_a = price_us(rows_a);
            const double price_b = price_us(rows_b);
            const Clock::time_point t0 = Clock::now();
            auto first = dev.submit_read_batch(rows_a, outs_a);
            auto second = dev.submit_read_batch(rows_b, outs_b);
            if (!first->await().ok() || !second->await().ok()) return "modeled batch pair failed";
            const double took = micros(Clock::now() - t0);
            if (took < price_a + price_b) return "two batches on one disk overlapped";
            pair.push_back(took - price_a - price_b);
        }
        std::sort(lone.begin(), lone.end());
        std::sort(pair.begin(), pair.end());
        *overshoot_us = lone[kTrials / 2];
        pair_overshoot_us = pair[kTrials / 2];
        if (*overshoot_us <= tolerance_us && pair_overshoot_us <= tolerance_us) break;
    }
    if (*overshoot_us > tolerance_us || pair_overshoot_us > tolerance_us) {
        return "modeled batches overshoot their price by " + std::to_string(*overshoot_us) +
               " us alone and " + std::to_string(pair_overshoot_us) + " us in pairs (median; " +
               "tolerance " + std::to_string(tolerance_us) + " us)";
    }

    // Through the store: a read touching every disk once must cost about
    // one batch, not the sum, or the executor is not overlapping disks.
    auto code = ecfrm::codes::make_code("rs:6,3");
    if (!code.ok()) return "rs:6,3 unavailable";
    auto store = ecfrm::store::StripeStore::open(
        ecfrm::core::Scheme(code.value(), ecfrm::layout::LayoutKind::ecfrm), kElem,
        [&](int index) -> ecfrm::Result<std::unique_ptr<ecfrm::store::BlockDevice>> {
            return std::unique_ptr<ecfrm::store::BlockDevice>(std::make_unique<ModeledDevice>(
                std::make_unique<ecfrm::store::Disk>(kElem), model, dilation,
                kSeed + static_cast<std::uint64_t>(index)));
        });
    if (!store.ok()) return "modeled store open failed";
    std::vector<std::uint8_t> fill(static_cast<std::size_t>(store.value()->stripe_data_bytes()), 7);
    if (!store.value()->append(fill).ok() || !store.value()->flush().ok()) {
        return "modeled store fill failed";
    }
    const int disks = store.value()->scheme().disks();
    double read_us = 0.0;
    for (int trial = 0; trial < kTrials; ++trial) {
        const Clock::time_point r0 = Clock::now();
        auto read = store.value()->read_bytes(0, disks * kElem);
        const double us = micros(Clock::now() - r0);
        if (!read.ok() || read.value() != std::vector<std::uint8_t>(read.value().size(), 7)) {
            return "modeled store read failed";
        }
        read_us = trial == 0 ? us : std::min(read_us, us);
    }
    const DiskProfile p = DiskProfile::savvio_10k3();
    const double min_price_us =
        (p.avg_seek_ms * (1.0 - p.seek_jitter) * 1e-3 + model.transfer_seconds()) / dilation * 1e6;
    if (read_us > 0.5 * disks * min_price_us) {
        return "a " + std::to_string(disks) + "-disk read took " + std::to_string(read_us) +
               " us: the executor is not overlapping modeled disks";
    }
    return {};
}

}  // namespace perfbench
