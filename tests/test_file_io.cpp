// The file device (UringDisk) under both I/O backends, pread and uring.
//
// Pins the properties the io_uring work depends on: both backends are
// byte-identical on the same files, concurrent same-disk readers see
// consistent bytes without serializing, offsets survive >2 GiB files,
// batches coalesce, reject holes whole and persist, write batches need
// no flush without ECFRM_FSYNC, the async batch contract holds, the
// page-cache fast path serves cached batches without a ring and hands
// cold or partly cold ones to it, and the BufferPool arena behaves.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <thread>
#include <vector>

#include "codes/factory.h"
#include "common/buffer_pool.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "obs/metrics.h"
#include "store/io_backend.h"
#include "store/stripe_store.h"
#include "store/uring_disk.h"

namespace ecfrm::store {
namespace {

namespace fs = std::filesystem;

class TempDir {
  public:
    explicit TempDir(const std::string& tag) {
        path_ = (fs::temp_directory_path() /
                 ("ecfrm_test_" + tag + "_" + std::to_string(::getpid())))
                    .string();
        fs::remove_all(path_);
        fs::create_directories(path_);
    }
    ~TempDir() { fs::remove_all(path_); }
    const std::string& path() const { return path_; }

  private:
    std::string path_;
};

std::vector<std::uint8_t> random_bytes(std::size_t size, std::uint64_t seed) {
    Rng rng(seed);
    std::vector<std::uint8_t> data(size);
    for (auto& b : data) b = static_cast<std::uint8_t>(rng.next_below(256));
    return data;
}

const IoBackend kBackends[] = {IoBackend::pread, IoBackend::uring};

class BackendTest : public ::testing::TestWithParam<IoBackend> {};

// Both backends share one on-disk format: write with each backend, read
// back with either, bytes identical.
TEST(IoBackend, BackendsShareOnDiskFormat) {
    TempDir dir("backend_format");
    constexpr std::int64_t kElem = 64;
    const auto payload = random_bytes(static_cast<std::size_t>(kElem) * 8, 7);
    for (IoBackend writer : kBackends) {
        fs::remove_all(dir.path());
        fs::create_directories(dir.path());
        {
            auto disk = open_file_device(dir.path(), 0, kElem, writer);
            ASSERT_TRUE(disk.ok()) << to_string(writer);
            for (RowId r = 0; r < 8; ++r) {
                ASSERT_TRUE(disk.value()
                                ->write(r, ConstByteSpan(payload.data() + r * kElem, kElem))
                                .ok());
            }
        }
        for (IoBackend reader : kBackends) {
            auto disk = open_file_device(dir.path(), 0, kElem, reader);
            ASSERT_TRUE(disk.ok()) << to_string(reader);
            EXPECT_EQ(disk.value()->rows(), 8);
            std::vector<std::uint8_t> out(static_cast<std::size_t>(kElem) * 8);
            std::vector<RowId> rows;
            std::vector<ByteSpan> outs;
            for (RowId r = 0; r < 8; ++r) {
                rows.push_back(r);
                outs.emplace_back(out.data() + r * kElem, kElem);
            }
            ASSERT_TRUE(disk.value()->read_batch(rows, outs).ok())
                << to_string(writer) << " -> " << to_string(reader);
            EXPECT_TRUE(std::memcmp(out.data(), payload.data(), out.size()) == 0)
                << to_string(writer) << " -> " << to_string(reader);
        }
    }
}

// 8 readers hammer one disk with overlapping batch reads while checking
// every byte. Run under TSAN this also proves the shared-lock read path
// is race-free; the readers genuinely overlap (no stream-position mutex).
TEST_P(BackendTest, ConcurrentSameDiskReadersSeeConsistentBytes) {
    TempDir dir("backend_mt");
    constexpr std::int64_t kElem = 128;
    constexpr RowId kRows = 64;
    const auto payload = random_bytes(static_cast<std::size_t>(kElem) * kRows, 21);
    auto disk = open_file_device(dir.path(), 0, kElem, GetParam());
    ASSERT_TRUE(disk.ok());
    for (RowId r = 0; r < kRows; ++r) {
        ASSERT_TRUE(
            disk.value()->write(r, ConstByteSpan(payload.data() + r * kElem, kElem)).ok());
    }

    constexpr int kReaders = 8;
    std::vector<std::thread> readers;
    std::vector<int> failures(kReaders, 0);
    for (int t = 0; t < kReaders; ++t) {
        readers.emplace_back([&, t]() {
            Rng rng(1000 + static_cast<std::uint64_t>(t));
            std::vector<std::uint8_t> out(static_cast<std::size_t>(kElem) * 16);
            for (int iter = 0; iter < 50; ++iter) {
                const RowId base = static_cast<RowId>(rng.next_below(kRows - 16));
                const std::size_t n = 1 + rng.next_below(16);
                std::vector<RowId> rows;
                std::vector<ByteSpan> outs;
                for (std::size_t i = 0; i < n; ++i) {
                    // Mix of sequential and strided rows: exercises both
                    // coalesced runs and multi-SQE batches.
                    rows.push_back(base + static_cast<RowId>(iter % 2 == 0 ? i : 2 * (i % 8)));
                    outs.emplace_back(out.data() + i * kElem, kElem);
                }
                if (!disk.value()->read_batch(rows, outs).ok()) {
                    ++failures[t];
                    continue;
                }
                for (std::size_t i = 0; i < n; ++i) {
                    if (std::memcmp(out.data() + i * kElem, payload.data() + rows[i] * kElem,
                                    static_cast<std::size_t>(kElem)) != 0) {
                        ++failures[t];
                    }
                }
            }
        });
    }
    for (auto& th : readers) th.join();
    for (int t = 0; t < kReaders; ++t) EXPECT_EQ(failures[t], 0) << "reader " << t;
}

// Offsets are off_t, not long-truncated: a row whose byte offset exceeds
// 2^31 round-trips. The file stays sparse (tmpfs/disk-friendly) — only
// the touched elements occupy space.
TEST_P(BackendTest, OffsetsBeyondTwoGiB) {
    TempDir dir("backend_2gib");
    constexpr std::int64_t kElem = 1 << 20;  // 1 MiB elements
    // Row 2200 puts the element at ~2.15 GiB, past the 2^31 boundary.
    constexpr RowId kFarRow = 2200;
    auto disk = open_file_device(dir.path(), 0, kElem, GetParam());
    ASSERT_TRUE(disk.ok());
    const auto payload = random_bytes(kElem, 5);
    ASSERT_TRUE(
        disk.value()->write(kFarRow, ConstByteSpan(payload.data(), payload.size())).ok());
    std::vector<std::uint8_t> out(kElem);
    ASSERT_TRUE(disk.value()->read(kFarRow, ByteSpan(out.data(), out.size())).ok());
    EXPECT_TRUE(std::memcmp(out.data(), payload.data(), out.size()) == 0);

    std::error_code ec;
    const auto size = fs::file_size(fs::path(dir.path()) / "disk_0.dat", ec);
    ASSERT_FALSE(ec);
    EXPECT_GT(size, std::uint64_t{2} * 1024 * 1024 * 1024);
}

// A write batch needs no flush point without ECFRM_FSYNC: the device
// buffers nothing in userspace, so the flush counter stays at 0 however
// many elements the batch carries.
TEST_P(BackendTest, WriteBatchNeedsNoFlushWithoutFsync) {
    TempDir dir("backend_flush");
    constexpr std::int64_t kElem = 32;
    obs::MetricRegistry registry;
    auto disk = open_file_device(dir.path(), 0, kElem, GetParam());
    ASSERT_TRUE(disk.ok());
    const obs::IoStats stats = registry.disk_io_stats(0);
    disk.value()->attach_io_stats(stats);

    const auto payload = random_bytes(static_cast<std::size_t>(kElem) * 16, 3);
    std::vector<RowId> rows;
    std::vector<ConstByteSpan> payloads;
    for (RowId r = 0; r < 16; ++r) {
        rows.push_back(r);
        payloads.emplace_back(payload.data() + r * kElem, kElem);
    }
    ASSERT_TRUE(disk.value()->write_batch(rows, payloads).ok());
    ASSERT_NE(stats.flushes, nullptr);
    EXPECT_EQ(stats.flushes->value(), 0);
}

// Batch writes and reads over adjacent rows [2..5] (one coalesced run)
// plus scattered rows 8 and 11: batched reads match per-op reads, a read
// batch touching an unwritten hole is rejected whole with no element
// transferred ("ops past the prefix were not attempted"), and the batch
// writes, written-map bits for skipped rows included, survive a reopen.
TEST_P(BackendTest, BatchesRejectHolesWholeAndPersist) {
    const std::int64_t elem = 32;
    TempDir dir("backend_batch");
    const std::vector<RowId> rows = {2, 3, 4, 5, 8, 11};
    std::vector<std::vector<std::uint8_t>> payloads;
    for (RowId row : rows) {
        payloads.push_back(random_bytes(static_cast<std::size_t>(elem), 100 + row));
    }
    {
        auto disk = open_file_device(dir.path(), 0, elem, GetParam());
        ASSERT_TRUE(disk.ok());
        std::vector<ConstByteSpan> spans;
        for (auto& p : payloads) spans.emplace_back(p.data(), p.size());
        std::size_t completed = 0;
        ASSERT_TRUE(disk.value()->write_batch(rows, spans, &completed).ok());
        EXPECT_EQ(completed, rows.size());

        std::vector<std::vector<std::uint8_t>> bufs(rows.size(),
                                                    std::vector<std::uint8_t>(elem));
        std::vector<ByteSpan> outs;
        for (auto& b : bufs) outs.emplace_back(b.data(), b.size());
        ASSERT_TRUE(disk.value()->read_batch(rows, outs, &completed).ok());
        EXPECT_EQ(completed, rows.size());
        for (std::size_t i = 0; i < rows.size(); ++i) {
            std::vector<std::uint8_t> serial(static_cast<std::size_t>(elem));
            ASSERT_TRUE(
                disk.value()->read(rows[i], ByteSpan(serial.data(), serial.size())).ok());
            EXPECT_EQ(bufs[i], serial) << "row " << rows[i];
            EXPECT_EQ(bufs[i], payloads[i]) << "row " << rows[i];
        }

        const std::vector<RowId> holey = {4, 5, 6};
        std::vector<ByteSpan> houts(outs.begin(), outs.begin() + 3);
        completed = 99;
        EXPECT_FALSE(disk.value()->read_batch(holey, houts, &completed).ok());
        EXPECT_EQ(completed, 0u);
    }
    auto disk = open_file_device(dir.path(), 0, elem, GetParam());
    ASSERT_TRUE(disk.ok());
    EXPECT_EQ(disk.value()->rows(), 12);
    for (std::size_t i = 0; i < rows.size(); ++i) {
        std::vector<std::uint8_t> out(static_cast<std::size_t>(elem));
        ASSERT_TRUE(disk.value()->read(rows[i], ByteSpan(out.data(), out.size())).ok());
        EXPECT_EQ(out, payloads[i]) << "row " << rows[i];
    }
    std::vector<std::uint8_t> out(static_cast<std::size_t>(elem));
    EXPECT_FALSE(disk.value()->read(0, ByteSpan(out.data(), out.size())).ok());
    EXPECT_FALSE(disk.value()->read(6, ByteSpan(out.data(), out.size())).ok());
}

// The async batch contract: submission returns before await, buffers are
// filled by await() time, `completed` covers the full batch on success,
// and an abandoned (never-awaited) batch is safely drained by its
// destructor.
TEST_P(BackendTest, AsyncBatchContract) {
    TempDir dir("backend_async");
    constexpr std::int64_t kElem = 256;
    constexpr RowId kRows = 32;
    auto disk = open_file_device(dir.path(), 0, kElem, GetParam());
    ASSERT_TRUE(disk.ok());
    const auto payload = random_bytes(static_cast<std::size_t>(kElem) * kRows, 11);
    for (RowId r = 0; r < kRows; ++r) {
        ASSERT_TRUE(
            disk.value()->write(r, ConstByteSpan(payload.data() + r * kElem, kElem)).ok());
    }

    std::vector<std::uint8_t> out(static_cast<std::size_t>(kElem) * kRows);
    std::vector<RowId> rows;
    std::vector<ByteSpan> outs;
    for (RowId r = 0; r < kRows; ++r) {
        // Stride 2 (wrapping) so the uring backend must issue many SQEs.
        const RowId row = (2 * r) % kRows + (2 * r >= kRows ? 1 : 0);
        rows.push_back(row);
        outs.emplace_back(out.data() + r * kElem, kElem);
    }
    auto batch = disk.value()->submit_read_batch(rows, outs);
    ASSERT_NE(batch, nullptr);
    std::size_t completed = 0;
    ASSERT_TRUE(batch->await(&completed).ok());
    EXPECT_EQ(completed, static_cast<std::size_t>(kRows));
    for (RowId r = 0; r < kRows; ++r) {
        EXPECT_TRUE(std::memcmp(out.data() + r * kElem, payload.data() + rows[r] * kElem,
                                static_cast<std::size_t>(kElem)) == 0)
            << "row " << rows[r];
    }

    // Abandoned batch: destructor must drain in-flight kernel writes
    // before `out` dies (ASAN would catch a use-after-free here).
    { auto abandoned = disk.value()->submit_read_batch(rows, outs); }

    // Error batches: unwritten row reports a zero prefix.
    std::vector<RowId> bad_rows{0, kRows + 5};
    std::vector<std::uint8_t> bad_out(static_cast<std::size_t>(kElem) * 2);
    std::vector<ByteSpan> bad_outs{ByteSpan(bad_out.data(), kElem),
                                   ByteSpan(bad_out.data() + kElem, kElem)};
    auto bad = disk.value()->submit_read_batch(bad_rows, bad_outs);
    std::size_t bad_done = 99;
    EXPECT_FALSE(bad->await(&bad_done).ok());
    EXPECT_EQ(bad_done, 0u);
}

// Reads from a failed device fail, and a replaced device starts empty.
TEST_P(BackendTest, FailAndReplaceSemantics) {
    TempDir dir("backend_fail");
    constexpr std::int64_t kElem = 16;
    auto disk = open_file_device(dir.path(), 0, kElem, GetParam());
    ASSERT_TRUE(disk.ok());
    std::vector<std::uint8_t> payload(kElem, 0xab);
    ASSERT_TRUE(disk.value()->write(0, ConstByteSpan(payload.data(), payload.size())).ok());
    disk.value()->fail();
    EXPECT_TRUE(disk.value()->failed());
    std::vector<std::uint8_t> out(kElem);
    EXPECT_FALSE(disk.value()->read(0, ByteSpan(out.data(), out.size())).ok());
    EXPECT_FALSE(disk.value()
                     ->submit_read_batch(std::vector<RowId>{0},
                                         std::vector<ByteSpan>{ByteSpan(out.data(), kElem)})
                     ->await()
                     .ok());
    disk.value()->replace();
    EXPECT_FALSE(disk.value()->failed());
    EXPECT_EQ(disk.value()->rows(), 0);
    ASSERT_TRUE(disk.value()->write(2, ConstByteSpan(payload.data(), payload.size())).ok());
    ASSERT_TRUE(disk.value()->read(2, ByteSpan(out.data(), out.size())).ok());
    EXPECT_EQ(out, payload);
}

// --- Page-cache fast path --------------------------------------------
//
// One page per row, so a row range is exactly a page range to evict.
constexpr std::int64_t kPageElem = 4096;
constexpr RowId kPageRows = 16;

/// Drop [first, first + count) rows of the data file at `path` from the
/// page cache as a cold read would find them: fdatasync, then
/// POSIX_FADV_DONTNEED. True when mincore confirms no page of the range
/// is resident.
bool evict_rows(const std::string& path, RowId first, RowId count) {
    const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0) return false;
    const auto offset = static_cast<off_t>(first * kPageElem);
    const auto len = static_cast<std::size_t>(count * kPageElem);
    bool evicted = ::fdatasync(fd) == 0 &&
                   ::posix_fadvise(fd, offset, static_cast<off_t>(len), POSIX_FADV_DONTNEED) == 0;
    void* map = ::mmap(nullptr, len, PROT_READ, MAP_SHARED, fd, offset);
    if (map == MAP_FAILED) {
        evicted = false;
    } else {
        std::vector<unsigned char> resident(static_cast<std::size_t>(count));
        evicted = evicted && ::mincore(map, len, resident.data()) == 0 &&
                  std::none_of(resident.begin(), resident.end(),
                               [](unsigned char page) { return (page & 1) != 0; });
        ::munmap(map, len);
    }
    ::close(fd);
    return evicted;
}

/// A device of kPageRows written rows with per-disk metrics attached.
struct PageRig {
    explicit PageRig(const std::string& tag, IoBackend backend) : dir(tag) {
        auto opened = UringDisk::open(dir.path(), 0, kPageElem, backend);
        EXPECT_TRUE(opened.ok());
        if (!opened.ok()) return;
        disk = std::move(opened).take();
        stats = registry.disk_io_stats(0);
        disk->attach_io_stats(stats);
        payload = random_bytes(static_cast<std::size_t>(kPageElem * kPageRows), 61);
        for (RowId r = 0; r < kPageRows; ++r) {
            EXPECT_TRUE(disk->write(r, ConstByteSpan(payload.data() + r * kPageElem, kPageElem)).ok());
        }
    }

    /// Read `rows` as one batch into fresh buffers, element i at slot
    /// `slot[i]` of one contiguous buffer; true when every byte matches.
    bool read_exact(const std::vector<RowId>& rows, const std::vector<std::size_t>& slot) {
        std::vector<std::uint8_t> out(rows.size() * kPageElem, 0x5A);
        std::vector<ByteSpan> outs;
        for (std::size_t i = 0; i < rows.size(); ++i) {
            outs.emplace_back(out.data() + slot[i] * kPageElem, kPageElem);
        }
        std::size_t completed = 0;
        if (!disk->submit_read_batch(rows, outs)->await(&completed).ok()) return false;
        if (completed != rows.size()) return false;
        for (std::size_t i = 0; i < rows.size(); ++i) {
            if (std::memcmp(outs[i].data(), payload.data() + rows[i] * kPageElem, kPageElem) != 0) {
                return false;
            }
        }
        return true;
    }

    std::int64_t cached() const { return stats.cached_batches->value(); }
    std::int64_t read_ops() const { return stats.read_ops->value(); }

    TempDir dir;
    obs::MetricRegistry registry;
    obs::IoStats stats;
    std::unique_ptr<UringDisk> disk;
    std::vector<std::uint8_t> payload;
};

std::vector<std::size_t> in_order(std::size_t n) {
    std::vector<std::size_t> slot(n);
    for (std::size_t i = 0; i < n; ++i) slot[i] = i;
    return slot;
}

// A batch the page cache holds (the rows were just written) is served by
// the fast path: byte-exact, counted as a cached batch, so no ring saw
// it. The batch mixes a run whose destinations are one memory run with a
// run whose destinations are scattered. A batch of more runs than the
// fast path takes goes to the ring, and the pread backend never takes
// the fast path.
TEST_P(BackendTest, CachedBatchIsExactWithoutRingSubmission) {
    static_assert(UringDisk::kMaxCachedRuns == 3, "the batches below straddle the limit");
    PageRig rig("fast_cached", GetParam());
    ASSERT_NE(rig.disk, nullptr);
    const std::vector<RowId> rows = {0, 1, 2, 3, 6, 7, 12};   // 3 runs
    const std::vector<std::size_t> slot = {0, 1, 2, 3, 5, 4, 6};  // rows 6, 7 land swapped
    ASSERT_TRUE(rig.read_exact(rows, slot));
    EXPECT_EQ(rig.cached(), rig.disk->uring_active() ? 1 : 0);

    const std::vector<RowId> many = {0, 2, 4, 6};  // 4 runs
    ASSERT_TRUE(rig.read_exact(many, in_order(many.size())));
    EXPECT_EQ(rig.cached(), rig.disk->uring_active() ? 1 : 0);
}

// After fdatasync + POSIX_FADV_DONTNEED on the device's own data file,
// RWF_NOWAIT finds the pages missing, so the batch goes to the ring and is
// still byte-exact; once the ring has read the pages back in, the same
// batch is cached again.
TEST_P(BackendTest, EvictedBatchFallsBackToRing) {
    PageRig rig("fast_evicted", GetParam());
    ASSERT_NE(rig.disk, nullptr);
    const std::vector<RowId> rows = {0, 1, 2, 3, 4, 5, 9, 11};
    const bool evicted = evict_rows(rig.disk->data_path(), 0, kPageRows);
    ASSERT_TRUE(rig.read_exact(rows, in_order(rows.size())));
    ASSERT_TRUE(rig.read_exact(rows, in_order(rows.size())));
    if (!evicted) GTEST_SKIP() << "the page cache kept the evicted range; fallback unobserved";
    EXPECT_EQ(rig.cached(), rig.disk->uring_active() ? 1 : 0);
}

// One run of every row, with rows 5-8 evicted: RWF_NOWAIT stops short at
// the first missing page, and the ring re-reads the whole batch.
TEST_P(BackendTest, PartlyCachedRunIsExact) {
    PageRig rig("fast_partial", GetParam());
    ASSERT_NE(rig.disk, nullptr);
    std::vector<RowId> rows;
    for (RowId r = 0; r < kPageRows; ++r) rows.push_back(r);
    const bool evicted = evict_rows(rig.disk->data_path(), 5, 4);
    ASSERT_TRUE(rig.read_exact(rows, in_order(rows.size())));
    if (!evicted) GTEST_SKIP() << "the page cache kept the evicted range; fallback unobserved";
    EXPECT_EQ(rig.cached(), 0);
}

// io_stats counts a batch once whichever path serves it: a fast-path
// batch and a batch that missed and went to the ring each add their
// elements to read_ops exactly once and leave nothing in flight.
TEST_P(BackendTest, IoStatsCountEachBatchOnce) {
    PageRig rig("fast_stats", GetParam());
    ASSERT_NE(rig.disk, nullptr);
    const std::vector<RowId> rows = {2, 3, 4, 10, 14};
    ASSERT_TRUE(rig.read_exact(rows, in_order(rows.size())));
    EXPECT_EQ(rig.read_ops(), 5);
    (void)evict_rows(rig.disk->data_path(), 0, kPageRows);
    ASSERT_TRUE(rig.read_exact(rows, in_order(rows.size())));
    EXPECT_EQ(rig.read_ops(), 10);
    EXPECT_EQ(rig.stats.read_errors->value(), 0);
    EXPECT_EQ(rig.stats.in_flight->value(), 0.0);
}

INSTANTIATE_TEST_SUITE_P(AllBackends, BackendTest, ::testing::ValuesIn(kBackends),
                         [](const auto& info) { return to_string(info.param); });

TEST(IoBackendSelection, DefaultIsUringOnlyWhenAvailable) {
    EXPECT_EQ(default_io_backend(),
              UringDisk::uring_available() ? IoBackend::uring : IoBackend::pread);
    EXPECT_STREQ(to_string(IoBackend::pread), "pread");
    EXPECT_STREQ(to_string(IoBackend::uring), "uring");
}

TEST(IoBackendSelection, UringDegradesToPreadWhenUnavailable) {
    // The uring backend on a kernel without io_uring (or an
    // ECFRM_WITH_URING=OFF build) must still produce a working device.
    TempDir dir("backend_degrade");
    auto disk = UringDisk::open(dir.path(), 0, 32, IoBackend::uring);
    ASSERT_TRUE(disk.ok());
    if (!UringDisk::uring_available()) {
        EXPECT_FALSE(disk.value()->uring_active());
    }
    std::vector<std::uint8_t> payload(32, 0x42);
    ASSERT_TRUE(disk.value()->write(0, ConstByteSpan(payload.data(), payload.size())).ok());
    std::vector<std::uint8_t> out(32);
    ASSERT_TRUE(disk.value()->read(0, ByteSpan(out.data(), out.size())).ok());
    EXPECT_EQ(out, payload);
}

// The zero-copy guarantee: on both backends, element-granular reads route
// each requested data element straight into the caller's buffer (fetched
// there by the device, or — degraded — decoded there), so the assemble
// stage copies nothing, whether the executor runs its disk queues inline
// or on a thread pool. The store's staging-copy counter is the witness.
TEST_P(BackendTest, HealthyReadsPerformZeroStagingCopies) {
    const IoBackend backend = GetParam();
    ThreadPool pool(3);
    for (ThreadPool* executor_pool : {static_cast<ThreadPool*>(nullptr), &pool}) {
        SCOPED_TRACE(executor_pool != nullptr ? "pool" : "no pool");
        TempDir dir(executor_pool != nullptr ? "zerocopy_pool" : "zerocopy");
        const std::int64_t elem = 512;
        auto code = codes::make_code("rs:6,3");
        ASSERT_TRUE(code.ok());
        auto opened = StripeStore::open(
            core::Scheme(code.value(), layout::LayoutKind::ecfrm), elem,
            [&](int index) -> Result<std::unique_ptr<BlockDevice>> {
                return open_file_device(dir.path(), index, elem, backend);
            },
            executor_pool);
        ASSERT_TRUE(opened.ok()) << opened.error().message;
        auto store = std::move(opened).take();

        const auto payload = random_bytes(static_cast<std::size_t>(40 * elem), 77);
        ASSERT_TRUE(store->append(ConstByteSpan(payload.data(), payload.size())).ok());
        ASSERT_TRUE(store->flush().ok());

        // Healthy path: whole range plus a sweep of strided sub-ranges.
        const std::int64_t payload_elems = 40;
        std::vector<std::uint8_t> out(payload.size());
        ASSERT_TRUE(store->read_elements(0, payload_elems, ByteSpan(out.data(), out.size())).ok());
        EXPECT_EQ(out, payload);
        for (std::int64_t start = 0; start + 3 <= payload_elems; start += 7) {
            std::vector<std::uint8_t> part(static_cast<std::size_t>(3 * elem));
            ASSERT_TRUE(store->read_elements(start, 3, ByteSpan(part.data(), part.size())).ok());
            ASSERT_EQ(0, std::memcmp(part.data(), payload.data() + start * elem, part.size()));
        }
        EXPECT_EQ(store->assemble_staging_copies(), 0);

        // Degraded path: the lost data elements are decoded directly into
        // the caller buffer, so even this read stays copy-free.
        ASSERT_TRUE(store->fail_disk(1).ok());
        std::fill(out.begin(), out.end(), 0);
        ASSERT_TRUE(store->read_elements(0, payload_elems, ByteSpan(out.data(), out.size())).ok());
        EXPECT_EQ(out, payload);
        EXPECT_EQ(store->assemble_staging_copies(), 0);
    }
}

TEST(BufferPool, AcquireReleaseAndHeapFallback) {
    BufferPool pool(1024, 4);
    EXPECT_EQ(pool.available(), 4u);
    {
        std::vector<PooledBuffer> held;
        for (int i = 0; i < 4; ++i) {
            auto b = pool.acquire();
            EXPECT_TRUE(b.pooled());
            EXPECT_EQ(b.size(), 1024u);
            EXPECT_TRUE(pool.contains(b.data(), b.size()));
            // Zeroed on acquire.
            EXPECT_EQ(b.data()[0], 0);
            EXPECT_EQ(b.data()[1023], 0);
            b.data()[0] = 0xff;  // dirty it for the next acquire check
            held.push_back(std::move(b));
        }
        EXPECT_EQ(pool.available(), 0u);
        auto spill = pool.acquire();  // exhausted: heap fallback, still usable
        EXPECT_FALSE(spill.pooled());
        EXPECT_FALSE(pool.contains(spill.data(), spill.size()));
        EXPECT_EQ(spill.size(), 1024u);
        EXPECT_GE(pool.exhausted_acquires(), 1);
    }
    EXPECT_EQ(pool.available(), 4u);  // all slabs returned
    auto reused = pool.acquire();
    EXPECT_EQ(reused.data()[0], 0);  // re-zeroed after dirty release

    // Slabs are 64-byte aligned inside a page-aligned arena (SIMD +
    // registered-buffer requirement).
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(pool.arena()) % BufferPool::kArenaAlignment, 0u);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(reused.data()) % 64, 0u);
}

TEST(BufferPool, ElementBufOwnedAndExternal) {
    BufferPool pool(64, 2);
    auto owned = ElementBuf::alloc(48, &pool);
    EXPECT_FALSE(owned.external());
    EXPECT_EQ(owned.size(), 48u);
    EXPECT_TRUE(pool.contains(owned.data(), owned.size()));

    auto heap = ElementBuf::alloc(128, &pool);  // larger than slab: heap
    EXPECT_FALSE(heap.external());
    EXPECT_FALSE(pool.contains(heap.data(), heap.size()));

    std::vector<std::uint8_t> caller(32, 0x77);
    auto ext = ElementBuf::external(ByteSpan(caller.data(), caller.size()));
    EXPECT_TRUE(ext.external());
    EXPECT_EQ(ext.data(), caller.data());
    ext.span()[0] = 0x11;
    EXPECT_EQ(caller[0], 0x11);  // writes land in caller memory
}

}  // namespace
}  // namespace ecfrm::store
