// StripeStore: end-to-end byte round-trips through encode, normal reads,
// degraded reads, multi-failure reads, reconstruction and parity audit.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <future>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "codes/factory.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "obs/metrics.h"
#include "obs/request_trace.h"
#include "store/fault_device.h"
#include "store/stripe_store.h"

namespace ecfrm::store {
namespace {

using layout::LayoutKind;

std::vector<std::uint8_t> random_bytes(std::size_t size, std::uint64_t seed) {
    Rng rng(seed);
    std::vector<std::uint8_t> data(size);
    for (auto& b : data) b = static_cast<std::uint8_t>(rng.next_below(256));
    return data;
}

core::Scheme make_scheme(const std::string& spec, LayoutKind kind) {
    auto code = codes::make_code(spec);
    EXPECT_TRUE(code.ok());
    return core::Scheme(code.value(), kind);
}

/// Leave a freed block of `size` bytes full of 0xA5 on the heap, so the
/// next allocation of that size (a read_bytes result) most likely starts
/// dirty instead of zeroed.
void dirty_heap(std::size_t size) {
    std::vector<std::uint8_t> dirty(size, 0xA5);
    asm volatile("" : : "g"(dirty.data()) : "memory");  // keep the fill
}

struct StoreParam {
    const char* spec;
    LayoutKind kind;
};

class StoreTest : public ::testing::TestWithParam<StoreParam> {};

TEST_P(StoreTest, ByteRoundTripNoFailure) {
    const auto [spec, kind] = GetParam();
    StripeStore store(make_scheme(spec, kind), 256);
    const auto data = random_bytes(256 * 100 + 37, 1);
    ASSERT_TRUE(store.append(ConstByteSpan(data.data(), data.size())).ok());
    ASSERT_TRUE(store.flush().ok());

    auto out = store.read_bytes(0, static_cast<std::int64_t>(data.size()));
    ASSERT_TRUE(out.ok());
    EXPECT_EQ(out.value(), data);

    // Unaligned inner slice.
    auto slice = store.read_bytes(1000, 777);
    ASSERT_TRUE(slice.ok());
    EXPECT_TRUE(std::memcmp(slice->data(), data.data() + 1000, 777) == 0);
}

// read_bytes allocates its result uninitialised, so every returned byte
// must be written by a device or by the decoder. With the heap dirtied
// first, healthy and degraded reads, whole, element-aligned and with
// partial head and tail elements, return exactly the written bytes.
TEST(StoreBytes, EveryReturnedByteIsWritten) {
    constexpr std::int64_t kElem = 256;
    for (const char* spec : {"rs:6,3", "lrc:6,2,2", "hhxor:6,4", "xor:5"}) {
        SCOPED_TRACE(spec);
        StripeStore store(make_scheme(spec, LayoutKind::ecfrm), kElem);
        const auto data = random_bytes(static_cast<std::size_t>(2 * store.stripe_data_bytes() + 100), 53);
        ASSERT_TRUE(store.append(ConstByteSpan(data.data(), data.size())).ok());
        ASSERT_TRUE(store.flush().ok());
        const auto total = static_cast<std::int64_t>(data.size());
        const std::pair<std::int64_t, std::int64_t> ranges[] = {
            {0, total},                           // whole object
            {kElem, 4 * kElem},                   // whole elements
            {kElem + 37, 3 * kElem - 37},         // partial head
            {2 * kElem, 3 * kElem + 91},          // partial tail
            {37, total - 48},                     // partial head and tail
            {kElem + 5, 100},                     // inside one element
        };
        for (const bool degraded : {false, true}) {
            SCOPED_TRACE(degraded ? "degraded" : "healthy");
            if (degraded) {
                ASSERT_TRUE(store.fail_disk(1).ok());
            }
            for (const auto& [offset, length] : ranges) {
                SCOPED_TRACE("offset " + std::to_string(offset) + " length " + std::to_string(length));
                dirty_heap(static_cast<std::size_t>(length));
                auto out = store.read_bytes(offset, length);
                ASSERT_TRUE(out.ok()) << out.error().message;
                ASSERT_EQ(static_cast<std::int64_t>(out->size()), length);
                EXPECT_TRUE(std::equal(out->begin(), out->end(), data.begin() + offset));
            }
        }
    }
}

TEST_P(StoreTest, ParityVerifiesAfterWrite) {
    const auto [spec, kind] = GetParam();
    StripeStore store(make_scheme(spec, kind), 128);
    const auto data = random_bytes(128 * 64, 2);
    ASSERT_TRUE(store.append(ConstByteSpan(data.data(), data.size())).ok());
    ASSERT_TRUE(store.flush().ok());
    EXPECT_TRUE(store.verify_parity().ok());
}

TEST_P(StoreTest, DegradedReadFromEveryFailedDisk) {
    const auto [spec, kind] = GetParam();
    auto scheme = make_scheme(spec, kind);
    const int disks = scheme.disks();
    const auto data = random_bytes(128 * 90, 3);

    for (DiskId failed = 0; failed < disks; ++failed) {
        StripeStore store(make_scheme(spec, kind), 128);
        ASSERT_TRUE(store.append(ConstByteSpan(data.data(), data.size())).ok());
        ASSERT_TRUE(store.flush().ok());
        ASSERT_TRUE(store.fail_disk(failed).ok());

        auto out = store.read_bytes(0, static_cast<std::int64_t>(data.size()));
        ASSERT_TRUE(out.ok()) << "failed disk " << failed << ": " << out.error().message;
        EXPECT_EQ(out.value(), data) << "failed disk " << failed;
    }
}

TEST_P(StoreTest, ReconstructionRestoresFullRedundancy) {
    const auto [spec, kind] = GetParam();
    StripeStore store(make_scheme(spec, kind), 64);
    const auto data = random_bytes(64 * 120, 4);
    ASSERT_TRUE(store.append(ConstByteSpan(data.data(), data.size())).ok());
    ASSERT_TRUE(store.flush().ok());

    ASSERT_TRUE(store.fail_disk(2).ok());
    auto stats = store.reconstruct_disk(2);
    ASSERT_TRUE(stats.ok()) << stats.error().message;
    EXPECT_GT(stats->elements_rebuilt, 0);
    EXPECT_GE(stats->elements_read, stats->elements_rebuilt);
    EXPECT_TRUE(store.failed_disks().empty());

    // After rebuild the array is byte-identical and parity-consistent.
    auto out = store.read_bytes(0, static_cast<std::int64_t>(data.size()));
    ASSERT_TRUE(out.ok());
    EXPECT_EQ(out.value(), data);
    EXPECT_TRUE(store.verify_parity().ok());
}

INSTANTIATE_TEST_SUITE_P(
    SchemesAndLayouts, StoreTest,
    ::testing::Values(StoreParam{"rs:6,3", LayoutKind::standard}, StoreParam{"rs:6,3", LayoutKind::rotated},
                      StoreParam{"rs:6,3", LayoutKind::ecfrm}, StoreParam{"lrc:6,2,2", LayoutKind::standard},
                      StoreParam{"lrc:6,2,2", LayoutKind::rotated}, StoreParam{"lrc:6,2,2", LayoutKind::ecfrm},
                      StoreParam{"rs:8,4", LayoutKind::ecfrm}, StoreParam{"lrc:8,2,3", LayoutKind::ecfrm}));

TEST(Store, MultiFailureReadWithinTolerance) {
    // RS(6,3) tolerates 3 failures; read through 2 and 3 concurrent ones.
    StripeStore store(make_scheme("rs:6,3", LayoutKind::ecfrm), 64);
    const auto data = random_bytes(64 * 90, 5);
    ASSERT_TRUE(store.append(ConstByteSpan(data.data(), data.size())).ok());
    ASSERT_TRUE(store.flush().ok());

    ASSERT_TRUE(store.fail_disk(0).ok());
    ASSERT_TRUE(store.fail_disk(4).ok());
    auto out2 = store.read_bytes(0, static_cast<std::int64_t>(data.size()));
    ASSERT_TRUE(out2.ok());
    EXPECT_EQ(out2.value(), data);

    ASSERT_TRUE(store.fail_disk(7).ok());
    auto out3 = store.read_bytes(0, static_cast<std::int64_t>(data.size()));
    ASSERT_TRUE(out3.ok());
    EXPECT_EQ(out3.value(), data);
}

TEST(Store, BeyondToleranceFailsCleanly) {
    StripeStore store(make_scheme("rs:6,3", LayoutKind::ecfrm), 64);
    const auto data = random_bytes(64 * 54, 6);
    ASSERT_TRUE(store.append(ConstByteSpan(data.data(), data.size())).ok());
    ASSERT_TRUE(store.flush().ok());
    for (DiskId d : {0, 1, 2, 3}) ASSERT_TRUE(store.fail_disk(d).ok());
    auto out = store.read_bytes(0, static_cast<std::int64_t>(data.size()));
    ASSERT_FALSE(out.ok());
    EXPECT_EQ(out.error().code, Error::Code::beyond_tolerance);
}

TEST(Store, SequentialReconstructionOfTwoFailures) {
    StripeStore store(make_scheme("lrc:6,2,2", LayoutKind::ecfrm), 64);
    const auto data = random_bytes(64 * 150, 7);
    ASSERT_TRUE(store.append(ConstByteSpan(data.data(), data.size())).ok());
    ASSERT_TRUE(store.flush().ok());

    ASSERT_TRUE(store.fail_disk(1).ok());
    ASSERT_TRUE(store.fail_disk(8).ok());
    ASSERT_TRUE(store.reconstruct_disk(1).ok());
    ASSERT_TRUE(store.reconstruct_disk(8).ok());
    EXPECT_TRUE(store.verify_parity().ok());
    auto out = store.read_bytes(0, static_cast<std::int64_t>(data.size()));
    ASSERT_TRUE(out.ok());
    EXPECT_EQ(out.value(), data);
}

TEST(Store, ThreadedEncodeMatchesSerial) {
    ThreadPool pool(4);
    const auto data = random_bytes(64 * 200, 8);

    StripeStore serial(make_scheme("lrc:6,2,2", LayoutKind::ecfrm), 64);
    StripeStore threaded(make_scheme("lrc:6,2,2", LayoutKind::ecfrm), 64, &pool);
    for (auto* s : {&serial, &threaded}) {
        ASSERT_TRUE(s->append(ConstByteSpan(data.data(), data.size())).ok());
        ASSERT_TRUE(s->flush().ok());
        EXPECT_TRUE(s->verify_parity().ok());
    }
    auto a = serial.read_bytes(0, static_cast<std::int64_t>(data.size()));
    auto b = threaded.read_bytes(0, static_cast<std::int64_t>(data.size()));
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(a.value(), b.value());
}

TEST(Store, ThreadedReconstruction) {
    ThreadPool pool(4);
    StripeStore store(make_scheme("rs:8,4", LayoutKind::ecfrm), 64, &pool);
    const auto data = random_bytes(64 * 240, 9);
    ASSERT_TRUE(store.append(ConstByteSpan(data.data(), data.size())).ok());
    ASSERT_TRUE(store.flush().ok());
    ASSERT_TRUE(store.fail_disk(5).ok());
    ASSERT_TRUE(store.reconstruct_disk(5).ok());
    auto out = store.read_bytes(0, static_cast<std::int64_t>(data.size()));
    ASSERT_TRUE(out.ok());
    EXPECT_EQ(out.value(), data);
}

TEST(Store, ErrorPaths) {
    StripeStore store(make_scheme("rs:6,3", LayoutKind::standard), 64);
    const auto data = random_bytes(64 * 12, 10);
    ASSERT_TRUE(store.append(ConstByteSpan(data.data(), data.size())).ok());

    // The 12 appended elements formed 2 full stripes: committed and
    // readable even while a fresh tail is buffered...
    ASSERT_TRUE(store.append(ConstByteSpan(data.data(), 10)).ok());
    EXPECT_EQ(store.committed_bytes(), 64 * 12);
    EXPECT_TRUE(store.read_bytes(0, 10).ok());
    // ...but the buffered tail itself is not readable until flush().
    EXPECT_FALSE(store.read_bytes(64 * 12, 10).ok());
    ASSERT_TRUE(store.flush().ok());
    EXPECT_TRUE(store.read_bytes(64 * 12, 10).ok());

    EXPECT_FALSE(store.read_bytes(-1, 5).ok());
    EXPECT_FALSE(store.read_bytes(0, static_cast<std::int64_t>(data.size()) + 100).ok());
    EXPECT_FALSE(store.fail_disk(99).ok());
    EXPECT_FALSE(store.reconstruct_disk(0).ok());  // not failed
    auto empty = store.read_bytes(5, 0);
    ASSERT_TRUE(empty.ok());
    EXPECT_TRUE(empty->empty());

    // Ranges whose end would overflow int64 are out of range, not wrapped
    // around into an allocation or an accepted read.
    const std::int64_t max = std::numeric_limits<std::int64_t>::max();
    auto huge = store.read_bytes(1, max);
    ASSERT_FALSE(huge.ok());
    EXPECT_EQ(huge.error().code, Error::Code::out_of_range);
    auto far = store.read_bytes(max, 1);
    ASSERT_FALSE(far.ok());
    EXPECT_EQ(far.error().code, Error::Code::out_of_range);
    std::vector<std::uint8_t> one(64);
    auto elements = store.read_elements(1, max, ByteSpan(one.data(), one.size()));
    ASSERT_FALSE(elements.ok());
    EXPECT_EQ(elements.error().code, Error::Code::out_of_range);
    auto overwrite = store.overwrite(max, ConstByteSpan(one.data(), one.size()));
    ASSERT_FALSE(overwrite.ok());
    EXPECT_EQ(overwrite.error().code, Error::Code::out_of_range);
}

TEST(Store, ReadBytesEdgesMatchReference) {
    // read_bytes reads whole elements straight into the returned buffer
    // and stages only a partial head or tail element. Sweep head offsets
    // {0, 1, eb-1} into an element and tail offsets {0, 1, eb-1} before
    // an element's end, for ranges inside one element and ranges that
    // cross element, stripe and extent boundaries. A flush followed by an
    // append leaves a padded first extent, so the second extent's
    // elements start mid-way through the logical stream.
    constexpr std::int64_t eb = 64;
    for (const char* spec : {"rs:6,3", "lrc:6,2,2"}) {
        StripeStore store(make_scheme(spec, LayoutKind::ecfrm), eb);
        const std::int64_t stripe = store.stripe_data_bytes() / eb;  // elements per stripe
        const auto first = random_bytes(static_cast<std::size_t>(eb * (stripe + 5) + 13), 41);
        const auto second = random_bytes(static_cast<std::size_t>(eb * 2 * stripe + 29), 42);
        ASSERT_TRUE(store.append(ConstByteSpan(first.data(), first.size())).ok());
        ASSERT_TRUE(store.flush().ok());
        ASSERT_TRUE(store.append(ConstByteSpan(second.data(), second.size())).ok());
        ASSERT_TRUE(store.flush().ok());
        ASSERT_EQ(store.extents().size(), 2u);
        std::vector<std::uint8_t> expect = first;
        expect.insert(expect.end(), second.begin(), second.end());
        const auto total = static_cast<std::int64_t>(expect.size());
        const std::int64_t second_start = store.extents()[1].logical_start;

        // Element starts to anchor ranges at: the first element, the last
        // element of a stripe, the first extent's last (partial) element,
        // and the second extent's first and stripe-ending elements.
        const std::int64_t last_of_first = static_cast<std::int64_t>(first.size()) / eb * eb;
        const std::vector<std::int64_t> anchors{
            0, eb, (stripe - 1) * eb, last_of_first, second_start, second_start + (stripe - 1) * eb};

        for (bool degraded : {false, true}) {
            if (degraded) {
                ASSERT_TRUE(store.fail_disk(1).ok());
            }
            int checked = 0;
            for (std::int64_t anchor : anchors) {
                for (std::int64_t head : {std::int64_t{0}, std::int64_t{1}, eb - 1}) {
                    for (std::int64_t tail : {std::int64_t{0}, std::int64_t{1}, eb - 1}) {
                        for (std::int64_t span : {std::int64_t{0}, std::int64_t{1}, std::int64_t{2}, stripe, 2 * stripe}) {
                            const std::int64_t offset = anchor + head;
                            const std::int64_t end =
                                std::min(anchor + (span + 1) * eb - tail, total);
                            if (offset >= end) continue;
                            SCOPED_TRACE(std::string(spec) + (degraded ? " degraded" : " healthy") +
                                         " offset " + std::to_string(offset) + " length " +
                                         std::to_string(end - offset));
                            auto got = store.read_bytes(offset, end - offset);
                            ASSERT_TRUE(got.ok()) << got.error().message;
                            ASSERT_EQ(static_cast<std::int64_t>(got->size()), end - offset);
                            ASSERT_TRUE(std::equal(got->begin(), got->end(),
                                                   expect.begin() + offset));
                            ++checked;
                        }
                    }
                }
            }
            EXPECT_GT(checked, 200);
        }
        // Whole-element reads of the healthy ranges above land in place;
        // the degraded decodes target the caller buffer too.
        EXPECT_EQ(store.assemble_staging_copies(), 0);
    }
}

TEST(Store, OverwriteUpdatesDataAndParityDeltas) {
    for (const char* spec : {"rs:6,3", "lrc:6,2,2"}) {
        for (LayoutKind kind : {LayoutKind::standard, LayoutKind::ecfrm}) {
            StripeStore store(make_scheme(spec, kind), 64);
            auto data = random_bytes(64 * 60 + 17, 31);
            ASSERT_TRUE(store.append(ConstByteSpan(data.data(), data.size())).ok());
            ASSERT_TRUE(store.flush().ok());

            // Overwrite an unaligned range spanning several elements.
            const std::int64_t offset = 64 * 3 + 11;
            auto patch = random_bytes(64 * 5 + 30, 32);
            ASSERT_TRUE(store.overwrite(offset, ConstByteSpan(patch.data(), patch.size())).ok());
            std::memcpy(data.data() + offset, patch.data(), patch.size());

            auto out = store.read_bytes(0, static_cast<std::int64_t>(data.size()));
            ASSERT_TRUE(out.ok());
            EXPECT_EQ(out.value(), data) << spec;
            // The delta-updated parity must be byte-identical to a full
            // re-encode (verify_parity recomputes from data).
            EXPECT_TRUE(store.verify_parity().ok()) << spec;

            // And the overwritten data must survive a disk failure.
            ASSERT_TRUE(store.fail_disk(0).ok());
            auto degraded = store.read_bytes(0, static_cast<std::int64_t>(data.size()));
            ASSERT_TRUE(degraded.ok());
            EXPECT_EQ(degraded.value(), data) << spec;
        }
    }
}

TEST(Store, OverwriteBoundsChecked) {
    StripeStore store(make_scheme("rs:6,3", LayoutKind::ecfrm), 64);
    const auto data = random_bytes(64 * 18, 33);
    ASSERT_TRUE(store.append(ConstByteSpan(data.data(), data.size())).ok());
    ASSERT_TRUE(store.flush().ok());

    std::vector<std::uint8_t> patch(10, 0xee);
    EXPECT_FALSE(store.overwrite(-1, ConstByteSpan(patch.data(), patch.size())).ok());
    EXPECT_FALSE(store.overwrite(64 * 18 - 5, ConstByteSpan(patch.data(), patch.size())).ok());
    EXPECT_TRUE(store.overwrite(64 * 18 - 10, ConstByteSpan(patch.data(), patch.size())).ok());
    EXPECT_TRUE(store.overwrite(0, ConstByteSpan(patch.data(), 0)).ok());  // empty is a no-op
}

TEST(Store, FlushThenAppendKeepsLogicalStreamContiguous) {
    // Regression: a padded flush mid-stream must not shift later bytes.
    StripeStore store(make_scheme("lrc:6,2,2", LayoutKind::ecfrm), 64);
    const auto first = random_bytes(64 * 7 + 13, 21);   // partial stripe
    const auto second = random_bytes(64 * 40 + 5, 22);  // spans stripes
    ASSERT_TRUE(store.append(ConstByteSpan(first.data(), first.size())).ok());
    ASSERT_TRUE(store.flush().ok());
    ASSERT_TRUE(store.append(ConstByteSpan(second.data(), second.size())).ok());
    ASSERT_TRUE(store.flush().ok());

    EXPECT_EQ(store.extents().size(), 2u);
    std::vector<std::uint8_t> expect = first;
    expect.insert(expect.end(), second.begin(), second.end());
    auto out = store.read_bytes(0, static_cast<std::int64_t>(expect.size()));
    ASSERT_TRUE(out.ok());
    EXPECT_EQ(out.value(), expect);

    // A read spanning the extent boundary exactly.
    auto spanning = store.read_bytes(static_cast<std::int64_t>(first.size()) - 20, 40);
    ASSERT_TRUE(spanning.ok());
    EXPECT_TRUE(std::equal(spanning->begin(), spanning->end(),
                           expect.begin() + static_cast<std::ptrdiff_t>(first.size()) - 20));
}

TEST(Store, DegradedWritesStayRecoverable) {
    // Write while a disk is down: elements homed there are skipped but the
    // group's parity still covers them; reads decode and rebuild restores.
    StripeStore store(make_scheme("rs:6,3", LayoutKind::ecfrm), 64);
    ASSERT_TRUE(store.fail_disk(2).ok());
    const auto data = random_bytes(64 * 54, 23);
    ASSERT_TRUE(store.append(ConstByteSpan(data.data(), data.size())).ok());
    ASSERT_TRUE(store.flush().ok());

    auto degraded = store.read_bytes(0, static_cast<std::int64_t>(data.size()));
    ASSERT_TRUE(degraded.ok());
    EXPECT_EQ(degraded.value(), data);

    ASSERT_TRUE(store.reconstruct_disk(2).ok());
    EXPECT_TRUE(store.verify_parity().ok());
    auto healthy = store.read_bytes(0, static_cast<std::int64_t>(data.size()));
    ASSERT_TRUE(healthy.ok());
    EXPECT_EQ(healthy.value(), data);
}

TEST(Store, ConcurrentDegradedReadsAreByteExact) {
    // Read-only concurrency: many threads reading (and decoding around a
    // failed disk) simultaneously must all see exact bytes. Devices
    // serialise internally; planners and decode are pure.
    ThreadPool pool(4);
    StripeStore store(make_scheme("lrc:6,2,2", LayoutKind::ecfrm), 64, &pool);
    const auto data = random_bytes(64 * 300, 61);
    ASSERT_TRUE(store.append(ConstByteSpan(data.data(), data.size())).ok());
    ASSERT_TRUE(store.flush().ok());
    ASSERT_TRUE(store.fail_disk(4).ok());

    std::atomic<int> failures{0};
    std::vector<std::thread> readers;
    for (int t = 0; t < 4; ++t) {
        readers.emplace_back([&, t] {
            Rng rng(100 + static_cast<std::uint64_t>(t));
            for (int i = 0; i < 40; ++i) {
                const std::int64_t offset = rng.next_range(0, static_cast<std::int64_t>(data.size()) - 2);
                const std::int64_t length =
                    rng.next_range(1, static_cast<std::int64_t>(data.size()) - offset);
                auto out = store.read_bytes(offset, length);
                if (!out.ok() ||
                    std::memcmp(out->data(), data.data() + offset, static_cast<std::size_t>(length)) != 0) {
                    failures.fetch_add(1);
                }
            }
        });
    }
    for (auto& r : readers) r.join();
    EXPECT_EQ(failures.load(), 0);
}

TEST(Store, EightReadersRaceOnlineWriterByteExact) {
    // The writer-lock contract under fire: a writer appending stripe
    // after stripe holds writer_mu_ across encode and device I/O but
    // excludes readers only for each manifest window, so eight readers
    // hammering the committed prefix must never block behind an encode
    // or observe a torn prefix. Every read is validated against the
    // expected byte stream at its offset; committed_bytes() is the
    // linearisation point (it can only grow).
    ThreadPool pool(4);
    StripeStore store(make_scheme("rs:4,2", LayoutKind::ecfrm), 64, &pool);
    const auto data = random_bytes(64 * 1200, 77);
    const std::size_t stripe = static_cast<std::size_t>(store.stripe_data_bytes());

    // Seed a few stripes so readers have something from the start.
    const std::size_t seeded = stripe * 3;
    ASSERT_TRUE(store.append(ConstByteSpan(data.data(), seeded)).ok());

    std::atomic<int> failures{0};
    std::atomic<bool> writer_done{false};
    std::thread writer([&] {
        std::size_t off = seeded;
        Rng rng(78);
        while (off < data.size()) {
            const std::size_t n =
                std::min(data.size() - off,
                         static_cast<std::size_t>(rng.next_range(1, static_cast<std::int64_t>(stripe) + 37)));
            if (!store.append(ConstByteSpan(data.data() + off, n)).ok()) {
                failures.fetch_add(1);
                break;
            }
            off += n;
        }
        if (!store.flush().ok()) failures.fetch_add(1);
        writer_done.store(true);
    });

    std::vector<std::thread> readers;
    for (int t = 0; t < 8; ++t) {
        readers.emplace_back([&, t] {
            Rng rng(200 + static_cast<std::uint64_t>(t));
            while (!writer_done.load()) {
                const std::int64_t committed = store.committed_bytes();
                if (committed < 2) continue;
                const std::int64_t offset = rng.next_range(0, committed - 2);
                const std::int64_t length = rng.next_range(1, committed - offset);
                auto out = store.read_bytes(offset, length);
                if (!out.ok() ||
                    std::memcmp(out->data(), data.data() + offset,
                                static_cast<std::size_t>(length)) != 0) {
                    failures.fetch_add(1);
                    break;
                }
            }
        });
    }
    writer.join();
    for (auto& r : readers) r.join();
    EXPECT_EQ(failures.load(), 0);

    auto out = store.read_bytes(0, static_cast<std::int64_t>(data.size()));
    ASSERT_TRUE(out.ok());
    EXPECT_EQ(out.value(), data);
    EXPECT_TRUE(store.verify_parity().ok());
}

TEST(Disk, FailureDropsContentAndReplaceComesBackEmpty) {
    Disk disk(16);
    std::vector<std::uint8_t> payload(16, 0xaa);
    ASSERT_TRUE(disk.write(3, ConstByteSpan(payload.data(), payload.size())).ok());
    std::vector<std::uint8_t> out(16);
    ASSERT_TRUE(disk.read(3, ByteSpan(out.data(), out.size())).ok());
    EXPECT_EQ(out, payload);

    disk.fail();
    EXPECT_TRUE(disk.failed());
    EXPECT_FALSE(disk.read(3, ByteSpan(out.data(), out.size())).ok());
    EXPECT_FALSE(disk.write(3, ConstByteSpan(payload.data(), payload.size())).ok());

    disk.replace();
    EXPECT_FALSE(disk.failed());
    EXPECT_FALSE(disk.read(3, ByteSpan(out.data(), out.size())).ok());  // empty after replace
    ASSERT_TRUE(disk.write(3, ConstByteSpan(payload.data(), payload.size())).ok());
    EXPECT_TRUE(disk.read(3, ByteSpan(out.data(), out.size())).ok());
}

TEST(Disk, SizeMismatchRejected) {
    Disk disk(16);
    std::vector<std::uint8_t> small(8, 1);
    EXPECT_FALSE(disk.write(0, ConstByteSpan(small.data(), small.size())).ok());
    std::vector<std::uint8_t> ok(16, 1);
    ASSERT_TRUE(disk.write(0, ConstByteSpan(ok.data(), ok.size())).ok());
    EXPECT_FALSE(disk.read(0, ByteSpan(small.data(), small.size())).ok());
}

// ---- Self-healing read path -----------------------------------------------

/// Store over FaultDevice-wrapped disks, metrics attached, fully written.
struct FaultyFixture {
    std::unique_ptr<StripeStore> store;
    obs::MetricRegistry metrics;
    std::vector<std::uint8_t> data;

    FaultyFixture(const std::string& spec, const FaultPlan& plan,
                  const RecoveryOptions& recovery, ThreadPool* pool = nullptr,
                  std::int64_t elem = 64) {
        auto opened = StripeStore::open(make_scheme(spec, LayoutKind::ecfrm), elem,
                                        faulty_memory_factory(elem, plan), pool);
        EXPECT_TRUE(opened.ok());
        store = std::move(opened).take();
        store->set_recovery(recovery);
        data = random_bytes(static_cast<std::size_t>(elem) * 90, 77);
        EXPECT_TRUE(store->append(ConstByteSpan(data.data(), data.size())).ok());
        EXPECT_TRUE(store->flush().ok());
        store->attach_observability(&metrics);  // after writes: count only reads
    }

    ~FaultyFixture() {
        // Detach before `metrics` dies: the swap drains any orphaned hedge
        // queue still feeding the registry's per-disk IoStats.
        if (store != nullptr) store->attach_observability(nullptr);
    }

    std::int64_t counter(const char* name) { return metrics.counter(name).value(); }
};

TEST(StoreRecovery, TransientReadErrorIsRetriedAndCounted) {
    FaultPlan plan;
    FaultRule eio;  // disk 2's first two read ops fail once each
    eio.kind = FaultKind::transient;
    eio.disk = 2;
    eio.op = FaultOp::read;
    eio.first_op = 0;
    eio.count = 2;
    plan.rules = {eio};
    RecoveryOptions recovery;
    recovery.max_retries = 2;
    FaultyFixture f("rs:6,3", plan, recovery);

    auto out = f.store->read_bytes(0, static_cast<std::int64_t>(f.data.size()));
    ASSERT_TRUE(out.ok()) << out.error().message;
    EXPECT_EQ(out.value(), f.data);
    EXPECT_GE(f.counter("ecfrm_store_retries_total"), 1);
    EXPECT_EQ(f.counter("ecfrm_store_replans_total"), 0);
}

TEST(StoreRecovery, DetectedCorruptionTriggersMidFlightReplan) {
    FaultPlan plan;
    FaultRule flip;  // disk 1's first read hits EDC-detected corruption
    flip.kind = FaultKind::bit_flip;
    flip.disk = 1;
    flip.first_op = 0;
    flip.count = 1;
    flip.detected = true;
    plan.rules = {flip};
    FaultyFixture f("rs:6,3", plan, RecoveryOptions{});

    auto out = f.store->read_bytes(0, static_cast<std::int64_t>(f.data.size()));
    ASSERT_TRUE(out.ok()) << out.error().message;
    EXPECT_EQ(out.value(), f.data);  // decoded around the damaged disk
    EXPECT_GE(f.counter("ecfrm_store_replans_total"), 1);
    EXPECT_GE(f.counter("ecfrm_store_degraded_reads_total"), 1);
    EXPECT_GE(f.counter("ecfrm_store_decodes_total"), 1);
}

TEST(StoreRecovery, SlowDiskTimesOutAndReadRoutesAround) {
    FaultPlan plan;
    FaultRule slow;  // disk 0 stalls every read far past the deadline
    slow.kind = FaultKind::latency;
    slow.disk = 0;
    slow.op = FaultOp::read;
    slow.first_op = 0;
    slow.count = 1'000'000;
    slow.latency_ms = 60.0;
    plan.rules = {slow};
    RecoveryOptions recovery;
    recovery.op_timeout_ms = 5.0;  // 12x margin against sanitizer slowdown
    FaultyFixture f("rs:6,3", plan, recovery);

    auto out = f.store->read_bytes(0, static_cast<std::int64_t>(f.data.size()));
    ASSERT_TRUE(out.ok()) << out.error().message;
    EXPECT_EQ(out.value(), f.data);
    EXPECT_GE(f.counter("ecfrm_store_timeouts_total"), 1);
    EXPECT_GE(f.counter("ecfrm_store_replans_total"), 1);
}

TEST(StoreRecovery, HedgedReadDecodesAroundStraggler) {
    FaultPlan plan;
    FaultRule slow;  // disk 0's first read ops straggle way past the hedge
    slow.kind = FaultKind::latency;
    slow.disk = 0;
    slow.op = FaultOp::read;
    slow.first_op = 0;
    slow.count = 4;
    slow.latency_ms = 120.0;
    plan.rules = {slow};
    RecoveryOptions recovery;
    recovery.hedge_ms = 10.0;
    ThreadPool pool(4);
    FaultyFixture f("rs:6,3", plan, recovery, &pool);

    auto out = f.store->read_bytes(0, static_cast<std::int64_t>(f.data.size()));
    ASSERT_TRUE(out.ok()) << out.error().message;
    EXPECT_EQ(out.value(), f.data);
    EXPECT_GE(f.counter("ecfrm_store_hedged_reads_total"), 1);
}

TEST(StoreRecovery, HedgeIgnoresQueuesThePoolHasNotStarted) {
    // A late pool is not a slow disk. With the only pool thread held far
    // past the hedge deadline, every queue of the read waits for it; the
    // deadline counts from each queue's own start, so none straggles and
    // nothing is hedged.
    RecoveryOptions recovery;
    recovery.hedge_ms = 5.0;  // each queue itself takes microseconds
    ThreadPool pool(1);
    FaultyFixture f("rs:6,3", FaultPlan{}, recovery, &pool);

    std::promise<void> holding;
    pool.submit([&holding] {
        holding.set_value();
        std::this_thread::sleep_for(std::chrono::milliseconds(40));
    });
    holding.get_future().wait();
    auto out = f.store->read_bytes(0, static_cast<std::int64_t>(f.data.size()));
    ASSERT_TRUE(out.ok()) << out.error().message;
    EXPECT_EQ(out.value(), f.data);
    EXPECT_EQ(f.counter("ecfrm_store_hedged_reads_total"), 0);
}

TEST(StoreRecovery, ForensicsCaptureReplannedReadWithTiledPhases) {
    // A detected-corruption read must leave a captured span tree behind:
    // recovery-active, reclassified degraded, and with per-phase
    // durations that tile the end-to-end latency.
    FaultPlan plan;
    FaultRule flip;
    flip.kind = FaultKind::bit_flip;
    flip.disk = 1;
    flip.first_op = 0;
    flip.count = 1;
    flip.detected = true;
    plan.rules = {flip};
    FaultyFixture f("rs:6,3", plan, RecoveryOptions{});

    obs::ForensicsOptions fopts;
    fopts.slow_threshold_us = -1.0;  // recovery is the only capture trigger
    obs::RequestForensics forensics(fopts);
    f.store->attach_observability(&f.metrics, nullptr, &forensics);

    auto out = f.store->read_bytes(0, static_cast<std::int64_t>(f.data.size()));
    ASSERT_TRUE(out.ok()) << out.error().message;
    EXPECT_EQ(out.value(), f.data);

    ASSERT_EQ(forensics.captured(), 1u);
    const auto exemplars = forensics.exemplars();
    ASSERT_EQ(exemplars.size(), 1u);
    const auto& rt = *exemplars[0];
    EXPECT_TRUE(rt.finished());
    EXPECT_TRUE(rt.ok());
    EXPECT_TRUE(rt.recovery_active());
    EXPECT_GE(rt.replans(), 1);
    EXPECT_GT(rt.decodes(), 0);
    EXPECT_EQ(rt.cls(), obs::RequestClass::degraded);  // reclassified mid-flight
    EXPECT_EQ(forensics.finished_total(obs::RequestClass::degraded), 1);
    EXPECT_EQ(forensics.finished_total(obs::RequestClass::normal), 0);

    // Phase attribution accounts for the whole request (same tolerance
    // the faultcamp audit enforces across all 42 cells).
    double phase_sum = 0.0;
    for (const auto& [name, us] : rt.phase_totals()) phase_sum += us;
    EXPECT_GT(rt.dur_us(), 0.0);
    EXPECT_LE(std::fabs(rt.dur_us() - phase_sum), std::max(0.05 * rt.dur_us(), 10.0))
        << "phases sum to " << phase_sum << " us of " << rt.dur_us() << " us";

    // The flip is persistent (the device EDC keeps reporting the row
    // corrupt), so a second read heals through the same ladder and is
    // captured as another degraded exemplar.
    auto again = f.store->read_bytes(0, static_cast<std::int64_t>(f.data.size()));
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(again.value(), f.data);
    EXPECT_EQ(forensics.captured(), 2u);
    EXPECT_EQ(forensics.finished_total(obs::RequestClass::degraded), 2);
    EXPECT_EQ(forensics.finished_total(obs::RequestClass::normal), 0);
    f.store->attach_observability(nullptr);
}

TEST(StoreRecovery, CorruptionEverywhereSurfacesBeyondTolerance) {
    FaultPlan plan;
    FaultRule flip;  // every disk's first read is detected-corrupt
    flip.kind = FaultKind::bit_flip;
    flip.disk = -1;
    flip.first_op = 0;
    flip.count = 1;
    flip.detected = true;
    plan.rules = {flip};
    FaultyFixture f("rs:6,3", plan, RecoveryOptions{});

    auto out = f.store->read_bytes(0, static_cast<std::int64_t>(f.data.size()));
    ASSERT_FALSE(out.ok());
    EXPECT_EQ(out.error().code, Error::Code::beyond_tolerance);
}

TEST(StoreRecovery, TornWritesAreHealedByWriteRetries) {
    FaultPlan plan;
    plan.seed = 9;
    plan.max_burst = 2;
    FaultRule torn;
    torn.kind = FaultKind::torn_write;
    torn.count = 1'000'000;
    torn.probability = 0.3;
    plan.rules = {torn};
    RecoveryOptions recovery;
    recovery.max_retries = 3;
    FaultyFixture f("lrc:6,2,2", plan, recovery);

    // The fixture's writes already ran over torn-write injection; if any
    // tear had escaped the retry layer, parity or payload would be wrong.
    auto out = f.store->read_bytes(0, static_cast<std::int64_t>(f.data.size()));
    ASSERT_TRUE(out.ok()) << out.error().message;
    EXPECT_EQ(out.value(), f.data);
    EXPECT_TRUE(f.store->verify_parity().ok());
}

}  // namespace
}  // namespace ecfrm::store
