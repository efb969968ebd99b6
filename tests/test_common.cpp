// Common-substrate tests: Result, RNG determinism, aligned buffers,
// thread pool, percentile edges, logging.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <set>
#include <vector>

#include "common/aligned_buffer.h"
#include "common/logging.h"
#include "common/result.h"
#include "common/stats.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "common/types.h"

namespace ecfrm {
namespace {

TEST(Result, HoldsValue) {
    Result<int> r(42);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(*r, 42);
}

TEST(Result, HoldsError) {
    Result<int> r(Error::undecodable("nope"));
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error().code, Error::Code::undecodable);
    EXPECT_EQ(r.error().message, "nope");
}

TEST(Result, MoveOut) {
    Result<std::vector<int>> r(std::vector<int>{1, 2, 3});
    ASSERT_TRUE(r.ok());
    std::vector<int> v = std::move(r).take();
    EXPECT_EQ(v.size(), 3u);
}

TEST(Status, DefaultIsSuccess) {
    Status s;
    EXPECT_TRUE(s.ok());
    Status f(Error::io("disk on fire"));
    EXPECT_FALSE(f.ok());
    EXPECT_EQ(f.error().code, Error::Code::io_error);
}

// Bytes, the buffer StripeStore::read_bytes returns: views as a
// ConstByteSpan, compares with std::vector<uint8_t> either way round, and
// fills and copies like std::vector (only sized construction skips the
// zero-fill).
TEST(Bytes, ViewsAndComparesLikeAByteVector) {
    Bytes bytes(3);
    bytes[0] = 1;
    bytes[1] = 2;
    bytes[2] = 3;
    const std::vector<std::uint8_t> same = {1, 2, 3};
    const std::vector<std::uint8_t> shorter = {1, 2};
    EXPECT_TRUE(bytes == same);
    EXPECT_TRUE(same == bytes);
    EXPECT_TRUE(bytes != shorter);
    EXPECT_EQ(bytes, same);

    const ConstByteSpan view = bytes;
    EXPECT_EQ(view.data(), bytes.data());
    EXPECT_EQ(view.size(), 3u);

    const Bytes filled(4, 0x7f);
    EXPECT_EQ(filled, std::vector<std::uint8_t>(4, 0x7f));
    const Bytes copy = filled;
    EXPECT_EQ(copy, filled);
}

TEST(Rng, DeterministicAcrossInstances) {
    Rng a(123), b(123);
    for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i) {
        if (a.next_u64() == b.next_u64()) ++same;
    }
    EXPECT_LT(same, 3);
}

TEST(Rng, NextBelowIsInRange) {
    Rng rng(77);
    for (std::uint64_t bound : {1ULL, 2ULL, 10ULL, 255ULL, 1000000ULL}) {
        for (int i = 0; i < 1000; ++i) {
            EXPECT_LT(rng.next_below(bound), bound);
        }
    }
}

TEST(Rng, NextRangeCoversEndpoints) {
    Rng rng(5);
    std::set<std::int64_t> seen;
    for (int i = 0; i < 2000; ++i) seen.insert(rng.next_range(3, 7));
    EXPECT_EQ(seen.size(), 5u);
    EXPECT_EQ(*seen.begin(), 3);
    EXPECT_EQ(*seen.rbegin(), 7);
}

TEST(Rng, DoubleIsInUnitInterval) {
    Rng rng(9);
    double min = 1.0, max = 0.0;
    for (int i = 0; i < 10000; ++i) {
        const double d = rng.next_double();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
        min = std::min(min, d);
        max = std::max(max, d);
    }
    EXPECT_LT(min, 0.05);
    EXPECT_GT(max, 0.95);
}

TEST(AlignedBuffer, ZeroInitialisedAndAligned) {
    AlignedBuffer buf(1000);
    EXPECT_EQ(buf.size(), 1000u);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(buf.data()) % AlignedBuffer::kAlignment, 0u);
    for (std::size_t i = 0; i < buf.size(); ++i) EXPECT_EQ(buf[i], 0);
}

TEST(AlignedBuffer, DeepCopy) {
    AlignedBuffer a(16);
    a.fill(0xab);
    AlignedBuffer b = a;
    b[0] = 0xcd;
    EXPECT_EQ(a[0], 0xab);
    EXPECT_EQ(b[0], 0xcd);
}

TEST(AlignedBuffer, MoveLeavesSourceEmpty) {
    AlignedBuffer a(16);
    a.fill(1);
    AlignedBuffer b = std::move(a);
    EXPECT_EQ(b.size(), 16u);
    EXPECT_TRUE(a.empty());  // NOLINT(bugprone-use-after-move) — intentional check
}

TEST(Stats, OnlineMomentsMatchDefinition) {
    OnlineStats s;
    for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
    EXPECT_EQ(s.count(), 8u);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // sample variance
    EXPECT_DOUBLE_EQ(s.min(), 2.0);
    EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(Stats, SingleSampleHasZeroVariance) {
    OnlineStats s;
    s.add(3.5);
    EXPECT_DOUBLE_EQ(s.mean(), 3.5);
    EXPECT_DOUBLE_EQ(s.variance(), 0.0);
    EXPECT_DOUBLE_EQ(s.min(), 3.5);
    EXPECT_DOUBLE_EQ(s.max(), 3.5);
}

TEST(Stats, PercentileNearestRank) {
    std::vector<double> xs;
    for (int i = 1; i <= 100; ++i) xs.push_back(i);
    EXPECT_DOUBLE_EQ(percentile(xs, 0.0), 1.0);
    EXPECT_DOUBLE_EQ(percentile(xs, 1.0), 100.0);
    EXPECT_NEAR(percentile(xs, 0.5), 50.0, 1.0);
    EXPECT_NEAR(percentile(xs, 0.99), 99.0, 1.0);
    EXPECT_DOUBLE_EQ(percentile({}, 0.5), 0.0);
}

TEST(Stats, PercentileClampsOutOfRangeQ) {
    std::vector<double> xs{3.0, 1.0, 2.0};
    EXPECT_DOUBLE_EQ(percentile(xs, -0.5), 1.0);   // q < 0 clamps to min
    EXPECT_DOUBLE_EQ(percentile(xs, 2.0), 3.0);    // q > 1 clamps to max
    EXPECT_DOUBLE_EQ(percentile(xs, std::nan("")), 1.0);  // NaN clamps to 0
}

TEST(Stats, PercentileSingleSample) {
    for (double q : {-1.0, 0.0, 0.5, 1.0, 9.0}) {
        EXPECT_DOUBLE_EQ(percentile({42.0}, q), 42.0) << "q=" << q;
    }
}

TEST(Logging, ParseLogLevel) {
    EXPECT_EQ(parse_log_level("debug", LogLevel::warn), LogLevel::debug);
    EXPECT_EQ(parse_log_level("info", LogLevel::warn), LogLevel::info);
    EXPECT_EQ(parse_log_level("warn", LogLevel::error), LogLevel::warn);
    EXPECT_EQ(parse_log_level("error", LogLevel::warn), LogLevel::error);
    EXPECT_EQ(parse_log_level("off", LogLevel::warn), LogLevel::off);
    EXPECT_EQ(parse_log_level(nullptr, LogLevel::info), LogLevel::info);
    EXPECT_EQ(parse_log_level("verbose", LogLevel::warn), LogLevel::warn);
    EXPECT_EQ(parse_log_level("", LogLevel::error), LogLevel::error);
}

TEST(Logging, LevelNamesCoverEveryLevel) {
    EXPECT_STREQ(log_level_name(LogLevel::debug), "DEBUG");
    EXPECT_STREQ(log_level_name(LogLevel::info), "INFO");
    EXPECT_STREQ(log_level_name(LogLevel::warn), "WARN");
    EXPECT_STREQ(log_level_name(LogLevel::error), "ERROR");
    EXPECT_STREQ(log_level_name(LogLevel::off), "OFF");
}

TEST(Logging, SinkCapturesFilteredRecords) {
    Logger& logger = Logger::instance();
    const LogLevel saved = logger.level();
    std::vector<std::pair<LogLevel, std::string>> captured;
    logger.set_sink([&](LogLevel level, const std::string& msg) {
        captured.emplace_back(level, msg);
    });
    logger.set_level(LogLevel::warn);
    log_debug("dropped");
    log_info("dropped too");
    log_warn("kept");
    log_error("also kept");
    logger.set_level(LogLevel::off);
    log_error("silenced");
    // Restore the shared logger before asserting.
    logger.set_sink({});
    logger.set_level(saved);

    ASSERT_EQ(captured.size(), 2u);
    EXPECT_EQ(captured[0].first, LogLevel::warn);
    EXPECT_EQ(captured[0].second, "kept");
    EXPECT_EQ(captured[1].first, LogLevel::error);
    EXPECT_EQ(captured[1].second, "also kept");
}

TEST(Stats, SampleSetCombinesBoth) {
    SampleSet set;
    for (int i = 0; i < 10; ++i) set.add(i);
    EXPECT_EQ(set.size(), 10u);
    EXPECT_DOUBLE_EQ(set.stats().mean(), 4.5);
    EXPECT_NEAR(set.percentile(0.5), 4.5, 1.0);
}

TEST(ThreadPool, RunsAllTasks) {
    ThreadPool pool(4);
    std::atomic<int> count{0};
    for (int i = 0; i < 100; ++i) {
        pool.submit([&count] { count.fetch_add(1); });
    }
    pool.wait_idle();
    EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, ParallelForCoversEveryIndexOnce) {
    ThreadPool pool(4);
    std::vector<std::atomic<int>> hits(500);
    parallel_for(pool, hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); });
    for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForZeroAndOne) {
    ThreadPool pool(2);
    parallel_for(pool, 0, [](std::size_t) { FAIL() << "must not be called"; });
    std::atomic<int> once{0};
    parallel_for(pool, 1, [&](std::size_t) { once.fetch_add(1); });
    EXPECT_EQ(once.load(), 1);
}

}  // namespace
}  // namespace ecfrm
