// Heap allocations of one healthy read. The read path keeps its
// per-request state in flat arrays sized once per request (the plan's
// fetch list and schedule, the executor's slot table), so the number of
// operator new calls a read makes must not grow with the number of
// elements it reads. This test replaces the global operator new with a
// counting one that only counts on the reading thread while a read runs.
// Sanitizers interpose the allocator themselves, so the test is skipped
// (and the replacement left out) under them.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "codes/factory.h"
#include "common/rng.h"
#include "store/stripe_store.h"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define ECFRM_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer) || __has_feature(undefined_behavior_sanitizer)
#define ECFRM_SANITIZED 1
#endif
#endif

namespace {
thread_local bool t_counting = false;
thread_local std::int64_t t_allocations = 0;
}  // namespace

#ifndef ECFRM_SANITIZED
void* operator new(std::size_t size) {
    if (t_counting) ++t_allocations;
    if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
    throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, std::align_val_t align) {
    if (t_counting) ++t_allocations;
    const auto a = static_cast<std::size_t>(align);
    const std::size_t rounded = (size + a - 1) / a * a;
    if (void* p = std::aligned_alloc(a, rounded == 0 ? a : rounded)) return p;
    throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t align) { return ::operator new(size, align); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
#endif

namespace ecfrm::store {
namespace {

/// What a healthy read of any length costs: the plan's fetch list, load
/// vector and schedule, the slot table and the round's output spans. A
/// round that runs every queue inline (no async device, no pool) keeps
/// its flights on the stack.
constexpr std::int64_t kMaxAllocationsPerRead = 8;

std::int64_t allocations_of_read(StripeStore& store, ElementId start, std::int64_t count,
                                 std::vector<std::uint8_t>& out) {
    t_allocations = 0;
    t_counting = true;
    const Status status = store.read_elements(start, count, ByteSpan(out.data(), out.size()));
    t_counting = false;
    EXPECT_TRUE(status.ok()) << status.error().message;
    return t_allocations;
}

TEST(ReadAlloc, HealthyReadAllocationsDoNotGrowWithElements) {
#ifdef ECFRM_SANITIZED
    GTEST_SKIP() << "sanitizers interpose operator new";
#else
    constexpr std::int64_t eb = 4096;
    for (const char* spec : {"rs:6,3", "lrc:6,2,2"}) {
        SCOPED_TRACE(spec);
        auto code = codes::make_code(spec);
        ASSERT_TRUE(code.ok());
        StripeStore store(core::Scheme(code.value(), layout::LayoutKind::ecfrm), eb);
        std::vector<std::uint8_t> data(static_cast<std::size_t>(store.stripe_data_bytes() * 8));
        Rng rng(7);
        for (auto& b : data) b = static_cast<std::uint8_t>(rng.next_below(256));
        ASSERT_TRUE(store.append(ConstByteSpan(data.data(), data.size())).ok());
        ASSERT_TRUE(store.flush().ok());

        std::vector<std::uint8_t> out(static_cast<std::size_t>(20 * eb));
        // Warm up: first-use statics and pools are not per-read costs.
        ASSERT_TRUE(store.read_elements(0, 20, ByteSpan(out.data(), out.size())).ok());

        std::int64_t first = -1;
        for (std::int64_t count : {1, 5, 20}) {
            for (ElementId start : {ElementId{0}, ElementId{3}, ElementId{17}, ElementId{31}}) {
                std::vector<std::uint8_t> buf(static_cast<std::size_t>(count * eb));
                const std::int64_t n = allocations_of_read(store, start, count, buf);
                ASSERT_TRUE(std::equal(buf.begin(), buf.end(), data.begin() + start * eb));
                SCOPED_TRACE("count " + std::to_string(count) + " start " + std::to_string(start));
                if (first < 0) first = n;
                EXPECT_EQ(n, first) << "allocations grew with the read's shape";
                EXPECT_LE(n, kMaxAllocationsPerRead);
            }
        }
    }
#endif
}

}  // namespace
}  // namespace ecfrm::store
