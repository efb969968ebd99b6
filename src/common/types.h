// Fundamental type aliases shared by every ecfrm module.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

namespace ecfrm {

/// Index of a physical disk (column) in an array, 0-based.
using DiskId = int;

/// Global row index on a disk. A "row slot" holds exactly one element.
using RowId = std::int64_t;

/// Index of a logical *data* element in the user-visible address space
/// (0, 1, 2, ... in file order, parities excluded).
using ElementId = std::int64_t;

/// Index of a stripe (one EC-FRM super-stripe, or one candidate-code row
/// for the standard/rotated layouts).
using StripeId = std::int64_t;

/// Mutable / immutable views over raw element bytes.
using ByteSpan = std::span<std::uint8_t>;
using ConstByteSpan = std::span<const std::uint8_t>;

/// std::allocator whose value-initialising construct() default-initialises
/// instead: `std::vector<T, DefaultInitAllocator<T>>(n)` and `resize(n)`
/// leave trivially constructible elements uninitialised. Every other
/// construct() (copies, fills) behaves as std::allocator's.
template <class T>
struct DefaultInitAllocator : std::allocator<T> {
    template <class U>
    struct rebind {
        using other = DefaultInitAllocator<U>;
    };

    DefaultInitAllocator() = default;
    template <class U>
    DefaultInitAllocator(const DefaultInitAllocator<U>&) noexcept {}

    template <class U>
    void construct(U* p) noexcept(std::is_nothrow_default_constructible_v<U>) {
        ::new (static_cast<void*>(p)) U;
    }
    template <class U, class... Args>
    void construct(U* p, Args&&... args) {
        std::construct_at(p, std::forward<Args>(args)...);
    }
};

/// An owned byte buffer whose sized construction leaves its bytes
/// uninitialised, for results that are written in full before they are
/// returned (StripeStore::read_bytes). It converts to ConstByteSpan like
/// any contiguous range and compares equal with std::vector<uint8_t>.
using Bytes = std::vector<std::uint8_t, DefaultInitAllocator<std::uint8_t>>;

inline bool operator==(const Bytes& a, const std::vector<std::uint8_t>& b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
}

/// Physical location of one element: (disk, row-on-disk).
struct Location {
    DiskId disk = -1;
    RowId row = -1;

    friend bool operator==(const Location&, const Location&) = default;
};

}  // namespace ecfrm
