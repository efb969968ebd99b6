#include "store/uring_disk.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/uio.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <mutex>

#if defined(ECFRM_HAVE_URING)
#include <linux/io_uring.h>
#include <sys/mman.h>
#include <sys/syscall.h>

#include <atomic>
#endif

namespace ecfrm::store {

namespace fs = std::filesystem;

namespace {

off_t element_offset(RowId row, std::int64_t element_bytes) {
    return static_cast<off_t>(row) * static_cast<off_t>(element_bytes);
}

/// ECFRM_FSYNC=1 makes every write (batch) end in an fsync of both files
/// (opt-in durability knob; read once per process). Without it a write
/// needs no flush at all: nothing is buffered in userspace, so the page
/// cache is the durability point.
bool fsync_enabled() {
    static const bool enabled = []() {
        const char* v = std::getenv("ECFRM_FSYNC");
        return v != nullptr && v[0] != '\0' && v[0] != '0';
    }();
    return enabled;
}

Status pread_full(int fd, std::uint8_t* dst, std::size_t len, off_t offset) {
    while (len > 0) {
        const ssize_t n = ::pread(fd, dst, len, offset);
        if (n < 0) {
            if (errno == EINTR) continue;
            return Error::io("pread failed on data file");
        }
        if (n == 0) return Error::io("short read on data file");
        dst += n;
        len -= static_cast<std::size_t>(n);
        offset += n;
    }
    return Status::success();
}

Status pwrite_full(int fd, const std::uint8_t* src, std::size_t len, off_t offset) {
    while (len > 0) {
        const ssize_t n = ::pwrite(fd, src, len, offset);
        if (n < 0) {
            if (errno == EINTR) continue;
            return Error::io("pwrite failed on data file");
        }
        src += n;
        len -= static_cast<std::size_t>(n);
        offset += n;
    }
    return Status::success();
}

/// Vectored positional read that finishes every iovec (advances the list
/// across partial transfers). Mutates `iov`.
Status preadv_full(int fd, std::vector<::iovec>& iov, off_t offset) {
    std::size_t idx = 0;
    while (idx < iov.size()) {
        const int cnt = static_cast<int>(std::min<std::size_t>(iov.size() - idx, IOV_MAX));
        ssize_t n = ::preadv(fd, iov.data() + idx, cnt, offset);
        if (n < 0) {
            if (errno == EINTR) continue;
            return Error::io("preadv failed on data file");
        }
        if (n == 0) return Error::io("short read on data file");
        offset += n;
        while (n > 0 && idx < iov.size()) {
            if (static_cast<std::size_t>(n) >= iov[idx].iov_len) {
                n -= static_cast<ssize_t>(iov[idx].iov_len);
                ++idx;
            } else {
                iov[idx].iov_base = static_cast<char*>(iov[idx].iov_base) + n;
                iov[idx].iov_len -= static_cast<std::size_t>(n);
                n = 0;
            }
        }
    }
    return Status::success();
}

}  // namespace

namespace uring_detail {

#if defined(ECFRM_HAVE_URING)

namespace {

int sys_io_uring_setup(unsigned entries, io_uring_params* p) {
    return static_cast<int>(::syscall(__NR_io_uring_setup, entries, p));
}

int sys_io_uring_enter(int fd, unsigned to_submit, unsigned min_complete, unsigned flags) {
    return static_cast<int>(::syscall(__NR_io_uring_enter, fd, to_submit, min_complete, flags,
                                      nullptr, std::size_t{0}));
}

int sys_io_uring_register(int fd, unsigned opcode, const void* arg, unsigned nr_args) {
    return static_cast<int>(::syscall(__NR_io_uring_register, fd, opcode, arg, nr_args));
}

unsigned load_acquire(unsigned* p) {
    return std::atomic_ref<unsigned>(*p).load(std::memory_order_acquire);
}

void store_release(unsigned* p, unsigned v) {
    std::atomic_ref<unsigned>(*p).store(v, std::memory_order_release);
}

}  // namespace

/// One io_uring instance: raw-syscall setup, mmap'd SQ/CQ rings, the data
/// fd registered as fixed file 0 and (when possible) the BufferPool arena
/// registered as fixed buffer 0. No liburing — the ring protocol is small
/// enough that this shim is the whole dependency.
///
/// A Ring is driven by ONE batch at a time (leased from the RingPool), so
/// SQ tail advancement needs no userspace synchronization; the atomics
/// order the shared head/tail words against the kernel's view.
class Ring {
  public:
    static constexpr unsigned kEntries = 128;

    ~Ring() {
        if (sqe_mem_ != nullptr) ::munmap(sqe_mem_, sqe_len_);
        if (cq_mem_ != nullptr && cq_mem_ != sq_mem_) ::munmap(cq_mem_, cq_len_);
        if (sq_mem_ != nullptr) ::munmap(sq_mem_, sq_len_);
        if (fd_ >= 0) ::close(fd_);
    }

    /// nullptr when the kernel refuses the ring. File/buffer registration
    /// failures are NOT fatal — the ring degrades to plain-fd / plain-READ
    /// ops (RLIMIT_MEMLOCK commonly forbids buffer registration).
    static std::unique_ptr<Ring> create(int data_fd, const BufferPool* arena) {
        auto ring = std::unique_ptr<Ring>(new Ring);
        io_uring_params p{};
        ring->fd_ = sys_io_uring_setup(kEntries, &p);
        if (ring->fd_ < 0) return nullptr;

        ring->sq_len_ = p.sq_off.array + p.sq_entries * sizeof(unsigned);
        ring->cq_len_ = p.cq_off.cqes + p.cq_entries * sizeof(io_uring_cqe);
        const bool single_mmap = (p.features & IORING_FEAT_SINGLE_MMAP) != 0;
        if (single_mmap) ring->sq_len_ = ring->cq_len_ = std::max(ring->sq_len_, ring->cq_len_);

        ring->sq_mem_ = ::mmap(nullptr, ring->sq_len_, PROT_READ | PROT_WRITE,
                               MAP_SHARED | MAP_POPULATE, ring->fd_, IORING_OFF_SQ_RING);
        if (ring->sq_mem_ == MAP_FAILED) {
            ring->sq_mem_ = nullptr;
            return nullptr;
        }
        if (single_mmap) {
            ring->cq_mem_ = ring->sq_mem_;
        } else {
            ring->cq_mem_ = ::mmap(nullptr, ring->cq_len_, PROT_READ | PROT_WRITE,
                                   MAP_SHARED | MAP_POPULATE, ring->fd_, IORING_OFF_CQ_RING);
            if (ring->cq_mem_ == MAP_FAILED) {
                ring->cq_mem_ = nullptr;
                return nullptr;
            }
        }
        ring->sqe_len_ = p.sq_entries * sizeof(io_uring_sqe);
        ring->sqe_mem_ = ::mmap(nullptr, ring->sqe_len_, PROT_READ | PROT_WRITE,
                                MAP_SHARED | MAP_POPULATE, ring->fd_, IORING_OFF_SQES);
        if (ring->sqe_mem_ == MAP_FAILED) {
            ring->sqe_mem_ = nullptr;
            return nullptr;
        }

        auto* sq = static_cast<std::uint8_t*>(ring->sq_mem_);
        auto* cq = static_cast<std::uint8_t*>(ring->cq_mem_);
        ring->sq_entries_ = p.sq_entries;
        ring->cq_entries_ = p.cq_entries;
        ring->sq_head_ = reinterpret_cast<unsigned*>(sq + p.sq_off.head);
        ring->sq_tail_ = reinterpret_cast<unsigned*>(sq + p.sq_off.tail);
        ring->sq_mask_ = *reinterpret_cast<unsigned*>(sq + p.sq_off.ring_mask);
        ring->sq_array_ = reinterpret_cast<unsigned*>(sq + p.sq_off.array);
        ring->cq_head_ = reinterpret_cast<unsigned*>(cq + p.cq_off.head);
        ring->cq_tail_ = reinterpret_cast<unsigned*>(cq + p.cq_off.tail);
        ring->cq_mask_ = *reinterpret_cast<unsigned*>(cq + p.cq_off.ring_mask);
        ring->cqes_ = reinterpret_cast<io_uring_cqe*>(cq + p.cq_off.cqes);
        ring->sqes_ = static_cast<io_uring_sqe*>(ring->sqe_mem_);

        const int fds[1] = {data_fd};
        ring->fixed_file_ = sys_io_uring_register(ring->fd_, IORING_REGISTER_FILES, fds, 1) == 0;
        if (arena != nullptr && arena->arena_bytes() > 0) {
            ::iovec iov{};
            iov.iov_base = const_cast<std::uint8_t*>(arena->arena());
            iov.iov_len = arena->arena_bytes();
            ring->fixed_buffers_ =
                sys_io_uring_register(ring->fd_, IORING_REGISTER_BUFFERS, &iov, 1) == 0;
            ring->arena_ = arena;
        }
        ring->data_fd_ = data_fd;
        return ring;
    }

    bool fixed_buffers() const { return fixed_buffers_; }
    bool fixed_file() const { return fixed_file_; }

    /// Queue one read of [dst, dst+len) at `offset`, tagged `user_data`.
    /// False when the SQ (or the CQ budget) is full — the caller must
    /// submit_and_wait() some completions first, then retry.
    bool prep_read(std::uint8_t* dst, std::size_t len, off_t offset, std::uint64_t user_data) {
        if (inflight_ + prepped_ >= cq_entries_) return false;
        const unsigned head = load_acquire(sq_head_);
        const unsigned tail = *sq_tail_;  // only this thread advances it
        if (tail - head >= sq_entries_) return false;
        const unsigned idx = tail & sq_mask_;
        io_uring_sqe* sqe = &sqes_[idx];
        std::memset(sqe, 0, sizeof(*sqe));
        const bool fixed_buf = fixed_buffers_ && arena_ != nullptr && arena_->contains(dst, len);
        sqe->opcode = fixed_buf ? IORING_OP_READ_FIXED : IORING_OP_READ;
        if (fixed_file_) {
            sqe->fd = 0;  // fixed-file table slot 0 = the data fd
            sqe->flags = IOSQE_FIXED_FILE;
        } else {
            sqe->fd = data_fd_;
        }
        sqe->addr = reinterpret_cast<std::uint64_t>(dst);
        sqe->len = static_cast<unsigned>(len);
        sqe->off = static_cast<std::uint64_t>(offset);
        sqe->buf_index = 0;  // the whole arena is registered buffer 0
        sqe->user_data = user_data;
        sq_array_[idx] = idx;
        store_release(sq_tail_, tail + 1);
        ++prepped_;
        return true;
    }

    /// Submit everything prepped and wait until at least `min_complete`
    /// completions are reapable. False on an errno-level io_uring_enter
    /// failure (ops may be lost; the Ring is considered poisoned for the
    /// rest of the batch).
    bool submit_and_wait(unsigned min_complete) {
        const unsigned to_submit = prepped_;
        inflight_ += prepped_;
        prepped_ = 0;
        while (true) {
            const int n = sys_io_uring_enter(fd_, to_submit, std::min(min_complete, inflight_),
                                             IORING_ENTER_GETEVENTS);
            if (n >= 0) return true;
            if (errno == EINTR) continue;
            inflight_ = 0;
            return false;
        }
    }

    /// Pop one completion. False when the CQ is empty.
    bool reap(std::uint64_t* user_data, std::int32_t* res) {
        const unsigned head = *cq_head_;
        const unsigned tail = load_acquire(cq_tail_);
        if (head == tail) return false;
        const io_uring_cqe& cqe = cqes_[head & cq_mask_];
        *user_data = cqe.user_data;
        *res = cqe.res;
        store_release(cq_head_, head + 1);
        --inflight_;
        return true;
    }

    unsigned inflight() const { return inflight_; }

  private:
    Ring() = default;

    int fd_ = -1;
    int data_fd_ = -1;
    void* sq_mem_ = nullptr;
    void* cq_mem_ = nullptr;
    void* sqe_mem_ = nullptr;
    std::size_t sq_len_ = 0;
    std::size_t cq_len_ = 0;
    std::size_t sqe_len_ = 0;
    unsigned sq_entries_ = 0;
    unsigned cq_entries_ = 0;
    unsigned* sq_head_ = nullptr;
    unsigned* sq_tail_ = nullptr;
    unsigned sq_mask_ = 0;
    unsigned* sq_array_ = nullptr;
    unsigned* cq_head_ = nullptr;
    unsigned* cq_tail_ = nullptr;
    unsigned cq_mask_ = 0;
    io_uring_sqe* sqes_ = nullptr;
    io_uring_cqe* cqes_ = nullptr;
    bool fixed_file_ = false;
    bool fixed_buffers_ = false;
    const BufferPool* arena_ = nullptr;
    unsigned prepped_ = 0;
    unsigned inflight_ = 0;
};

/// A small pool of rings per device so several concurrent batches can
/// each drive their own in-kernel queue. Acquisition is non-blocking: a
/// batch that finds every ring busy takes the blocking preadv path
/// instead of waiting (the contended case is exactly when the disk is
/// already saturated).
class RingPool {
  public:
    static constexpr std::size_t kRings = 4;

    static std::unique_ptr<RingPool> create(int data_fd, const BufferPool* arena) {
        auto pool = std::unique_ptr<RingPool>(new RingPool);
        for (std::size_t i = 0; i < kRings; ++i) {
            auto ring = Ring::create(data_fd, arena);
            if (ring == nullptr) break;
            pool->rings_.push_back(std::move(ring));
        }
        if (pool->rings_.empty()) return nullptr;
        pool->free_.reserve(pool->rings_.size());
        for (auto& r : pool->rings_) pool->free_.push_back(r.get());
        return pool;
    }

    Ring* try_acquire() {
        std::lock_guard lk(mu_);
        if (free_.empty()) return nullptr;
        Ring* r = free_.back();
        free_.pop_back();
        return r;
    }

    void release(Ring* r) {
        std::lock_guard lk(mu_);
        free_.push_back(r);
    }

  private:
    RingPool() = default;

    std::vector<std::unique_ptr<Ring>> rings_;
    std::mutex mu_;
    std::vector<Ring*> free_;
};

#else  // !ECFRM_HAVE_URING

/// Stub so UringDisk compiles (and degrades to the pread path) on
/// toolchains without io_uring headers.
class RingPool {
  public:
    static std::unique_ptr<RingPool> create(int /*data_fd*/, const BufferPool* /*arena*/) {
        return nullptr;
    }
    void release(void*) {}
};

#endif  // ECFRM_HAVE_URING

}  // namespace uring_detail

// ---------------------------------------------------------------------------
// UringDisk
// ---------------------------------------------------------------------------

UringDisk::UringDisk(std::string data_path, std::string map_path, std::string failed_path,
                     std::int64_t element_bytes, IoBackend backend, BufferPool* arena)
    : data_path_(std::move(data_path)),
      map_path_(std::move(map_path)),
      failed_path_(std::move(failed_path)),
      element_bytes_(element_bytes),
      backend_(backend),
      arena_(arena) {}

UringDisk::~UringDisk() { close_files(); }

bool UringDisk::uring_available() {
#if defined(ECFRM_HAVE_URING)
    static const bool available = []() {
        io_uring_params p{};
        const int fd = uring_detail::sys_io_uring_setup(4, &p);
        if (fd < 0) return false;
        ::close(fd);
        return true;
    }();
    return available;
#else
    return false;
#endif
}

Result<std::unique_ptr<UringDisk>> UringDisk::open(const std::string& dir, int index,
                                                   std::int64_t element_bytes, IoBackend backend,
                                                   BufferPool* arena) {
    if (element_bytes <= 0) return Error::invalid("element_bytes must be positive");
    std::error_code ec;
    if (!fs::is_directory(dir, ec)) return Error::io("not a directory: " + dir);

    const std::string stem = dir + "/disk_" + std::to_string(index);
    auto disk = std::unique_ptr<UringDisk>(new UringDisk(
        stem + ".dat", stem + ".map", stem + ".failed", element_bytes, backend, arena));
    disk->failed_ = fs::exists(disk->failed_path_, ec);
    if (!disk->failed_) {
        auto status = disk->open_files();
        if (!status.ok()) return status.error();
        status = disk->load_map();
        if (!status.ok()) return status.error();
    }
    return disk;
}

Status UringDisk::open_files() {
    data_fd_ = ::open(data_path_.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
    map_fd_ = ::open(map_path_.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
    if (data_fd_ < 0 || map_fd_ < 0) {
        close_files();
        return Error::io("cannot open device files under " + data_path_);
    }
    if (backend_ == IoBackend::uring && uring_available()) {
        rings_ = uring_detail::RingPool::create(data_fd_, arena_);
    }
    return Status::success();
}

void UringDisk::close_files() {
    rings_.reset();  // rings hold the registered data fd; tear down first
    if (data_fd_ >= 0) {
        ::close(data_fd_);
        data_fd_ = -1;
    }
    if (map_fd_ >= 0) {
        ::close(map_fd_);
        map_fd_ = -1;
    }
}

Status UringDisk::load_map() {
    written_.clear();
    struct stat st{};
    if (::fstat(map_fd_, &st) != 0) return Error::io("stat failed on map file");
    const auto size = static_cast<std::size_t>(st.st_size);
    std::vector<std::uint8_t> raw(size);
    if (size > 0) {
        auto status = pread_full(map_fd_, raw.data(), size, 0);
        if (!status.ok()) return Error::io("short read on map file");
    }
    written_.resize(size, false);
    for (std::size_t i = 0; i < size; ++i) written_[i] = raw[i] != 0;
    return Status::success();
}

Status UringDisk::flush_files() {
    // fd-based backend: nothing is buffered in userspace, so the page
    // cache is already the durability point; only the opt-in fsync costs
    // (and counts) anything.
    if (!fsync_enabled()) return Status::success();
    if (::fsync(data_fd_) != 0 || ::fsync(map_fd_) != 0) {
        return Error::io("fsync failed on device files");
    }
    io_stats().on_flush(2);
    return Status::success();
}

Status UringDisk::write(RowId row, ConstByteSpan data) {
    if (row < 0) return Error::range("negative row");
    if (static_cast<std::int64_t>(data.size()) != element_bytes_) {
        return Error::invalid("element size mismatch on write");
    }
    IoTimer timer(io_stats(), /*is_read=*/false, static_cast<std::int64_t>(data.size()));
    auto status = [&]() -> Status {
        std::lock_guard lk(mu_);
        if (failed_) return Error::disk_failed("write to failed disk");
        auto st =
            pwrite_full(data_fd_, data.data(), data.size(), element_offset(row, element_bytes_));
        if (!st.ok()) return st;
        // pwrite past EOF zero-fills the gap, so skipped map rows read
        // back as 0 with no explicit padding writes.
        const std::uint8_t one = 1;
        st = pwrite_full(map_fd_, &one, 1, static_cast<off_t>(row));
        if (!st.ok()) return Error::io("write failed on map file");
        if (static_cast<std::size_t>(row) >= written_.size()) {
            written_.resize(static_cast<std::size_t>(row) + 1, false);
        }
        written_[static_cast<std::size_t>(row)] = true;
        return flush_files();
    }();
    timer.done(status);
    return status;
}

Status UringDisk::read(RowId row, ByteSpan out) const {
    if (row < 0) return Error::range("negative row");
    if (static_cast<std::int64_t>(out.size()) != element_bytes_) {
        return Error::invalid("element size mismatch on read");
    }
    IoTimer timer(io_stats(), /*is_read=*/true, static_cast<std::int64_t>(out.size()));
    auto status = [&]() -> Status {
        std::shared_lock lk(mu_);
        if (failed_) return Error::disk_failed("read from failed disk");
        if (static_cast<std::size_t>(row) >= written_.size() ||
            !written_[static_cast<std::size_t>(row)]) {
            return Error::range("row never written");
        }
        return pread_full(data_fd_, out.data(), out.size(), element_offset(row, element_bytes_));
    }();
    timer.done(status);
    return status;
}

std::vector<UringDisk::Run> UringDisk::coalesce(std::span<const RowId> rows,
                                                std::span<const ByteSpan> outs,
                                                std::int64_t element_bytes) {
    std::vector<Run> runs;
    for (std::size_t i = 0; i < rows.size(); ++i) {
        if (!runs.empty() && rows[i] == rows[i - 1] + 1) {
            Run& run = runs.back();
            if (run.contiguous && outs[i].data() != outs[i - 1].data() + outs[i - 1].size()) {
                run.contiguous = false;
            }
            ++run.count;
        } else {
            runs.push_back({i, 1, element_offset(rows[i], element_bytes), true});
        }
    }
    return runs;
}

Status UringDisk::read_run(const Run& run, std::span<const ByteSpan> outs) const {
    if (run.contiguous) {
        const std::size_t total = outs[run.first].size() * run.count;
        return pread_full(data_fd_, outs[run.first].data(), total, static_cast<off_t>(run.offset));
    }
    std::vector<::iovec> iov(run.count);
    for (std::size_t j = 0; j < run.count; ++j) {
        iov[j].iov_base = outs[run.first + j].data();
        iov[j].iov_len = outs[run.first + j].size();
    }
    return preadv_full(data_fd_, iov, static_cast<off_t>(run.offset));
}

#if defined(ECFRM_HAVE_URING)

bool UringDisk::read_cached(std::span<const Run> runs, std::span<const ByteSpan> outs) const {
    if (runs.size() > kMaxCachedRuns || !nowait_.load(std::memory_order_relaxed)) return false;
    std::vector<::iovec> scattered;
    for (const Run& run : runs) {
        const std::size_t want = outs[run.first].size() * run.count;
        ::iovec whole{outs[run.first].data(), want};
        const ::iovec* iov = &whole;
        int iovcnt = 1;
        if (!run.contiguous) {
            if (run.count > static_cast<std::size_t>(IOV_MAX)) return false;
            scattered.resize(run.count);
            for (std::size_t j = 0; j < run.count; ++j) {
                scattered[j] = {outs[run.first + j].data(), outs[run.first + j].size()};
            }
            iov = scattered.data();
            iovcnt = static_cast<int>(run.count);
        }
        const ssize_t n = ::preadv2(data_fd_, iov, iovcnt, static_cast<off_t>(run.offset),
                                    RWF_NOWAIT);
        if (n == static_cast<ssize_t>(want)) continue;
        // A kernel or filesystem without RWF_NOWAIT reads will never take
        // this path; anything else (EAGAIN on a miss, a short read, EINTR,
        // a real I/O error) is the ring's to retry or report.
        if (n < 0 && (errno == EOPNOTSUPP || errno == EINVAL)) {
            nowait_.store(false, std::memory_order_relaxed);
        }
        return false;
    }
    return true;
}

/// One in-flight io_uring batch: holds the device's shared lock (keeping
/// fds open and failed() stable), a leased Ring, and the coalesced run
/// list. Every run's SQE goes into the kernel at submit time; await()
/// reaps. Contiguous runs become single READ/READ_FIXED SQEs; scattered
/// runs use the blocking vectored path inline (one preadv beats burning
/// a per-element SQE storm for what is one transfer either way).
class UringDisk::UringBatch final : public BlockDevice::AsyncBatch {
  public:
    UringBatch(const UringDisk* disk, std::shared_lock<std::shared_mutex> lock,
               uring_detail::Ring* ring, std::vector<Run> runs, std::vector<ByteSpan> outs,
               BlockDevice::BatchIoTimer timer)
        : disk_(disk),
          lock_(std::move(lock)),
          ring_(ring),
          runs_(std::move(runs)),
          outs_(std::move(outs)),
          run_ok_(runs_.size(), false),
          run_pending_(runs_.size(), true),
          timer_(timer) {
        submit_all();
    }

    ~UringBatch() override {
        // An abandoned batch still has kernel writes targeting caller
        // buffers; drain them before those buffers can die.
        if (!awaited_) {
            (void)finish();
            timer_.done(prefix_elements(), !error_.ok());
        }
        disk_->rings_->release(ring_);
    }

    Status await(std::size_t* completed) override {
        Status status = finish();
        awaited_ = true;
        const std::size_t done = prefix_elements();
        timer_.done(done, !status.ok());
        if (completed != nullptr) *completed = done;
        return status;
    }

  private:
    /// Completed prefix implied by per-run outcomes: elements of leading
    /// fully-successful runs. Runs complete out of order under io_uring,
    /// so this is computed after every CQE has settled.
    std::size_t prefix_elements() const {
        std::size_t done = 0;
        for (std::size_t r = 0; r < runs_.size(); ++r) {
            if (!run_ok_[r]) break;
            done += runs_[r].count;
        }
        return done;
    }

    void submit_all() {
        std::size_t sqes = 0;
        for (std::size_t r = 0; r < runs_.size(); ++r) {
            const Run& run = runs_[r];
            if (!run.contiguous) {
                auto st = disk_->read_run(run, outs_);
                run_pending_[r] = false;
                run_ok_[r] = st.ok();
                if (!st.ok() && error_.ok()) error_ = st;
                continue;
            }
            std::uint8_t* dst = outs_[run.first].data();
            const std::size_t len = outs_[run.first].size() * run.count;
            // Batches larger than the ring still work: drain completions
            // whenever the SQ/CQ budget fills, then keep pushing.
            while (!ring_->prep_read(dst, len, static_cast<off_t>(run.offset), r)) {
                if (!drain(1)) return;
            }
            ++sqes;
        }
        if (ring_->submit_and_wait(0)) {
            // Opportunistically reap whatever already finished.
            std::uint64_t tag = 0;
            std::int32_t res = 0;
            while (ring_->reap(&tag, &res)) handle_cqe(tag, res);
        } else {
            if (error_.ok()) error_ = Error::io("io_uring_enter failed");
            fail_pending();
        }
        // In-kernel queue depth actually achieved by this batch.
        disk_->io_stats().on_batch_depth(static_cast<std::int64_t>(sqes));
    }

    /// Submit anything prepped, wait for ≥`min` completions, reap them.
    bool drain(unsigned min) {
        if (!ring_->submit_and_wait(min)) {
            if (error_.ok()) error_ = Error::io("io_uring_enter failed");
            fail_pending();
            return false;
        }
        std::uint64_t tag = 0;
        std::int32_t res = 0;
        while (ring_->reap(&tag, &res)) handle_cqe(tag, res);
        return true;
    }

    void handle_cqe(std::uint64_t tag, std::int32_t res) {
        const auto r = static_cast<std::size_t>(tag);
        const Run& run = runs_[r];
        if (!run_pending_[r]) return;
        run_pending_[r] = false;
        const auto want = static_cast<std::int64_t>(outs_[run.first].size()) *
                          static_cast<std::int64_t>(run.count);
        if (res >= 0 && static_cast<std::int64_t>(res) == want) {
            run_ok_[r] = true;
            return;
        }
        if (res > 0) {
            // Short read (signal, racing truncate): redo the run with the
            // blocking path — re-reading the whole run is idempotent.
            auto st = disk_->read_run(run, outs_);
            run_ok_[r] = st.ok();
            if (!st.ok() && error_.ok()) error_ = st;
            return;
        }
        if (error_.ok()) {
            error_ = res == 0 ? Error::io("short read on data file")
                              : Error::io("io_uring read failed on data file");
        }
    }

    void fail_pending() {
        for (std::size_t r = 0; r < runs_.size(); ++r) run_pending_[r] = false;
    }

    Status finish() {
        while (ring_->inflight() > 0) {
            if (!drain(1)) break;
        }
        return error_;
    }

    const UringDisk* disk_;
    std::shared_lock<std::shared_mutex> lock_;
    uring_detail::Ring* ring_;
    std::vector<Run> runs_;
    std::vector<ByteSpan> outs_;
    std::vector<bool> run_ok_;
    std::vector<bool> run_pending_;
    BlockDevice::BatchIoTimer timer_;
    Status error_ = Status::success();
    bool awaited_ = false;
};

#endif  // ECFRM_HAVE_URING

std::unique_ptr<BlockDevice::AsyncBatch> UringDisk::submit_read_batch(
    std::span<const RowId> rows, std::span<const ByteSpan> outs) const {
    // Immediate-result batch: validation errors and the blocking path.
    class DoneBatch final : public AsyncBatch {
      public:
        DoneBatch(Status status, std::size_t done) : status_(std::move(status)), done_(done) {}
        Status await(std::size_t* completed) override {
            if (completed != nullptr) *completed = done_;
            return status_;
        }

      private:
        Status status_;
        std::size_t done_;
    };

    if (rows.size() != outs.size()) {
        return std::make_unique<DoneBatch>(Error::invalid("batch rows/buffers size mismatch"), 0);
    }
    for (std::size_t i = 0; i < rows.size(); ++i) {
        if (rows[i] < 0) return std::make_unique<DoneBatch>(Error::range("negative row"), 0);
        if (static_cast<std::int64_t>(outs[i].size()) != element_bytes_) {
            return std::make_unique<DoneBatch>(Error::invalid("element size mismatch on read"), 0);
        }
    }

    std::shared_lock lk(mu_);
    if (failed_) {
        BatchIoTimer timer(io_stats(), /*is_read=*/true, element_bytes_, rows.size());
        timer.done(0, true);
        return std::make_unique<DoneBatch>(Error::disk_failed("read from failed disk"), 0);
    }
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const auto row = static_cast<std::size_t>(rows[i]);
        if (row >= written_.size() || !written_[row]) {
            BatchIoTimer timer(io_stats(), /*is_read=*/true, element_bytes_, rows.size());
            timer.done(0, true);
            return std::make_unique<DoneBatch>(Error::range("row never written"), 0);
        }
    }

    // One timer per batch, whichever path serves it: a batch the page
    // cache could not serve whole is timed and counted once, by the ring.
    BatchIoTimer timer(io_stats(), /*is_read=*/true, element_bytes_, rows.size());
    auto runs = coalesce(rows, outs, element_bytes_);
#if defined(ECFRM_HAVE_URING)
    if (rings_ != nullptr && !rows.empty()) {
        if (read_cached(runs, outs)) {
            io_stats().on_cached_batch();
            timer.done(rows.size(), false);
            return std::make_unique<DoneBatch>(Status::success(), rows.size());
        }
        if (uring_detail::Ring* ring = rings_->try_acquire()) {
            return std::make_unique<UringBatch>(this, std::move(lk), ring, std::move(runs),
                                                std::vector<ByteSpan>(outs.begin(), outs.end()),
                                                timer);
        }
    }
#endif

    // Blocking positional path (pread backend, uring unavailable, or every
    // ring busy). Still batched: one shared-lock hold, coalesced runs.
    std::size_t done = 0;
    auto status = [&]() -> Status {
        for (const Run& run : runs) {
            auto st = read_run(run, outs);
            if (!st.ok()) return st;
            done += run.count;
        }
        io_stats().on_batch_depth(static_cast<std::int64_t>(runs.size()));
        return Status::success();
    }();
    timer.done(done, !status.ok());
    return std::make_unique<DoneBatch>(std::move(status), done);
}

Status UringDisk::read_batch(std::span<const RowId> rows, std::span<const ByteSpan> outs,
                             std::size_t* completed) const {
    // One implementation for both entry points: the sync form is just
    // submit + immediate await.
    return submit_read_batch(rows, outs)->await(completed);
}

bool UringDisk::async_reads() const { return uring_active(); }

bool UringDisk::uring_active() const {
    std::shared_lock lk(mu_);
    return rings_ != nullptr;
}

Status UringDisk::write_batch(std::span<const RowId> rows, std::span<const ConstByteSpan> payloads,
                              std::size_t* completed) {
    if (completed != nullptr) *completed = 0;
    if (rows.size() != payloads.size()) return Error::invalid("batch rows/payloads size mismatch");
    for (std::size_t i = 0; i < rows.size(); ++i) {
        if (rows[i] < 0) return Error::range("negative row");
        if (static_cast<std::int64_t>(payloads[i].size()) != element_bytes_) {
            return Error::invalid("element size mismatch on write");
        }
    }
    BatchIoTimer timer(io_stats(), /*is_read=*/false, element_bytes_, rows.size());
    std::size_t done = 0;
    auto status = [&]() -> Status {
        std::lock_guard lk(mu_);
        if (failed_) return Error::disk_failed("write to failed disk");
        for (std::size_t i = 0; i < rows.size(); ++i) {
            auto st = pwrite_full(data_fd_, payloads[i].data(), payloads[i].size(),
                                  element_offset(rows[i], element_bytes_));
            if (!st.ok()) return st;
            const std::uint8_t one = 1;
            st = pwrite_full(map_fd_, &one, 1, static_cast<off_t>(rows[i]));
            if (!st.ok()) return Error::io("write failed on map file");
            const auto row = static_cast<std::size_t>(rows[i]);
            if (row >= written_.size()) written_.resize(row + 1, false);
            written_[row] = true;
            done = i + 1;
        }
        // One durability point per batch (counted only under ECFRM_FSYNC).
        return flush_files();
    }();
    timer.done(done, !status.ok());
    if (completed != nullptr) *completed = done;
    return status;
}

void UringDisk::fail() {
    std::lock_guard lk(mu_);
    failed_ = true;
    close_files();
    std::error_code ec;
    fs::remove(data_path_, ec);
    fs::remove(map_path_, ec);
    std::FILE* marker = std::fopen(failed_path_.c_str(), "wb");
    if (marker != nullptr) std::fclose(marker);
    written_.clear();
}

void UringDisk::replace() {
    std::lock_guard lk(mu_);
    failed_ = false;
    std::error_code ec;
    fs::remove(failed_path_, ec);
    fs::remove(data_path_, ec);
    fs::remove(map_path_, ec);
    written_.clear();
    close_files();
    (void)open_files();
}

bool UringDisk::failed() const {
    std::shared_lock lk(mu_);
    return failed_;
}

RowId UringDisk::rows() const {
    std::shared_lock lk(mu_);
    return static_cast<RowId>(written_.size());
}

Status UringDisk::corrupt_byte(RowId row, std::size_t offset) {
    std::lock_guard lk(mu_);
    if (failed_) return Error::disk_failed("corrupting a failed disk");
    if (row < 0 || static_cast<std::size_t>(row) >= written_.size() ||
        !written_[static_cast<std::size_t>(row)]) {
        return Error::range("row never written");
    }
    if (offset >= static_cast<std::size_t>(element_bytes_)) {
        return Error::range("offset beyond element");
    }
    const off_t pos = element_offset(row, element_bytes_) + static_cast<off_t>(offset);
    std::uint8_t byte = 0;
    auto st = pread_full(data_fd_, &byte, 1, pos);
    if (!st.ok()) return Error::io("read failed during corruption");
    byte ^= 0xff;
    st = pwrite_full(data_fd_, &byte, 1, pos);
    if (!st.ok()) return Error::io("write failed during corruption");
    return Status::success();
}

}  // namespace ecfrm::store
