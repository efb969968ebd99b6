// I/O backend selection for file-backed devices.
//
// Every file-backed device is a UringDisk; the backend picks how its
// batches reach the kernel:
//   pread — positional syscalls (concurrent readers, coalesced preadv
//           batches; the portable fallback)
//   uring — io_uring (batched SQE submission, fixed files, registered
//           buffers); degrades to pread when the kernel or build lacks
//           io_uring
//
// Both read and write the same files. The default is uring when the
// kernel provides it, else pread; tests and benches that compare the two
// pass the backend explicitly.
#pragma once

#include <memory>
#include <optional>
#include <string>

#include "common/buffer_pool.h"
#include "store/block_device.h"

namespace ecfrm::store {

enum class IoBackend {
    pread,
    uring,
};

const char* to_string(IoBackend backend);

/// The process-wide backend: uring when the kernel provides it, else
/// pread. Probed once.
IoBackend default_io_backend();

/// The shared element arena registered with every uring-backed device:
/// one BufferPool per element size, process-lifetime, so executor staging
/// buffers come from registered memory (READ_FIXED-eligible). Never
/// null; sized for a few concurrent stripes' worth of elements.
BufferPool* element_arena(std::int64_t element_bytes);

/// Open disk `index` under `dir` as a UringDisk with the given backend
/// (process default when omitted).
Result<std::unique_ptr<BlockDevice>> open_file_device(
    const std::string& dir, int index, std::int64_t element_bytes,
    std::optional<IoBackend> backend = std::nullopt);

}  // namespace ecfrm::store
