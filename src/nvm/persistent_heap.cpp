#include "nvm/persistent_heap.h"

#include <cerrno>
#include <cstdio>
#include <cstring>

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include "common/cacheline.h"
#include "common/panic.h"
#include "nvm/persist_domain.h"
#include "stats/metrics.h"

namespace ido::nvm {

namespace {

constexpr uint64_t kMagic = 0x69444f4e564d4831ull; // "iDONVMH1"
constexpr uint64_t kVersion = 1;
constexpr uint64_t kStateClean = 0xc1ea4ull;
constexpr uint64_t kStateRunning = 0x40044ull;

} // namespace

PersistentHeap::PersistentHeap(const Options& opts)
{
    size_ = (opts.size + kCacheLineBytes - 1) & ~(kCacheLineBytes - 1);
    IDO_ASSERT(size_ > sizeof(HeapHeader) + 4096);

    bool existing = false;
    if (opts.path.empty()) {
        base_ = mmap(nullptr, size_, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
        if (base_ == MAP_FAILED)
            fatal("PersistentHeap: anonymous mmap of %zu bytes failed",
                  size_);
    } else {
        struct stat st;
        existing = (::stat(opts.path.c_str(), &st) == 0
                    && static_cast<size_t>(st.st_size) >= size_
                    && !opts.reset);
        fd_ = ::open(opts.path.c_str(), O_RDWR | O_CREAT, 0644);
        if (fd_ < 0)
            fatal("PersistentHeap: cannot open %s", opts.path.c_str());
        uint64_t magic = 0;
        existing = existing
                   && ::pread(fd_, &magic, sizeof(magic), 0) == sizeof(magic)
                   && magic == kMagic;
        // A heap not reopened starts from zeroes: a reset or resized
        // file would keep the old image's block headers, and a chunk
        // carved over them would walk them as blocks.
        if ((!existing && ::ftruncate(fd_, 0) != 0)
            || ::ftruncate(fd_, static_cast<off_t>(size_)) != 0)
            fatal("PersistentHeap: ftruncate(%s) failed",
                  opts.path.c_str());
        base_ = mmap(nullptr, size_, PROT_READ | PROT_WRITE, MAP_SHARED,
                     fd_, 0);
        if (base_ == MAP_FAILED)
            fatal("PersistentHeap: mmap of %s failed", opts.path.c_str());
    }
    // Back the heap with 2 MiB pages where the kernel allows: a random
    // access into a large arena otherwise pays a 4 KiB-page TLB miss
    // and page walk.  Anonymous heaps get them under THP "madvise"
    // mode; tmpfs files only if shmem_enabled allows.  The kernel
    // places mappings this large on a 2 MiB boundary by itself.
    // EINVAL: no THP for this mapping, which is fine.
    if (madvise(base_, size_, MADV_HUGEPAGE) != 0 && errno != EINVAL)
        warn("PersistentHeap: madvise(MADV_HUGEPAGE) failed: %s",
             std::strerror(errno));

    HeapHeader* h = header();
    if (existing && h->magic == kMagic) {
        if (h->version != kVersion)
            fatal("PersistentHeap: version mismatch (found %llu)",
                  (unsigned long long)h->version);
        reopened_ = true;
        crash_detected_ = (h->state == kStateRunning);
    } else {
        std::memset(h, 0, sizeof(HeapHeader));
        h->magic = kMagic;
        h->version = kVersion;
        h->size = size_;
        h->state = kStateClean;
        // The header of a brand-new heap predates any tracked execution;
        // persist it directly.
        for (size_t off = 0; off < sizeof(HeapHeader);
             off += kCacheLineBytes) {
            flush_line_hw(reinterpret_cast<uint8_t*>(h) + off);
        }
        sfence_hw();
    }
    // Read at scrape time.  As with the NvHeap gauges, the newest heap
    // wins the name and whichever heap dies first removes it.
    MetricsRegistry::instance().register_gauge(
        "nvm.heap.huge_page_bytes", [this] { return huge_page_bytes(); });
}

PersistentHeap::~PersistentHeap()
{
    MetricsRegistry::instance().unregister_gauge("nvm.heap.huge_page_bytes");
    if (base_ != nullptr && base_ != MAP_FAILED)
        munmap(base_, size_);
    if (fd_ >= 0)
        ::close(fd_);
}

uint64_t
PersistentHeap::huge_page_bytes() const
{
    std::FILE* f = std::fopen("/proc/self/smaps", "r");
    if (f == nullptr)
        return 0;
    const auto lo = reinterpret_cast<uintptr_t>(base_);
    const uintptr_t hi = lo + size_;
    bool overlaps = false;
    uint64_t kb = 0;
    char line[256];
    // smaps lists VMAs in address order: a "start-end perms ..." line,
    // then its "Field: N kB" lines.  Stop at the first VMA past the
    // heap so the kernel does not walk the rest of the address space.
    while (std::fgets(line, sizeof(line), f) != nullptr) {
        unsigned long start, end, n;
        if (std::sscanf(line, "%lx-%lx ", &start, &end) == 2) {
            if (start >= hi)
                break;
            overlaps = end > lo;
        } else if (overlaps
                   && (std::sscanf(line, "AnonHugePages: %lu kB", &n) == 1
                       || std::sscanf(line, "ShmemPmdMapped: %lu kB", &n)
                              == 1)) {
            kb += n;
        }
    }
    std::fclose(f);
    return kb * 1024;
}

uint64_t
PersistentHeap::to_offset(const void* p) const
{
    if (p == nullptr)
        return 0;
    IDO_ASSERT(contains(p));
    return static_cast<uint64_t>(static_cast<const uint8_t*>(p)
                                 - static_cast<const uint8_t*>(base_));
}

bool
PersistentHeap::contains(const void* p) const
{
    const auto* b = static_cast<const uint8_t*>(base_);
    const auto* q = static_cast<const uint8_t*>(p);
    return q >= b && q < b + size_;
}

uint64_t
PersistentHeap::root(RootSlot slot) const
{
    return header()->roots[static_cast<uint32_t>(slot)];
}

void
PersistentHeap::set_root(RootSlot slot, uint64_t off, PersistDomain& dom)
{
    uint64_t* p = &header()->roots[static_cast<uint32_t>(slot)];
    dom.store_val(p, off);
    dom.flush(p, sizeof(*p));
    dom.fence();
}

void
PersistentHeap::mark_running(PersistDomain& dom)
{
    dom.store_val(&header()->state, kStateRunning);
    dom.flush(&header()->state, sizeof(uint64_t));
    dom.fence();
}

void
PersistentHeap::mark_clean(PersistDomain& dom)
{
    dom.store_val(&header()->state, kStateClean);
    dom.flush(&header()->state, sizeof(uint64_t));
    dom.fence();
}

void
PersistentHeap::simulate_fresh_open()
{
    crash_detected_ = (header()->state == kStateRunning);
}

uint64_t
PersistentHeap::arena_begin() const
{
    return (sizeof(HeapHeader) + kCacheLineBytes - 1)
           & ~static_cast<uint64_t>(kCacheLineBytes - 1);
}

} // namespace ido::nvm
