/**
 * @file
 * Persistent region manager.
 *
 * Mirrors the Atlas-style region support the paper leverages (Sec. IV-C):
 * persistent memory regions are represented as files incorporated into
 * the address space via mmap, and they support memory allocation methods
 * such as NvHeap (see nv_heap.h).  An anonymous (non-file) mode
 * backs unit tests and benchmarks, where crashes are simulated in-process
 * via ShadowDomain rather than by killing the process.
 *
 * Because the mapping address may differ across program runs, persistent
 * data structures never store raw pointers; they store heap-relative
 * offsets (offset 0 is the null value) resolved through the heap.
 */
#pragma once

#include <cstdint>
#include <string>

namespace ido::nvm {

class PersistDomain;

/** Well-known persistent root slots, one per runtime/substrate. */
enum class RootSlot : uint32_t
{
    kAppRoot = 0,     ///< application data structure root
    kIdoLogHead,      ///< head of the iDO per-thread log list
    kAtlasState,      ///< Atlas log area
    kMnemosyneState,  ///< Mnemosyne redo-log area
    kJustdoState,     ///< JUSTDO log area
    kNvmlState,       ///< NVML undo-log area
    kNvthreadsState,  ///< NVThreads page-log area
    kLockEpoch,       ///< indirect-lock epoch counter (Sec. III-B):
                      ///< bumped durably at every runtime attach and
                      ///< recovery so holder-slot tags written by dead
                      ///< processes are never misread as current
    kAllocator,       ///< nv_malloc metadata
    kUser0,
    kUser1,
    kUser2,
    kCount
};

constexpr uint32_t kNumRootSlots = static_cast<uint32_t>(RootSlot::kCount);

/** On-media header at offset 0 of every heap. */
struct HeapHeader
{
    uint64_t magic;
    uint64_t version;
    uint64_t size;
    uint64_t state; ///< kStateClean or kStateRunning
    uint64_t roots[kNumRootSlots];
};

class PersistentHeap
{
  public:
    struct Options
    {
        std::string path = {};   ///< empty = anonymous (test/bench) heap
        size_t size = 64u << 20; ///< heap size in bytes
        bool reset = false;      ///< discard any existing content
    };

    explicit PersistentHeap(const Options& opts);
    ~PersistentHeap();

    PersistentHeap(const PersistentHeap&) = delete;
    PersistentHeap& operator=(const PersistentHeap&) = delete;

    void* base() const { return base_; }
    size_t size() const { return size_; }

    /**
     * True if the heap existed and was *not* cleanly shut down, i.e. the
     * previous process crashed mid-run and recovery is required.
     */
    bool recovered_from_crash() const { return crash_detected_; }

    /** True if an existing heap image was reused (file mode). */
    bool reopened() const { return reopened_; }

    /**
     * Bytes of the mapping backed by 2 MiB pages right now
     * (AnonHugePages + ShmemPmdMapped of its VMAs in
     * /proc/self/smaps); 0 where smaps is unreadable.  The
     * nvm.heap.huge_page_bytes gauge.
     */
    uint64_t huge_page_bytes() const;

    // --- offset <-> pointer -------------------------------------------

    /** Offset of p within the heap; 0 for nullptr. */
    uint64_t to_offset(const void* p) const;

    /** Pointer for a heap offset; nullptr for offset 0. */
    template <typename T = void>
    T*
    resolve(uint64_t off) const
    {
        if (off == 0)
            return nullptr;
        return reinterpret_cast<T*>(static_cast<uint8_t*>(base_) + off);
    }

    /** True if p points inside this heap. */
    bool contains(const void* p) const;

    // --- roots and run state ------------------------------------------

    uint64_t root(RootSlot slot) const;
    void set_root(RootSlot slot, uint64_t off, PersistDomain& dom);

    /** Transition to "running" (cleared only by mark_clean). Durable. */
    void mark_running(PersistDomain& dom);

    /** Record a clean shutdown. Durable. */
    void mark_clean(PersistDomain& dom);

    /**
     * Reset the crash flag after in-process simulated recovery so a
     * subsequent "run epoch" starts from a recovered-clean state.
     */
    void simulate_fresh_open();

    /** First offset available to the allocator (after the header). */
    uint64_t arena_begin() const;

  private:
    HeapHeader* header() const
    {
        return static_cast<HeapHeader*>(base_);
    }

    void* base_ = nullptr;
    size_t size_ = 0;
    int fd_ = -1;
    bool crash_detected_ = false;
    bool reopened_ = false;
};

} // namespace ido::nvm
