#include "nvm/heap_gc.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <iterator>
#include <thread>

#include <sys/mman.h>

#include "common/panic.h"
#include "nvm/persist_domain.h"
#include "stats/metrics.h"
#include "stats/stat_plane.h"

namespace ido::nvm {

namespace {

constexpr size_t kNpos = static_cast<size_t>(-1);

bool
recognized_state(uint64_t st)
{
    return st == NvHeap::kBlockLive || st == NvHeap::kBlockFreeing
           || st == NvHeap::kBlockFree;
}

void
json_escape(const std::string& in, std::string* out)
{
    for (char c : in) {
        if (c == '"' || c == '\\')
            out->push_back('\\');
        if (static_cast<unsigned char>(c) < 0x20)
            c = ' ';
        out->push_back(c);
    }
}

std::string
hex(uint64_t v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "0x%llx", (unsigned long long)v);
    return buf;
}

/** Record a finding line; describe() runs only below the cap. */
template <typename Describe>
void
note(GcStats* s, Describe&& describe)
{
    if (s->findings.size() < HeapGc::kMaxFindings)
        s->findings.push_back(describe());
    else if (s->findings.size() == HeapGc::kMaxFindings)
        s->findings.push_back("... (further findings elided)");
}

/** A mark finding, kept as plain words and formatted only if it
 *  survives the cap. */
struct MarkFinding
{
    enum Kind : uint8_t
    {
        kNoBlock,     ///< link value hits no block
        kNotLive,     ///< link value targets a non-LIVE block
        kOutsideHeap, ///< the link field itself lies outside the heap
        kUndersized,  ///< block smaller than its declared payload
    };
    uint64_t holder;  ///< raw offset of the holding block (0: a root)
    uint64_t field;   ///< heap offset of the link field (root: order)
    uint64_t value;   ///< the link value
    const char* what; ///< "root" or "link"
    const char* who;  ///< root name; nullptr for a link field
    Kind kind;

    bool operator<(const MarkFinding& o) const
    {
        return holder != o.holder ? holder < o.holder : field < o.field;
    }
};

/** The kMaxFindings smallest findings (by holder, field) one thread
 *  saw, plus how many it saw in all.  Bounded, so a wrecked heap with
 *  millions of dangling links costs no memory. */
struct FindingSink
{
    std::vector<MarkFinding> kept;
    uint64_t total = 0;

    void add(const MarkFinding& f)
    {
        ++total;
        kept.push_back(f);
        if (kept.size() == 4 * HeapGc::kMaxFindings)
            trim();
    }
    void trim()
    {
        if (kept.size() <= HeapGc::kMaxFindings)
            return;
        std::nth_element(kept.begin(),
                         kept.begin() + HeapGc::kMaxFindings, kept.end());
        kept.resize(HeapGc::kMaxFindings);
    }
};

/** A bitmap in a private anonymous mapping.  The kernel zeroes a page
 *  on first touch, so a big arena with few live blocks pays only for
 *  the pages its links hit.  Empty if the mapping fails: every link
 *  then takes the binary search. */
class GranuleBits
{
  public:
    explicit GranuleBits(size_t words)
    {
        if (words == 0)
            return;
        void* p = mmap(nullptr, words * sizeof(uint64_t),
                       PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS,
                       -1, 0);
        if (p != MAP_FAILED)
            bits_ = {static_cast<uint64_t*>(p), words};
    }
    ~GranuleBits()
    {
        if (!bits_.empty())
            munmap(bits_.data(), bits_.size_bytes());
    }
    GranuleBits(const GranuleBits&) = delete;
    GranuleBits& operator=(const GranuleBits&) = delete;

    std::span<uint64_t> span() const { return bits_; }

  private:
    std::span<uint64_t> bits_;
};

} // namespace

struct HeapGc::Marker
{
    std::vector<size_t> work;       ///< marked blocks not yet traced
    std::vector<size_t> deferred;   ///< big blocks left for the split
    std::vector<uint64_t> fields;   ///< scratch
    FindingSink findings;
    uint64_t dangling = 0;
};

std::string
GcStats::to_json() const
{
    std::string s = "{";
    auto num = [&](const char* k, uint64_t v, bool comma = true) {
        s += '"';
        s += k;
        s += "\":";
        s += std::to_string(v);
        if (comma)
            s += ',';
    };
    num("blocks", blocks);
    num("bytes", bytes);
    num("live_blocks", live_blocks);
    num("live_bytes", live_bytes);
    num("free_blocks", free_blocks);
    num("chunks", chunks);
    num("leaked_blocks", leaked_blocks);
    num("leaked_bytes", leaked_bytes);
    num("dangling_links", dangling_links);
    num("opaque_live", opaque_live);
    num("index_ns", index_ns);
    num("mark_ns", mark_ns);
    num("census_ns", census_ns);
    num("mark_threads", mark_threads);
    s += "\"findings\":[";
    for (size_t i = 0; i < findings.size(); ++i) {
        if (i)
            s += ',';
        s += '"';
        json_escape(findings[i], &s);
        s += '"';
    }
    s += "]}";
    return s;
}

HeapGc::HeapGc(NvHeap& heap, PersistDomain&) : heap_(heap) {}

uint64_t
HeapGc::published_off(const BlockInfo& b) const
{
    if (!NvHeap::meta_aligned(b.meta))
        return b.raw;
    return (b.raw + 8 + 63) & ~uint64_t{63};
}

size_t
HeapGc::find_block(uint64_t off) const
{
    // blocks_ is sorted by raw offset (the walk is monotone); an
    // interior pointer lands anywhere in [raw, raw + size).
    auto it = std::upper_bound(
        blocks_.begin(), blocks_.end(), off,
        [](uint64_t v, const BlockInfo& b) { return v < b.raw; });
    if (it == blocks_.begin())
        return kNpos;
    const size_t i = static_cast<size_t>(it - blocks_.begin()) - 1;
    const BlockInfo& b = blocks_[i];
    if (off < b.raw || off >= b.raw + b.size)
        return kNpos;
    return i;
}

const TypeDescriptor*
HeapGc::descriptor(uint64_t meta) const
{
    const TypeId t = NvHeap::meta_type(meta);
    return t == TypeId::kUntyped ? nullptr
                                 : types_[static_cast<size_t>(t)];
}

void
HeapGc::collect_link_fields(const BlockInfo& b,
                            std::vector<uint64_t>* out) const
{
    const TypeDescriptor* d = descriptor(b.meta);
    if (d == nullptr)
        return;
    const uint64_t pub = published_off(b);
    for (const uint32_t o : d->link_offsets)
        out->push_back(pub + o);
    if (d->enumerate_link_fields)
        d->enumerate_link_fields(heap_.heap_, pub, out);
}

void
HeapGc::build_index()
{
    blocks_.clear();
    chunks_ = 0;
    const TypeRegistry& types = TypeRegistry::instance();
    for (size_t t = 0; t < std::size(types_); ++t)
        types_[t] = types.describe(static_cast<TypeId>(t));
    PersistentHeap& ph = heap_.heap_;
    const NvHeap::HeapState* st = heap_.state();
    const uint64_t bump = st->bump;
    constexpr uint64_t kHdr = sizeof(NvHeap::BlockHeader);
    uint64_t off = heap_.data_begin_;
    while (off + kHdr <= bump) {
        const auto* words = ph.resolve<uint64_t>(off);
        if (words[0] == NvHeap::kChunkMagic) {
            const uint64_t chunk_end = off + words[1];
            IDO_ASSERT(words[1] == NvHeap::kChunkBytes && chunk_end <= bump,
                       "heap_gc: malformed chunk header");
            ++chunks_;
            uint64_t b = off + kHdr;
            while (b + kHdr <= chunk_end) {
                const auto* bw = ph.resolve<uint64_t>(b);
                if (!recognized_state(bw[1] & 0xffff))
                    break; // unused tail
                IDO_ASSERT(bw[0] != 0 && b + kHdr + bw[0] <= chunk_end,
                           "heap_gc: block overruns its chunk");
                blocks_.push_back(BlockInfo{b + kHdr, bw[0], bw[1]});
                b += kHdr + bw[0];
            }
            off = chunk_end;
        } else {
            if (!recognized_state(words[1] & 0xffff))
                break; // torn arena tail (crashed carve)
            IDO_ASSERT(words[0] != 0 && off + kHdr + words[0] <= ph.size(),
                       "heap_gc: oversize block overruns the arena");
            blocks_.push_back(BlockInfo{off + kHdr, words[0], words[1]});
            off += kHdr + words[0];
        }
    }
}

void
HeapGc::mark_target(Marker& m, uint64_t v, uint64_t holder,
                    uint64_t field, const char* what, const char* who)
{
    // Every LIVE block is reached once per link to it (an item: its
    // chain link, lru_next and lru_prev); only the first link to a
    // granule pays the binary search.
    const uint64_t g = v >> 3;
    uint64_t* word = g / 64 < resolved_.size() ? &resolved_[g / 64]
                                               : nullptr;
    const uint64_t bit = uint64_t{1} << (g % 64);
    if (word != nullptr
        && (std::atomic_ref<uint64_t>(*word).load(std::memory_order_relaxed)
            & bit))
        return;
    const size_t i = find_block(v);
    if (i == kNpos) {
        ++m.dangling;
        m.findings.add({holder, field, v, what, who, MarkFinding::kNoBlock});
        return;
    }
    BlockInfo& b = blocks_[i];
    if (NvHeap::meta_state(b.meta) != NvHeap::kBlockLive) {
        ++m.dangling;
        m.findings.add({holder, field, v, what, who, MarkFinding::kNotLive});
        return;
    }
    // Only a granule wholly inside the block may stand for it: any
    // other value in the granule then resolves to the same block.
    if (word != nullptr && (v & ~uint64_t{7}) >= b.raw
        && (v & ~uint64_t{7}) + 8 <= b.raw + b.size)
        std::atomic_ref<uint64_t>(*word).fetch_or(bit,
                                                  std::memory_order_relaxed);
    if (!std::atomic_ref<bool>(b.marked).exchange(true,
                                                  std::memory_order_relaxed))
        m.work.push_back(i);
}

void
HeapGc::scan_fields(Marker& m, uint64_t holder, const uint64_t* fields,
                    size_t n)
{
    PersistentHeap& ph = heap_.heap_;
    for (size_t k = 0; k < n; ++k) {
        const uint64_t f = fields[k];
        if (f + sizeof(uint64_t) > ph.size()) {
            ++m.dangling;
            m.findings.add({holder, f, 0, "link", nullptr,
                            MarkFinding::kOutsideHeap});
            continue;
        }
        const uint64_t v = *ph.resolve<uint64_t>(f);
        if (v != 0)
            mark_target(m, v, holder, f, "link", nullptr);
    }
}

void
HeapGc::drain(Marker& m)
{
    while (!m.work.empty()) {
        const BlockInfo& b = blocks_[m.work.back()];
        m.work.pop_back();
        const TypeDescriptor* d = descriptor(b.meta);
        if (d == nullptr)
            continue; // opaque: reachable, never traced through
        if (d->payload_size != 0
            && published_off(b) + d->payload_size > b.raw + b.size) {
            m.findings.add({b.raw, 0, 0, "block", nullptr,
                            MarkFinding::kUndersized});
            continue;
        }
        m.fields.clear();
        collect_link_fields(b, &m.fields);
        if (m.fields.size() > kSplitLinkFields) {
            // Re-enumerated by the split; drop the big scratch now.
            m.deferred.push_back(static_cast<size_t>(&b - blocks_.data()));
            m.fields = {};
            continue;
        }
        scan_fields(m, b.raw, m.fields.data(), m.fields.size());
    }
}

void
HeapGc::mark(GcStats* s)
{
    PersistentHeap& ph = heap_.heap_;
    // Blocks live below the bump pointer; values above it take the
    // search (and find no block).
    GranuleBits bits((heap_.state()->bump / 8 + 63) / 64);
    resolved_ = bits.span();
    std::vector<Marker> markers(1);
    for (const auto& [slot, off] : RootRegistry::block_roots(ph))
        mark_target(markers[0], off, 0, static_cast<uint64_t>(slot) + 1,
                    "root", RootRegistry::describe(slot).name);
    drain(markers[0]);

    // A big link array is split evenly across the threads, one block
    // at a time; each thread then drains what its slice marked on its
    // own stack.  Marks race only through the atomic exchange, so every
    // block is traced once and every dangling link is counted once,
    // whoever reaches it.
    const unsigned nthreads = std::clamp(std::thread::hardware_concurrency(),
                                         1u, kMaxMarkThreads);
    s->mark_threads = 1;
    std::vector<size_t> big;
    big.swap(markers[0].deferred);
    std::vector<uint64_t> fields;
    while (!big.empty()) {
        const BlockInfo& b = blocks_[big.back()];
        big.pop_back();
        fields.clear();
        collect_link_fields(b, &fields);
        markers.resize(nthreads);
        s->mark_threads = nthreads;
        auto run_slice = [&](unsigned k) {
            const size_t lo = fields.size() * k / nthreads;
            const size_t hi = fields.size() * (k + 1) / nthreads;
            scan_fields(markers[k], b.raw, fields.data() + lo, hi - lo);
            drain(markers[k]);
        };
        {
            std::vector<std::jthread> threads; // joined on scope exit
            for (unsigned k = 1; k < nthreads; ++k)
                threads.emplace_back(run_slice, k);
            run_slice(0);
        }
        for (Marker& m : markers) {
            big.insert(big.end(), m.deferred.begin(), m.deferred.end());
            m.deferred.clear();
        }
    }
    resolved_ = {};

    // Merge in (holder, field) order, so the capped list is the same
    // however the threads raced.
    std::vector<MarkFinding> found;
    uint64_t found_total = 0;
    for (Marker& m : markers) {
        s->dangling_links += m.dangling;
        m.findings.trim();
        found.insert(found.end(), m.findings.kept.begin(),
                     m.findings.kept.end());
        found_total += m.findings.total;
    }
    std::sort(found.begin(), found.end());
    if (found.size() > kMaxFindings)
        found.resize(kMaxFindings);
    for (const MarkFinding& f : found) {
        note(s, [&] {
            if (f.kind == MarkFinding::kUndersized)
                return "block " + hex(f.holder) + " typed "
                       + descriptor(blocks_[find_block(f.holder)].meta)->name
                       + " is smaller than its declared payload";
            if (f.kind == MarkFinding::kOutsideHeap)
                return "link field of " + hex(f.holder)
                       + " lies outside the heap";
            std::string line = std::string(f.what) + " ";
            if (f.who != nullptr)
                line += f.who;
            else
                line += descriptor(blocks_[find_block(f.holder)].meta)->name
                        + "@" + hex(f.holder);
            return line + " -> " + hex(f.value)
                   + (f.kind == MarkFinding::kNoBlock
                          ? " hits no block"
                          : " targets a non-LIVE block");
        });
    }
    if (found_total > found.size())
        note(s, [] { return std::string(); }); // at the cap: the marker
}

void
HeapGc::census(GcStats* s)
{
    for (const BlockInfo& b : blocks_) {
        ++s->blocks;
        s->bytes += b.size + sizeof(NvHeap::BlockHeader);
        const uint64_t st = NvHeap::meta_state(b.meta);
        if (st == NvHeap::kBlockFree || st == NvHeap::kBlockFreeing) {
            ++s->free_blocks;
            continue;
        }
        ++s->live_blocks;
        s->live_bytes += b.size + sizeof(NvHeap::BlockHeader);
        const TypeDescriptor* d = descriptor(b.meta);
        if (d == nullptr)
            ++s->opaque_live;
        if (!b.marked) {
            ++s->leaked_blocks;
            s->leaked_bytes += b.size + sizeof(NvHeap::BlockHeader);
            note(s, [&] {
                return "leak: " + (d ? d->name : std::string("untyped"))
                       + " block " + hex(b.raw) + " ("
                       + std::to_string(b.size)
                       + "B) is LIVE but unreachable";
            });
        }
    }
    s->chunks = chunks_;
}

GcStats
HeapGc::audit()
{
    GcStats s;
    uint64_t t = stat_now_ns();
    build_index();
    uint64_t now = stat_now_ns();
    s.index_ns = now - t;
    t = now;
    mark(&s);
    now = stat_now_ns();
    s.mark_ns = now - t;
    t = now;
    census(&s);
    s.census_ns = stat_now_ns() - t;
    return s;
}

void
HeapGc::publish(const GcStats& s)
{
    auto& reg = MetricsRegistry::instance();
    reg.add("heap.gc.runs", 1);
    reg.set("heap.gc.live_blocks", s.live_blocks);
    reg.set("heap.gc.live_bytes", s.live_bytes);
    reg.set("heap.gc.leaked_blocks", s.leaked_blocks);
    reg.set("heap.gc.leaked_bytes", s.leaked_bytes);
    reg.set("heap.gc.dangling_links", s.dangling_links);
    reg.set("heap.gc.opaque_live", s.opaque_live);
    reg.set("heap.gc.last_index_us", s.index_ns / 1000);
    reg.set("heap.gc.last_mark_us", s.mark_ns / 1000);
    reg.set("heap.gc.last_census_us", s.census_ns / 1000);
    reg.set("heap.gc.last_mark_threads", s.mark_threads);
}

} // namespace ido::nvm
