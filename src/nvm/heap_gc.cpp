#include "nvm/heap_gc.h"

#include <algorithm>
#include <atomic>
#include <cstring>
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
           || st == NvHeap::kBlockFree || st == NvHeap::kBlockMoved;
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
    const char* what; ///< "root", "journal" or "link"
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
    num("moved_blocks", moved_blocks);
    num("chunks", chunks);
    num("leaked_blocks", leaked_blocks);
    num("leaked_bytes", leaked_bytes);
    num("dangling_links", dangling_links);
    num("opaque_live", opaque_live);
    num("pinned_blocks", pinned_blocks);
    num("reclaimed_blocks", reclaimed_blocks);
    num("reclaimed_bytes", reclaimed_bytes);
    num("relocated_blocks", relocated_blocks);
    num("relocated_bytes", relocated_bytes);
    num("chunks_retired", chunks_retired);
    num("journal_resolved", journal_resolved);
    num("index_ns", index_ns);
    num("mark_ns", mark_ns);
    num("census_ns", census_ns);
    num("reclaim_ns", reclaim_ns);
    num("mark_threads", mark_threads);
    s += "\"repair_refused\":";
    s += repair_refused ? "true," : "false,";
    s += "\"relocation_refused\":";
    s += relocation_refused ? "true," : "false,";
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

HeapGc::HeapGc(NvHeap& heap, PersistDomain& dom) : heap_(heap), dom_(dom) {}

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
    chunks_.clear();
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
            ChunkInfo ci{off, blocks_.size(), blocks_.size()};
            uint64_t b = off + kHdr;
            while (b + kHdr <= chunk_end) {
                const auto* bw = ph.resolve<uint64_t>(b);
                if (!recognized_state(bw[1] & 0xffff))
                    break; // unused (or retired-and-zeroed) tail
                IDO_ASSERT(bw[0] != 0 && b + kHdr + bw[0] <= chunk_end,
                           "heap_gc: block overruns its chunk");
                blocks_.push_back(BlockInfo{b + kHdr, bw[0], bw[1]});
                b += kHdr + bw[0];
            }
            ci.last_block = blocks_.size();
            chunks_.push_back(ci);
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

    // The compaction journal is allocator-internal: reachable by
    // definition (HeapState holds it), never a leak.
    const uint64_t journal = heap_.state()->compact_journal;
    if (journal != 0)
        mark_target(markers[0], journal, 0, 0, "journal", "compact_journal");
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
    PersistentHeap& ph = heap_.heap_;
    for (BlockInfo& b : blocks_) {
        ++s->blocks;
        s->bytes += b.size + sizeof(NvHeap::BlockHeader);
        const uint64_t st = NvHeap::meta_state(b.meta);
        if (st == NvHeap::kBlockFree || st == NvHeap::kBlockFreeing) {
            ++s->free_blocks;
            continue;
        }
        if (st == NvHeap::kBlockMoved) {
            ++s->moved_blocks;
            continue;
        }
        ++s->live_blocks;
        s->live_bytes += b.size + sizeof(NvHeap::BlockHeader);
        const TypeDescriptor* d = descriptor(b.meta);
        if (d == nullptr) {
            b.opaque = true;
            ++s->opaque_live;
        } else if (d->pins_relocation) {
            const uint64_t pub = published_off(b);
            if ((d->payload_size == 0
                 || pub + d->payload_size <= b.raw + b.size)
                && d->pins_relocation(ph, pub)) {
                b.pinned = true;
                ++s->pinned_blocks;
            }
        }
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
    s->chunks = chunks_.size();
}

void
HeapGc::survey(GcStats* s)
{
    uint64_t t = stat_now_ns();
    build_index();
    uint64_t now = stat_now_ns();
    s->index_ns = now - t;
    t = now;
    mark(s);
    now = stat_now_ns();
    s->mark_ns = now - t;
    t = now;
    census(s);
    s->census_ns = stat_now_ns() - t;
}

GcStats
HeapGc::audit()
{
    GcStats s;
    survey(&s);
    return s;
}

GcStats
HeapGc::repair()
{
    GcStats s;
    survey(&s);
    if (s.leaked_blocks == 0)
        return s;
    const uint64_t t0 = stat_now_ns();
    // A reachable opaque block may hold the only path to a "leak";
    // reclaiming around it would free memory it still references.
    for (const BlockInfo& b : blocks_) {
        if (b.marked && b.opaque) {
            s.repair_refused = true;
            note(&s, [&] {
                return "repair refused: reachable opaque block "
                       + hex(b.raw) + " may reference the leaks";
            });
            return s;
        }
    }
    // Demote each unreachable LIVE block to the same states a crashed
    // free leaves behind, then let recover_leaks() -- the one proven
    // free-list writer -- relink them.  Oversize blocks are bump-only
    // and settle directly to FREE, exactly as free_block() would.
    const uint64_t cur_epoch = heap_.state()->epoch;
    for (const BlockInfo& b : blocks_) {
        if (NvHeap::meta_state(b.meta) != NvHeap::kBlockLive || b.marked)
            continue;
        const TypeId t = NvHeap::meta_type(b.meta);
        const bool aligned = NvHeap::meta_aligned(b.meta);
        const size_t cls = NvHeap::class_for_size(b.size);
        const bool exact = cls < NvHeap::kNumClasses
                           && NvHeap::class_payload(cls) == b.size;
        heap_.hook();
        if (exact) {
            // Stale-epoch FREEING is recover_leaks' reclaim trigger.
            heap_.set_meta(b.raw,
                           NvHeap::pack_meta(NvHeap::kBlockFreeing, 0,
                                             cur_epoch - 1, t, aligned),
                           dom_);
            heap_.cls_free_[cls].fetch_add(1, std::memory_order_relaxed);
        } else {
            heap_.set_meta(b.raw,
                           NvHeap::pack_meta(NvHeap::kBlockFree, 0,
                                             cur_epoch, t, aligned),
                           dom_);
            heap_.oversize_freed_blocks_.fetch_add(
                1, std::memory_order_relaxed);
            heap_.oversize_freed_bytes_.fetch_add(
                b.size + sizeof(NvHeap::BlockHeader),
                std::memory_order_relaxed);
        }
        ++s.reclaimed_blocks;
        s.reclaimed_bytes += b.size + sizeof(NvHeap::BlockHeader);
    }
    // The GC rewrites headers behind the allocator's back: walk afresh.
    heap_.census_.reset();
    heap_.recover_leaks(dom_);
    s.reclaim_ns = stat_now_ns() - t0;
    return s;
}

uint64_t
HeapGc::ensure_journal()
{
    NvHeap::HeapState* st = heap_.state();
    if (st->compact_journal != 0) {
        journal_off_ = st->compact_journal;
        return journal_off_;
    }
    const size_t bytes = sizeof(uint64_t) * (1 + 2 * kJournalEntries);
    const uint64_t off = heap_.alloc(bytes, dom_, TypeId::kGcJournal);
    if (off == 0)
        return 0;
    PersistentHeap& ph = heap_.heap_;
    auto* count = ph.resolve<uint64_t>(off);
    dom_.store_val(count, uint64_t{0});
    dom_.flush(count, sizeof(uint64_t));
    dom_.fence();
    // Crash before the publish leaks a LIVE gc_journal block the next
    // repair reclaims (it is unreachable until this store lands).
    heap_.hook();
    dom_.store_val(&st->compact_journal, off);
    dom_.flush(&st->compact_journal, sizeof(uint64_t));
    dom_.fence();
    journal_off_ = off;
    return off;
}

void
HeapGc::rewrite_references()
{
    PersistentHeap& ph = heap_.heap_;
    const auto* j = ph.resolve<uint64_t>(journal_off_);
    const uint64_t count = j[0];
    if (count == 0)
        return;

    struct Move
    {
        uint64_t old_raw, old_end, old_pub, new_pub;
    };
    std::vector<Move> moves;
    moves.reserve(count);
    for (uint64_t i = 0; i < count; ++i) {
        const uint64_t old_raw = j[1 + 2 * i];
        const uint64_t new_raw = j[2 + 2 * i];
        const auto* oh = ph.resolve<NvHeap::BlockHeader>(
            old_raw - sizeof(NvHeap::BlockHeader));
        const bool aligned = NvHeap::meta_aligned(oh->meta);
        const uint64_t old_pub =
            aligned ? ((old_raw + 8 + 63) & ~uint64_t{63}) : old_raw;
        const uint64_t new_pub =
            aligned ? ((new_raw + 8 + 63) & ~uint64_t{63}) : new_raw;
        moves.push_back(Move{old_raw, old_raw + oh->size, old_pub, new_pub});
    }
    std::sort(moves.begin(), moves.end(),
              [](const Move& a, const Move& b) {
                  return a.old_raw < b.old_raw;
              });
    auto remap = [&](uint64_t v, uint64_t* out) {
        auto it = std::upper_bound(
            moves.begin(), moves.end(), v,
            [](uint64_t x, const Move& m) { return x < m.old_raw; });
        if (it == moves.begin())
            return false;
        const Move& m = *(it - 1);
        if (v < m.old_pub || v >= m.old_end)
            return false;
        *out = m.new_pub + (v - m.old_pub);
        return true;
    };

    // Every stored reference lives in a declared link field of a LIVE
    // typed block or in a root slot; rewrite each one that still
    // targets a journaled source extent.  Idempotent: a link already
    // rewritten no longer hits any extent.  The walk needs an index
    // that includes the copies, but compact() is still iterating its
    // pre-move index, so that index is set aside and restored.
    std::vector<BlockInfo> caller_blocks;
    std::vector<ChunkInfo> caller_chunks;
    blocks_.swap(caller_blocks);
    chunks_.swap(caller_chunks);
    build_index();
    std::vector<uint64_t> fields;
    bool dirty = false;
    for (const BlockInfo& b : blocks_) {
        if (NvHeap::meta_state(b.meta) != NvHeap::kBlockLive)
            continue;
        fields.clear();
        collect_link_fields(b, &fields);
        for (const uint64_t f : fields) {
            if (f + sizeof(uint64_t) > ph.size())
                continue;
            uint64_t* slot = ph.resolve<uint64_t>(f);
            uint64_t nv = 0;
            if (*slot != 0 && remap(*slot, &nv)) {
                dom_.store_val(slot, nv);
                dom_.flush(slot, sizeof(uint64_t));
                dirty = true;
            }
        }
    }
    blocks_.swap(caller_blocks);
    chunks_.swap(caller_chunks);
    if (dirty) {
        heap_.hook();
        dom_.fence();
    }
    for (const auto& [slot, off] : RootRegistry::block_roots(ph)) {
        uint64_t nv = 0;
        if (remap(off, &nv)) {
            heap_.hook();
            RootRegistry::set_ref(ph, slot, nv, dom_);
        }
    }
}

void
HeapGc::resolve_journal(GcStats* s)
{
    NvHeap::HeapState* st = heap_.state();
    if (st->compact_journal == 0)
        return;
    journal_off_ = st->compact_journal;
    PersistentHeap& ph = heap_.heap_;
    auto* j = ph.resolve<uint64_t>(journal_off_);
    const uint64_t count = dom_.load_val(&j[0]);
    if (count == 0)
        return;
    IDO_ASSERT(count <= kJournalEntries, "heap_gc: corrupt move journal");
    // Finish the interrupted protocol from where it stopped: every
    // journaled entry has a durable copy, so completing is always flip
    // source to MOVED, rewrite references, truncate -- each step
    // idempotent under repeated crashes.
    for (uint64_t i = 0; i < count; ++i) {
        const uint64_t old_raw = j[1 + 2 * i];
        const auto* oh = ph.resolve<NvHeap::BlockHeader>(
            old_raw - sizeof(NvHeap::BlockHeader));
        if (NvHeap::meta_state(oh->meta) == NvHeap::kBlockLive) {
            heap_.hook();
            heap_.set_meta(old_raw,
                           (oh->meta & ~uint64_t{0xffff})
                               | NvHeap::kBlockMoved,
                           dom_);
            const size_t cls = NvHeap::class_for_size(oh->size);
            if (cls < NvHeap::kNumClasses)
                heap_.cls_free_[cls].fetch_add(1,
                                               std::memory_order_relaxed);
        }
    }
    rewrite_references();
    heap_.hook();
    dom_.store_val(&j[0], uint64_t{0});
    dom_.flush(&j[0], sizeof(uint64_t));
    dom_.fence();
    s->journal_resolved = count;
}

void
HeapGc::purge_free_lists(const std::vector<uint64_t>& victims)
{
    if (victims.empty())
        return;
    PersistentHeap& ph = heap_.heap_;
    auto in_victim = [&](uint64_t off) {
        auto it = std::upper_bound(victims.begin(), victims.end(), off);
        if (it == victims.begin())
            return false;
        const uint64_t c = *(it - 1);
        return off > c && off < c + NvHeap::kChunkBytes;
    };
    NvHeap::HeapState* st = heap_.state();
    for (size_t sh = 0; sh < NvHeap::kNumShards; ++sh) {
        std::lock_guard<std::mutex> g(heap_.shard_mutexes_[sh]);
        for (size_t c = 0; c < NvHeap::kNumClasses; ++c) {
            uint64_t* slot = &st->shards[sh].heads[c];
            uint64_t cur = dom_.load_val(slot);
            while (cur != 0) {
                uint64_t* next_link = ph.resolve<uint64_t>(cur);
                const uint64_t nxt = dom_.load_val(next_link);
                if (in_victim(cur)) {
                    // Durable unlink; the entry becomes a stray FREE
                    // block recover_leaks would relink if its chunk
                    // survives (crash before the retire completes).
                    heap_.hook();
                    dom_.store_val(slot, nxt);
                    dom_.flush(slot, sizeof(uint64_t));
                    dom_.fence();
                } else {
                    slot = next_link;
                }
                cur = nxt;
            }
        }
    }
}

bool
HeapGc::relocate_one(const BlockInfo& b, uint64_t* journal_count)
{
    PersistentHeap& ph = heap_.heap_;
    const TypeId t = NvHeap::meta_type(b.meta);
    const bool aligned = NvHeap::meta_aligned(b.meta);
    if (aligned && b.size < 8 + 64 + 8)
        return true; // malformed; leave in place, census flagged it
    const uint64_t dst_raw =
        heap_.alloc_impl(b.size, dom_, t, aligned);
    if (dst_raw == 0)
        return false; // arena exhausted: stop relocating, keep census
    uint64_t src_pub = b.raw;
    uint64_t dst_pub = dst_raw;
    uint64_t len = b.size;
    if (aligned) {
        src_pub = published_off(b);
        dst_pub = (dst_raw + 8 + 63) & ~uint64_t{63};
        // alloc_aligned reserved 8 + 64 slack bytes, so the published
        // payload is at most size - 72 long and fits any block of the
        // class regardless of each copy's alignment skew.
        len = b.size - (8 + 64);
        auto* backptr = ph.resolve<uint64_t>(dst_pub - 8);
        dom_.store_val(backptr, dst_raw | 0x1);
        dom_.flush(backptr, sizeof(uint64_t));
    }
    // Move protocol, three durable steps the crash sweep can split
    // anywhere: (1) the copy -- source still canonical, the copy is an
    // unreachable duplicate a later repair collects; (2) the journal
    // entry + count -- the move is now committed, resolution completes
    // it; (3) the source flip to MOVED -- the copy is canonical.
    heap_.hook();
    dom_.store(ph.resolve<void>(dst_pub), ph.resolve<void>(src_pub), len);
    dom_.flush(ph.resolve<void>(dst_pub), len);
    dom_.fence();
    auto* j = ph.resolve<uint64_t>(journal_off_);
    heap_.hook();
    dom_.store_val(&j[1 + 2 * *journal_count], b.raw);
    dom_.store_val(&j[2 + 2 * *journal_count], dst_raw);
    dom_.flush(&j[1 + 2 * *journal_count], 2 * sizeof(uint64_t));
    dom_.fence();
    heap_.hook();
    dom_.store_val(&j[0], *journal_count + 1);
    dom_.flush(&j[0], sizeof(uint64_t));
    dom_.fence();
    heap_.hook();
    heap_.set_meta(b.raw,
                   (b.meta & ~uint64_t{0xffff}) | NvHeap::kBlockMoved,
                   dom_);
    // Counter balance: the destination bumped cls_alloc_; the carcass
    // counts as freed so the class live gauge stays flat across a move.
    const size_t cls = NvHeap::class_for_size(b.size);
    if (cls < NvHeap::kNumClasses)
        heap_.cls_free_[cls].fetch_add(1, std::memory_order_relaxed);
    ++*journal_count;
    return true;
}

void
HeapGc::retire_chunk(uint64_t chunk_off)
{
    PersistentHeap& ph = heap_.heap_;
    constexpr uint64_t kHdr = sizeof(NvHeap::BlockHeader);
    const uint64_t end = chunk_off + NvHeap::kChunkBytes;

    // Pass 1: zero every block's meta word.  Once a meta word is zero
    // the walk stops recognizing the block (and everything after it in
    // the chunk), so no partially-zeroed body is ever interpreted; the
    // size words are still intact, so a crash can never produce a
    // recognized header with a zero size.
    heap_.hook();
    uint64_t b = chunk_off + kHdr;
    while (b + kHdr <= end) {
        auto* bw = ph.resolve<uint64_t>(b);
        if (!recognized_state(bw[1] & 0xffff))
            break;
        const uint64_t sz = bw[0];
        dom_.store_val(&bw[1], uint64_t{0});
        dom_.flush(&bw[1], sizeof(uint64_t));
        // The blocks leave the arena: retire their class accounting
        // (each non-LIVE block was counted alloc+free at seed/walk).
        const size_t cls = NvHeap::class_for_size(sz);
        if (cls < NvHeap::kNumClasses
            && NvHeap::class_payload(cls) == sz) {
            heap_.cls_alloc_[cls].fetch_sub(1, std::memory_order_relaxed);
            heap_.cls_free_[cls].fetch_sub(1, std::memory_order_relaxed);
        }
        if (sz == 0 || b + kHdr + sz > end)
            break;
        b += kHdr + sz;
    }
    dom_.fence();

    // Pass 2: zero the whole body so a reused chunk can never leak a
    // stale recognizable header into a future walk.
    heap_.hook();
    static const char zeros[1024] = {};
    for (uint64_t o = chunk_off + kHdr; o < end;) {
        const uint64_t n = std::min<uint64_t>(sizeof(zeros), end - o);
        dom_.store(ph.resolve<void>(o), zeros, n);
        dom_.flush(ph.resolve<void>(o), n);
        o += n;
    }
    dom_.fence();

    // Pass 3: link into the retired-chunk list (next pointer lives in
    // the first header slot's size word) and publish the new head.
    std::lock_guard<std::mutex> g(heap_.refill_mutex_);
    NvHeap::HeapState* st = heap_.state();
    uint64_t* link = ph.resolve<uint64_t>(chunk_off + kHdr);
    heap_.hook();
    dom_.store_val(link, dom_.load_val(&st->chunk_free));
    dom_.flush(link, sizeof(uint64_t));
    dom_.fence();
    heap_.hook();
    dom_.store_val(&st->chunk_free, chunk_off);
    dom_.flush(&st->chunk_free, sizeof(uint64_t));
    dom_.fence();
}

GcStats
HeapGc::compact()
{
    GcStats s;
    PersistentHeap& ph = heap_.heap_;
    const uint64_t t0 = stat_now_ns();

    // Quiesce the transient layer: parked frees become FREE+listed and
    // every thread's chunk cursor is abandoned, so nothing volatile
    // references a chunk this run might retire.
    heap_.flush_transient_caches(dom_);
    resolve_journal(&s);
    heap_.census_.reset(); // journal resolution rewrites headers
    heap_.recover_leaks(dom_);
    survey(&s);

    if (s.pinned_blocks != 0 || s.opaque_live != 0) {
        // A pinned log record's register snapshot -- or any opaque
        // block's uninspectable interior -- may hold offsets we cannot
        // retarget.  Empty chunks still retire (no offset dies) unless
        // a log record pins: its interrupted FASE may have reserved a
        // block that walks as free, or was never carved, in a chunk
        // that looks empty.
        s.relocation_refused = true;
        note(&s, [&] {
            return "relocation refused: " + std::to_string(s.pinned_blocks)
                   + " pinned / " + std::to_string(s.opaque_live)
                   + " opaque LIVE blocks";
        });
    }

    // Chunks already parked on the retired list walk as empty but must
    // not be retired twice.
    std::vector<uint64_t> already_retired;
    {
        const NvHeap::HeapState* st = heap_.state();
        uint64_t c = st->chunk_free;
        while (c != 0) {
            already_retired.push_back(c);
            c = *ph.resolve<uint64_t>(c + sizeof(NvHeap::BlockHeader));
        }
        std::sort(already_retired.begin(), already_retired.end());
    }
    auto on_retired_list = [&](uint64_t off) {
        return std::binary_search(already_retired.begin(),
                                  already_retired.end(), off);
    };

    std::vector<uint64_t> retire_set; // empty now, zero+link at the end
    std::vector<size_t> move_chunks;  // indexes into chunks_
    for (size_t ci = 0; ci < chunks_.size(); ++ci) {
        const ChunkInfo& c = chunks_[ci];
        if (on_retired_list(c.off))
            continue;
        uint64_t live_bytes = 0;
        bool movable = true;
        for (size_t i = c.first_block; i < c.last_block; ++i) {
            const BlockInfo& b = blocks_[i];
            if (NvHeap::meta_state(b.meta) != NvHeap::kBlockLive)
                continue;
            live_bytes += b.size + sizeof(NvHeap::BlockHeader);
            if (b.opaque || b.pinned)
                movable = false;
        }
        if (live_bytes == 0) {
            if (s.pinned_blocks == 0)
                retire_set.push_back(c.off);
        }
        else if (!s.relocation_refused && movable
                 && live_bytes * 100
                        <= NvHeap::kChunkBytes * kVictimLivePct)
            move_chunks.push_back(ci);
    }

    if (!move_chunks.empty() && ensure_journal() == 0) {
        note(&s, [] {
            return std::string(
                "no room for the move journal; relocation skipped");
        });
        move_chunks.clear();
    }

    // Free-list entries inside any victim must be unlinked before the
    // chunk is emptied or reused as a relocation source: the zeroing
    // would otherwise tear a durable list, and the destination
    // allocator must never hand back a block we are about to retire.
    std::vector<uint64_t> victims = retire_set;
    for (const size_t ci : move_chunks)
        victims.push_back(chunks_[ci].off);
    std::sort(victims.begin(), victims.end());
    purge_free_lists(victims);

    uint64_t journal_count = 0;
    for (const size_t ci : move_chunks) {
        const ChunkInfo& c = chunks_[ci];
        bool emptied = true;
        for (size_t i = c.first_block; i < c.last_block; ++i) {
            const BlockInfo& b = blocks_[i];
            if (NvHeap::meta_state(b.meta) != NvHeap::kBlockLive)
                continue;
            if (journal_count == kJournalEntries) {
                rewrite_references();
                auto* j = ph.resolve<uint64_t>(journal_off_);
                heap_.hook();
                dom_.store_val(&j[0], uint64_t{0});
                dom_.flush(&j[0], sizeof(uint64_t));
                dom_.fence();
                journal_count = 0;
            }
            if (!relocate_one(b, &journal_count)) {
                emptied = false;
                note(&s, [&] {
                    return "arena exhausted mid-relocation; chunk "
                           + hex(c.off) + " kept";
                });
                break;
            }
            ++s.relocated_blocks;
            s.relocated_bytes += b.size + sizeof(NvHeap::BlockHeader);
        }
        if (emptied)
            retire_set.push_back(c.off);
        else
            break; // exhausted: later chunks cannot do better
    }
    if (journal_count != 0) {
        rewrite_references();
        auto* j = ph.resolve<uint64_t>(journal_off_);
        heap_.hook();
        dom_.store_val(&j[0], uint64_t{0});
        dom_.flush(&j[0], sizeof(uint64_t));
        dom_.fence();
    }

    // Only now -- journal empty, every reference rewritten -- is it
    // safe to destroy the MOVED carcasses' headers.
    for (const uint64_t chunk : retire_set) {
        retire_chunk(chunk);
        ++s.chunks_retired;
    }
    s.reclaim_ns =
        stat_now_ns() - t0 - (s.index_ns + s.mark_ns + s.census_ns);
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
    reg.set("heap.gc.pinned_blocks", s.pinned_blocks);
    reg.set("heap.gc.moved_carcasses", s.moved_blocks);
    reg.add("heap.gc.reclaimed_blocks", s.reclaimed_blocks);
    reg.add("heap.gc.reclaimed_bytes", s.reclaimed_bytes);
    reg.add("heap.gc.relocated_blocks", s.relocated_blocks);
    reg.add("heap.gc.chunks_retired", s.chunks_retired);
    reg.set("heap.gc.last_index_us", s.index_ns / 1000);
    reg.set("heap.gc.last_mark_us", s.mark_ns / 1000);
    reg.set("heap.gc.last_census_us", s.census_ns / 1000);
    reg.set("heap.gc.last_reclaim_us", s.reclaim_ns / 1000);
    reg.set("heap.gc.last_mark_threads", s.mark_threads);
}

} // namespace ido::nvm
