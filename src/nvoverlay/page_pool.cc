#include "nvoverlay/page_pool.hh"

#include <algorithm>

#include "common/audit.hh"
#include "common/bitutil.hh"
#include "common/log.hh"
#include "fault/fault.hh"
#include "mem/persist_domain.hh"
#include "obs/registry.hh"
#include "obs/trace.hh"

namespace nvo
{

PagePool::PagePool(Addr base_addr, std::uint64_t size_bytes)
    : base(base_addr),
      hScan_(obs::metricRegistry().addHist("mnm.pool_scan_dist")),
      numPages(size_bytes / pageBytes)
{
    nvo_assert(pageAlign(base_addr) == base_addr);
    nvo_assert(numPages > 0, "pool needs at least one page");
    bitmap.resize((numPages + 63) / 64, 0);
}

unsigned
PagePool::roundLines(unsigned lines)
{
    nvo_assert(lines >= 1 && lines <= linesPerPage);
    unsigned v = 1;
    while (v < lines)
        v <<= 1;
    return v;
}

Addr
PagePool::allocPage()
{
    for (std::uint64_t i = 0; i < bitmap.size(); ++i) {
        std::uint64_t idx = (scanHint + i) % bitmap.size();
        if (bitmap[idx] == ~0ull)
            continue;
        std::uint64_t word = bitmap[idx];
        unsigned bit = 0;
        while ((word >> bit) & 1ull)
            ++bit;
        std::uint64_t page = idx * 64 + bit;
        if (page >= numPages)
            continue;
        bitmap[idx] |= 1ull << bit;
        scanHint = idx;
        ++usedPages;
        NVO_METRIC(record(hScan_, i + 1));
        if (pd && pd->armed()) {
            pd->stage(PersistDomain::Kind::PoolBitmap,
                      [this, idx, bit] {
                          bitmap[idx] &= ~(1ull << bit);
                          --usedPages;
                      });
        }
        NVO_TRACE_NOW(Pool, PoolPages, obs::trackSim, usedPages, 0);
        return base + page * pageBytes;
    }
    return invalidAddr;
}

void
PagePool::chargeAsid(tenant::Asid asid, std::int64_t lines)
{
    if (lines >= 0) {
        asidLines[asid] += static_cast<std::uint64_t>(lines);
        return;
    }
    auto it = asidLines.find(asid);
    nvo_assert(it != asidLines.end() &&
                   it->second >= static_cast<std::uint64_t>(-lines),
               "tenant line accounting went negative");
    it->second -= static_cast<std::uint64_t>(-lines);
    if (it->second == 0)
        asidLines.erase(it);
}

void
PagePool::forEachAsidLines(
    const std::function<void(tenant::Asid, std::uint64_t)> &fn) const
{
    for (const auto &kv : asidLines)
        fn(kv.first, kv.second);
}

Addr
PagePool::allocLines(unsigned lines, tenant::Asid asid)
{
    NVO_FAULT_POINT("pool.alloc");
    unsigned rounded = roundLines(lines);
    unsigned order = log2Exact(rounded);

    // Find the smallest order with a free block, splitting downward.
    unsigned from = order;
    while (from <= maxOrder && freeLists[from].empty())
        ++from;

    Addr block;
    bool from_free_list = from <= maxOrder;
    unsigned src_order = from_free_list ? from : maxOrder;
    if (!from_free_list) {
        block = allocPage();   // stages its own bitmap undo
        if (block == invalidAddr)
            return invalidAddr;
        from = maxOrder;
    } else {
        block = freeLists[from].back();
        freeLists[from].pop_back();
    }

    while (from > order) {
        --from;
        // Keep the low half, release the high half.
        freeLists[from].push_back(block +
                                  (static_cast<Addr>(1) << from) *
                                      lineBytes);
    }
    std::uint64_t bytes =
        static_cast<std::uint64_t>(rounded) * lineBytes;
    allocatedBytes += bytes;
    chargeAsid(asid, rounded);
    if (pd && pd->armed()) {
        // Reverse-order unwind guarantees the halves pushed above are
        // still at the back of their lists when this undo runs.
        pd->stage(PersistDomain::Kind::PoolBitmap,
                  [this, block, order, src_order, from_free_list,
                   bytes, asid, rounded] {
                      for (unsigned o = order; o < src_order; ++o)
                          freeLists[o].pop_back();
                      if (from_free_list)
                          freeLists[src_order].push_back(block);
                      allocatedBytes -= bytes;
                      chargeAsid(asid,
                                 -static_cast<std::int64_t>(rounded));
                  });
    }
    NVO_TRACE_NOW(Pool, PoolAlloc, obs::trackSim, block, rounded);
    return block;
}

void
PagePool::freeLines(Addr addr, unsigned lines, tenant::Asid asid)
{
    NVO_FAULT_POINT("pool.free");
    unsigned rounded = roundLines(lines);
    unsigned order = log2Exact(rounded);
    freeLists[order].push_back(addr);
    std::uint64_t bytes =
        static_cast<std::uint64_t>(rounded) * lineBytes;
    allocatedBytes -= bytes;
    chargeAsid(asid, -static_cast<std::int64_t>(rounded));
    if (pd && pd->armed()) {
        pd->stage(PersistDomain::Kind::PoolBitmap,
                  [this, order, bytes, asid, rounded] {
                      freeLists[order].pop_back();
                      allocatedBytes += bytes;
                      chargeAsid(asid, rounded);
                  });
    }
    NVO_TRACE_NOW(Pool, PoolFree, obs::trackSim, addr, rounded);
    // Note: no buddy coalescing; version compaction is the mechanism
    // that reclaims fragmented pools (paper Sec. V-D).
}

void
PagePool::extend(std::uint64_t pages)
{
    numPages += pages;
    bitmap.resize((numPages + 63) / 64, 0);
    if (pd && pd->armed()) {
        pd->stage(PersistDomain::Kind::PoolBitmap, [this, pages] {
            numPages -= pages;
            bitmap.resize((numPages + 63) / 64, 0);
        });
    }
    NVO_TRACE_NOW(Pool, PoolExtend, obs::trackSim, pages, 0);
}

void
PagePool::writeLine(Addr nvm_addr, const LineData &content)
{
    if (pd && pd->armed()) {
        LineData old;
        image.readLine(nvm_addr, old);
        pd->stage(PersistDomain::Kind::PoolData,
                  [this, nvm_addr, old] {
                      image.writeLine(nvm_addr, old);
                  });
    }
    image.writeLine(nvm_addr, content);
}

void
PagePool::readLine(Addr nvm_addr, LineData &out) const
{
    image.readLine(nvm_addr, out);
}

void
PagePool::setHeader(Addr sub_page, const SubPageHeader &hdr)
{
    if (pd && pd->armed()) {
        auto it = headers.find(sub_page);
        if (it == headers.end()) {
            pd->stage(PersistDomain::Kind::PoolHeader,
                      [this, sub_page] {
                          headers.erase(sub_page);
                      });
        } else {
            pd->stage(PersistDomain::Kind::PoolHeader,
                      [this, sub_page, old = it->second] {
                          headers[sub_page] = old;
                      });
        }
    }
    headers[sub_page] = hdr;
}

const PagePool::SubPageHeader *
PagePool::header(Addr sub_page) const
{
    auto it = headers.find(sub_page);
    return it == headers.end() ? nullptr : &it->second;
}

PagePool::SubPageHeader *
PagePool::header(Addr sub_page)
{
    auto it = headers.find(sub_page);
    if (it == headers.end())
        return nullptr;
    // The caller may mutate fields in place; snapshot the whole
    // header so a crash restores it (over-stages on read-only use,
    // which only happens while a campaign has the domain armed).
    if (pd && pd->armed()) {
        pd->stage(PersistDomain::Kind::PoolHeader,
                  [this, sub_page, old = it->second] {
                      headers[sub_page] = old;
                  });
    }
    return &it->second;
}

void
PagePool::dropHeader(Addr sub_page)
{
    if (pd && pd->armed()) {
        auto it = headers.find(sub_page);
        if (it != headers.end()) {
            pd->stage(PersistDomain::Kind::PoolHeader,
                      [this, sub_page, old = it->second] {
                          headers[sub_page] = old;
                      });
        }
    }
    headers.erase(sub_page);
}

void
PagePool::forEachHeader(
    const std::function<void(Addr, const SubPageHeader &)> &fn) const
{
    for (const auto &kv : headers)
        fn(kv.first, kv.second);
}

bool
PagePool::pageAllocated(Addr addr) const
{
    if (addr < base)
        return false;
    std::uint64_t page = (addr - base) / pageBytes;
    if (page >= numPages)
        return false;
    return (bitmap[page / 64] >> (page % 64)) & 1ull;
}

void
PagePool::audit() const
{
    if (!audit::enabled)
        return;

    // Bitmap population backs the used-page counter.
    std::uint64_t pop = 0;
    for (std::uint64_t w : bitmap)
        pop += popcount64(w);
    NVO_AUDIT(pop == usedPages, "used-page count diverged from bitmap");
    NVO_AUDIT(usedPages <= numPages, "more pages used than exist");

    // Collect every extent the allocator considers spoken for: free
    // blocks awaiting reuse and live sub-page headers. None of them
    // may overlap — an overlap is a double-mapped sub-page, the
    // silent-corruption bug class of Sec. V-C.
    struct Extent
    {
        Addr lo;
        Addr hi;
        bool free;
    };
    std::vector<Extent> extents;
    std::uint64_t free_bytes = 0;
    for (unsigned order = 0; order <= maxOrder; ++order) {
        const std::uint64_t block_bytes =
            (static_cast<std::uint64_t>(1) << order) * lineBytes;
        for (Addr a : freeLists[order]) {
            NVO_AUDIT(pageAllocated(a),
                      "free block outside any allocated page");
            NVO_AUDIT((a - base) % block_bytes == 0,
                      "free block misaligned for its order");
            extents.push_back({a, a + block_bytes, true});
            free_bytes += block_bytes;
        }
    }
    for (const auto &kv : headers) {
        const SubPageHeader &hdr = kv.second;
        NVO_AUDIT(pageAllocated(kv.first),
                  "sub-page header outside any allocated page");
        NVO_AUDIT(hdr.capacityLines >= 1 &&
                      hdr.capacityLines <= linesPerPage,
                  "sub-page header with impossible capacity");
        NVO_AUDIT(hdr.usedLines <= hdr.capacityLines,
                  "sub-page header uses more lines than it holds");
        extents.push_back(
            {kv.first,
             kv.first + static_cast<Addr>(hdr.capacityLines) *
                            lineBytes,
             false});
    }
    std::sort(extents.begin(), extents.end(),
              [](const Extent &a, const Extent &b) {
                  return a.lo < b.lo;
              });
    for (std::size_t i = 1; i < extents.size(); ++i)
        NVO_AUDIT(extents[i - 1].hi <= extents[i].lo,
                  extents[i - 1].free || extents[i].free
                      ? "free list overlaps a mapped sub-page"
                      : "two sub-page headers map the same lines");

    // Every byte of an in-use page is either handed out or free:
    // allocPage() introduces whole pages as maxOrder blocks and
    // alloc/free keep the split exact.
    NVO_AUDIT(allocatedBytes + free_bytes == usedPages * pageBytes,
              "allocator byte accounting out of balance");

    // Per-tenant line tallies partition the allocated bytes exactly
    // (the stats-side exact-sum invariant's allocator twin).
    std::uint64_t asid_lines = 0;
    for (const auto &kv : asidLines)
        asid_lines += kv.second;
    NVO_AUDIT(asid_lines * lineBytes == allocatedBytes,
              "per-tenant line accounting out of balance");
}

} // namespace nvo
