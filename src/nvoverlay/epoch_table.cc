#include "nvoverlay/epoch_table.hh"

#include <algorithm>
#include <utility>

#include "common/audit.hh"
#include "common/bitutil.hh"
#include "common/log.hh"
#include "obs/registry.hh"

namespace nvo
{

namespace
{

/** Radix key bits: the walk consumes address bits 47..12. */
constexpr Addr radixKeyMask =
    ((Addr(1) << 48) - 1) & ~static_cast<Addr>(pageBytes - 1);

/** Inner levels (1..3) whose node the walks to pages @p a and @p b
 *  share. */
unsigned
sharedLevels(Addr a, Addr b)
{
    const Addr x = (a ^ b) & radixKeyMask;
    return x >> 39 ? 0 : x >> 30 ? 1 : x >> 21 ? 2 : 3;
}

} // namespace

EpochTable::EpochTable(EpochWide e, PagePool &page_pool,
                       const Params &params, std::uint64_t *bytes_total)
    : epoch_(e), pool(page_pool), p(params),
      hWalk_(obs::metricRegistry().addHist("mnm.insert_walk_depth")),
      bytesTotal_(bytes_total)
{
    nvo_assert(isPow2(p.initLines) && p.initLines >= 1 &&
               p.initLines <= linesPerPage);
    nvo_assert(p.growthFactor >= 2);
    charge(tableBytes());   // the root
}

EpochTable::~EpochTable()
{
    if (bytesTotal_)
        *bytesTotal_ -= tableBytes();
    if (root)
        destroy(root, 0);
}

void
EpochTable::destroy(Node *node, unsigned level)
{
    if (level < 3) {
        for (void *c : node->child)
            if (c)
                destroy(static_cast<Node *>(c), level + 1);
    }
    // Level-3 children are PageEntry pointers owned by `entries`.
    delete node;
}

unsigned
EpochTable::idxAt(Addr page_addr, unsigned level)
{
    // Levels 0..3 consume bits 47..39, 38..30, 29..21, 20..12.
    unsigned shift = 39 - level * 9;
    return static_cast<unsigned>((page_addr >> shift) & 0x1ff);
}

unsigned
EpochTable::radixInsert(PageEntry *pe)
{
    Node *node = root;
    unsigned allocated = 0;
    for (unsigned level = 0; level < 3; ++level) {
        void *&c = node->child[idxAt(pe->pageAddr, level)];
        if (!c) {
            c = new Node;
            ++allocated;
        }
        node = static_cast<Node *>(c);
    }
    node->child[idxAt(pe->pageAddr, 3)] = pe;
    return allocated;
}

EpochTable::PageEntry *
EpochTable::findEntry(Addr page_addr) const
{
    if (!root) {
        const Addr key = page_addr & radixKeyMask;
        for (const auto &pe : entries)
            if ((pe->pageAddr & radixKeyMask) == key)
                return pe.get();
        return nullptr;
    }
    const Node *node = root;
    for (unsigned level = 0; level < 3; ++level) {
        const void *c = node->child[idxAt(page_addr, level)];
        if (!c)
            return nullptr;
        node = static_cast<const Node *>(c);
    }
    return static_cast<PageEntry *>(
        const_cast<void *>(node->child[idxAt(page_addr, 3)]));
}

EpochTable::PageEntry *
EpochTable::findOrCreateEntry(Addr page_addr)
{
    PageEntry *pe = findEntry(page_addr);
    unsigned allocated = 0;
    if (!pe) {
        if (!root && entries.size() == scanPages) {
            // Outgrown the scan: build the host radix, which must
            // allocate exactly the modelled inner nodes.
            root = new Node;
            std::uint64_t nodes = 1;
            for (const auto &e : entries)
                nodes += radixInsert(e.get());
            nvo_assert(nodes == nodeCount,
                       "host radix diverged from the modelled one");
        }
        entries.push_back(std::make_unique<PageEntry>());
        pe = entries.back().get();
        pe->pageAddr = page_addr;
        if (root) {
            allocated = radixInsert(pe);
        } else {
            // Inner nodes the hardware walk would allocate on the
            // way down: those no earlier page's walk passed through.
            unsigned shared = 0;
            for (std::size_t i = 0; i + 1 < entries.size(); ++i)
                shared = std::max(
                    shared, sharedLevels(entries[i]->pageAddr,
                                         page_addr));
            allocated = 3 - shared;
        }
        nodeCount += allocated;
        charge(allocated * nodeBytes + leafBytes);
        ++allocated;
    }
    // Fixed-depth radix: 4 nodes visited, plus one "cost" unit per
    // node/leaf allocated on the way down.
    NVO_METRIC(record(hWalk_, 4 + allocated));
    return pe;
}

bool
EpochTable::grow(PageEntry &pe, const Sinks &sinks)
{
    unsigned new_cap = pe.capacity == 0
                           ? p.initLines
                           : std::min<unsigned>(
                                 pe.capacity * p.growthFactor,
                                 linesPerPage);
    // The overlay page's tag names the tenant whose quota this
    // sub-page counts against.
    const tenant::Asid asid = tenant::asidOf(pe.pageAddr);
    Addr fresh = pool.allocLines(new_cap, asid);
    if (fresh == invalidAddr)
        return false;

    // Relocate existing slots compactly into the new sub-page.
    for (unsigned slot = 0; slot < pe.used; ++slot) {
        LineData tmp;
        pool.readLine(pe.subPage + static_cast<Addr>(slot) * lineBytes,
                      tmp);
        Addr dst = fresh + static_cast<Addr>(slot) * lineBytes;
        pool.writeLine(dst, tmp);
        if (sinks.reloc)
            sinks.reloc(dst, lineBytes);
        else if (sinks.data)
            sinks.data(dst, lineBytes);
        relocBytes += lineBytes;
    }

    PagePool::SubPageHeader hdr;
    if (pe.subPage != invalidAddr) {
        // Read through the const overload: the mutable one stages a
        // persist-domain undo, which the dropHeader below already
        // covers.
        if (const auto *old = std::as_const(pool).header(pe.subPage))
            hdr = *old;
        pool.dropHeader(pe.subPage);
        pool.freeLines(pe.subPage, pe.capacity, asid);
    }
    hdr.srcPage = pe.pageAddr;
    hdr.epoch = epoch_;
    hdr.capacityLines = static_cast<std::uint8_t>(new_cap);
    hdr.usedLines = pe.used;
    pool.setHeader(fresh, hdr);
    if (sinks.meta)
        sinks.meta(16);   // header create/update

    pe.subPage = fresh;
    pe.capacity = static_cast<std::uint8_t>(new_cap);
    return true;
}

bool
EpochTable::insert(Addr line_addr, SeqNo seq, const LineData &content,
                   const Sinks &sinks)
{
    nvo_assert(lineAlign(line_addr) == line_addr);
    Addr page_addr = pageAlign(line_addr);
    unsigned li = lineInPage(line_addr);
    PageEntry *pe = findOrCreateEntry(page_addr);
    nvo_assert(!pe->reclaimed, "insert into a reclaimed overlay page");

    unsigned slot;
    bool fresh_line = !((pe->bitmap >> li) & 1ull);
    if (fresh_line) {
        if (pe->used == pe->capacity) {
            if (!grow(*pe, sinks))
                return false;
        }
        slot = pe->used++;
        pe->bitmap |= 1ull << li;
        pe->lineSlot[li] = static_cast<std::uint8_t>(slot);
        ++versions;
        if (auto *hdr = pool.header(pe->subPage)) {
            hdr->usedLines = pe->used;
            hdr->slotLine[slot] = static_cast<std::uint8_t>(li);
        }
    } else {
        // Same-epoch overwrite: the newest store wins in place. A
        // stale write (e.g., a walker draining content captured
        // before a concurrent same-epoch store) still costs a device
        // write but must not clobber newer content.
        slot = pe->lineSlot[li];
        if (seq < pe->slotSeq[slot]) {
            Addr nvm_addr =
                pe->subPage + static_cast<Addr>(slot) * lineBytes;
            if (sinks.data)
                sinks.data(nvm_addr, lineBytes);
            return true;
        }
    }

    pe->slotSeq[slot] = seq;
    Addr nvm_addr = pe->subPage + static_cast<Addr>(slot) * lineBytes;
    pool.writeLine(nvm_addr, content);
    if (sinks.data)
        sinks.data(nvm_addr, lineBytes);
    return true;
}

void
EpochTable::adoptSubPage(Addr sub_page,
                         const PagePool::SubPageHeader &header)
{
    nvo_assert(header.epoch == epoch_,
               "sub-page belongs to a different epoch");
    PageEntry *pe = findOrCreateEntry(header.srcPage);
    nvo_assert(pe->subPage == invalidAddr,
               "overlay page already populated");
    pe->subPage = sub_page;
    pe->capacity = header.capacityLines;
    pe->used = header.usedLines;
    for (unsigned slot = 0; slot < header.usedLines; ++slot) {
        unsigned li = header.slotLine[slot];
        pe->bitmap |= 1ull << li;
        pe->lineSlot[li] = static_cast<std::uint8_t>(slot);
        ++versions;
    }
}

Addr
EpochTable::lookupNvm(Addr line_addr) const
{
    const PageEntry *pe = findEntry(pageAlign(line_addr));
    if (!pe || pe->reclaimed)
        return invalidAddr;
    unsigned li = lineInPage(line_addr);
    if (!((pe->bitmap >> li) & 1ull))
        return invalidAddr;
    return pe->subPage +
           static_cast<Addr>(pe->lineSlot[li]) * lineBytes;
}

bool
EpochTable::readVersion(Addr line_addr, LineData &out) const
{
    Addr nvm = lookupNvm(line_addr);
    if (nvm == invalidAddr)
        return false;
    pool.readLine(nvm, out);
    return true;
}

void
EpochTable::forEachVersion(
    const std::function<void(Addr, Addr)> &fn) const
{
    for (const auto &pe : entries) {
        if (pe->reclaimed)
            continue;
        for (unsigned li = 0; li < linesPerPage; ++li) {
            if (!((pe->bitmap >> li) & 1ull))
                continue;
            fn(pe->pageAddr + static_cast<Addr>(li) * lineBytes,
               pe->subPage +
                   static_cast<Addr>(pe->lineSlot[li]) * lineBytes);
        }
    }
}

void
EpochTable::forEachPage(const std::function<void(PageEntry &)> &fn)
{
    for (auto &pe : entries)
        fn(*pe);
}

EpochTable::PageEntry *
EpochTable::pageEntry(Addr page_addr)
{
    return findEntry(page_addr);
}

const EpochTable::PageEntry *
EpochTable::pageEntry(Addr page_addr) const
{
    return findEntry(page_addr);
}

void
EpochTable::audit() const
{
    if (!audit::enabled)
        return;
    for (const auto &pe : entries) {
        NVO_AUDIT(pageAlign(pe->pageAddr) == pe->pageAddr,
                  "overlay page entry for an unaligned page");
        if (pe->reclaimed)
            continue;
        NVO_AUDIT(popcount64(pe->bitmap) == pe->used,
                  "line bitmap population diverged from slot count");
        NVO_AUDIT(pe->used <= pe->capacity,
                  "overlay page uses more slots than its capacity");
        NVO_AUDIT(pe->liveMaster <= pe->used,
                  "GC refcount exceeds stored versions");
        if (pe->used == 0)
            continue;
        NVO_AUDIT(pe->subPage != invalidAddr,
                  "versioned overlay page without NVM storage");
        NVO_AUDIT(pool.pageAllocated(pe->subPage),
                  "overlay page maps into an unallocated pool page");

        // line -> slot must be injective within capacity, and the
        // persistent header must tell the same story (it is what
        // recovery rebuilds the table from, Sec. V-E).
        std::uint64_t slots_taken = 0;
        for (unsigned li = 0; li < linesPerPage; ++li) {
            if (!((pe->bitmap >> li) & 1ull))
                continue;
            unsigned slot = pe->lineSlot[li];
            NVO_AUDIT(slot < pe->capacity,
                      "line slot outside the sub-page capacity");
            NVO_AUDIT(!((slots_taken >> slot) & 1ull),
                      "two lines share one sub-page slot");
            slots_taken |= 1ull << slot;
        }

        const PagePool::SubPageHeader *hdr =
            std::as_const(pool).header(pe->subPage);
        NVO_AUDIT(hdr != nullptr,
                  "live overlay page without a persistent header");
        if (!hdr)
            continue;
        NVO_AUDIT(hdr->srcPage == pe->pageAddr,
                  "header source page diverged from the entry");
        NVO_AUDIT(hdr->epoch == epoch_,
                  "header epoch diverged from the table epoch");
        NVO_AUDIT(hdr->capacityLines == pe->capacity,
                  "header capacity diverged from the entry");
        NVO_AUDIT(hdr->usedLines == pe->used,
                  "header fill diverged from the entry");
        for (unsigned slot = 0; slot < pe->used; ++slot) {
            unsigned li = hdr->slotLine[slot];
            NVO_AUDIT(li < linesPerPage &&
                          ((pe->bitmap >> li) & 1ull) &&
                          pe->lineSlot[li] == slot,
                      "header slot map diverged from the entry");
        }
    }
}

} // namespace nvo
