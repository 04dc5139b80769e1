#include "nvoverlay/omc_buffer.hh"

#include "common/audit.hh"
#include "common/bitutil.hh"
#include "common/log.hh"

namespace nvo
{

OmcBuffer::OmcBuffer(const Params &params) : ways_(params.ways)
{
    nvo_assert(params.ways > 0);
    std::uint64_t num_sets =
        params.sizeBytes / params.ways / lineBytes;
    nvo_assert(isPow2(num_sets), "buffer sets must be a power of two");
    sets = static_cast<unsigned>(num_sets);
    slots.resize(static_cast<std::size_t>(sets) * ways_);
}

unsigned
OmcBuffer::setOf(Addr line_addr) const
{
    return static_cast<unsigned>((line_addr >> lineBytesLog2) &
                                 (sets - 1));
}

OmcBuffer::InsertResult
OmcBuffer::insert(Addr line_addr, EpochWide epoch, unsigned cause)
{
    nvo_assert(lineAlign(line_addr) == line_addr);
    InsertResult result;
    Slot *base = &slots[static_cast<std::size_t>(setOf(line_addr)) *
                        ways_];

    Slot *free_slot = nullptr;
    Slot *victim = &base[0];
    for (unsigned w = 0; w < ways_; ++w) {
        Slot &s = base[w];
        if (s.valid && s.addr == line_addr) {
            if (s.epoch == epoch) {
                // Redundant same-epoch write back: absorbed.
                s.lru = ++lruClock;
                ++hitCount;
                result.hit = true;
                return result;
            }
            // Same address, different epoch: the old version is part
            // of a different snapshot and must reach NVM.
            result.evicted = Pending{s.addr, s.epoch, s.cause};
            s.epoch = epoch;
            s.cause = cause;
            s.lru = ++lruClock;
            ++missCount;
            return result;
        }
        if (!s.valid && !free_slot)
            free_slot = &s;
        if (s.valid && s.lru < victim->lru)
            victim = &s;
    }

    ++missCount;
    Slot *target = free_slot;
    if (!target) {
        result.evicted =
            Pending{victim->addr, victim->epoch, victim->cause};
        target = victim;
    } else {
        ++validCount;
    }
    target->valid = true;
    target->addr = line_addr;
    target->epoch = epoch;
    target->cause = cause;
    target->lru = ++lruClock;
    return result;
}

void
OmcBuffer::forEachPending(
    const std::function<void(const Pending &)> &fn) const
{
    for (const auto &s : slots)
        if (s.valid)
            fn(Pending{s.addr, s.epoch, s.cause});
}

void
OmcBuffer::audit() const
{
    if (!audit::enabled)
        return;
    std::uint64_t valid = 0;
    for (std::size_t i = 0; i < slots.size(); ++i) {
        const Slot &s = slots[i];
        if (!s.valid)
            continue;
        ++valid;
        NVO_AUDIT(lineAlign(s.addr) == s.addr,
                  "buffered pending write for an unaligned address");
        NVO_AUDIT(setOf(s.addr) == i / ways_,
                  "pending write buffered in the wrong set");
        NVO_AUDIT(s.lru <= lruClock,
                  "pending write stamped from the future");
        // Within the set, an (address, epoch) pair may appear once.
        const Slot *base = &slots[(i / ways_) * ways_];
        for (unsigned w = 0; w < ways_; ++w) {
            const Slot *o = &base[w];
            if (o == &s || !o->valid)
                continue;
            NVO_AUDIT(o->addr != s.addr,
                      "one address buffered in two ways of a set");
        }
    }
    NVO_AUDIT(valid == validCount,
              "buffer occupancy counter diverged from the slots");
}

std::vector<OmcBuffer::Pending>
OmcBuffer::drainAll()
{
    std::vector<Pending> out;
    for (auto &s : slots) {
        if (s.valid) {
            out.push_back(Pending{s.addr, s.epoch, s.cause});
            s = Slot{};
        }
    }
    validCount = 0;
    return out;
}

} // namespace nvo
