#include "nvoverlay/versioned_domain.hh"

#include "common/log.hh"

namespace nvo
{

void
VersionedDomain::advance(EpochWide target, bool lamport)
{
    nvo_assert(target > cur, "epoch advance must move forward");
    cur = target;
    storesThisEpoch = 0;
    ++advanceCount;
    if (lamport)
        ++lamportCount;
}

} // namespace nvo
