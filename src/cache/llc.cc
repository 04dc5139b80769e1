#include "cache/llc.hh"

#include "common/audit.hh"
#include "common/bitutil.hh"

namespace nvo
{

LlcSlice::LlcSlice(const Params &params, unsigned slice_id)
    : arr(params.sliceBytes, params.ways), lat(params.latency),
      slice(slice_id)
{
}

DirEntry &
LlcSlice::dir(Addr line_addr)
{
    return directory[line_addr];
}

DirEntry *
LlcSlice::dirProbe(Addr line_addr)
{
    return directory.find(line_addr);
}

void
LlcSlice::dirErase(Addr line_addr)
{
    directory.erase(line_addr);
}

void
LlcSlice::audit() const
{
    if (!audit::enabled)
        return;
    arr.audit();
    arr.forEachValid([](const CacheLine &line) {
        NVO_AUDIT(line.sharers == 0,
                  "L2-private sharer bits on an LLC line");
        NVO_AUDIT(!line.sealed(), "sealed payload in the LLC");
    });
    directory.forEach([](Addr line_addr, const DirEntry &e) {
        NVO_AUDIT(lineAlign(line_addr) == line_addr,
                  "directory keyed by an unaligned address");
        NVO_AUDIT(e.ownerVd < 0 ||
                      e.isSharer(static_cast<unsigned>(e.ownerVd)),
                  "directory owner VD is not a sharer");
        NVO_AUDIT(e.hasSharers() || e.ownerVd >= 0,
                  "empty directory entry retained");
    });
}

} // namespace nvo
