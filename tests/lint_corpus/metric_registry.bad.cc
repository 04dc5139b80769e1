// lint-path: nvoverlay/fixture.cc
// A privately owned histogram: invisible to the exporter and to the
// stats JSON metrics section.

struct BufferStats
{
    Histogram occupancy;
    Histogram stallCycles;
};

void
recordOccupancy(BufferStats &s, std::uint64_t occ)
{
    s.occupancy.record(occ);
}
