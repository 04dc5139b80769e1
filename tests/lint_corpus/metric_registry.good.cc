// lint-path: nvoverlay/fixture.cc
// The hooked shape: hold registry-owned handles (pointers), register
// by name in the constructor, record through NVO_METRIC. Forward
// declarations of the metric types are also fine.

namespace obs
{
struct HistMetric;
} // namespace obs

struct Instrumented
{
    obs::HistMetric *hWalk_ = nullptr;

    Instrumented()
        : hWalk_(obs::metricRegistry().addHist("mnm.walk_depth"))
    {
    }

    void
    walk(unsigned depth)
    {
        NVO_METRIC(record(hWalk_, depth));
    }
};
