/**
 * @file
 * Edge-case coverage: recovery validation failure paths, stats
 * printing, snapshot-reader boundaries, buffer bypass semantics, and
 * directory behaviour (presence release, bounded size) under eviction
 * pressure.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "cache/hierarchy.hh"
#include "common/log.hh"
#include "harness/experiment.hh"
#include "harness/system.hh"
#include "mem/dram_model.hh"
#include "mem/nvm_model.hh"
#include "nvoverlay/omc.hh"
#include "nvoverlay/recovery.hh"
#include "nvoverlay/snapshot_reader.hh"

namespace nvo
{
namespace
{

LineData
lineOf(std::uint8_t fill)
{
    LineData d;
    d.bytes.fill(fill);
    return d;
}

TEST(RecoveryValidate, DetectsCorruptedImage)
{
    RunStats stats;
    NvmModel nvm(NvmModel::Params{}, &stats);
    MnmBackend::Params params;
    params.numOmcs = 1;
    params.numVds = 1;
    MnmBackend backend(params, nvm, stats);
    backend.insertVersion(0x1000, 1, 1, lineOf(7), 0);
    backend.reportMinVer(0, 2, 0);

    RecoveryManager rm(backend);
    auto result = rm.recover();
    EXPECT_EQ(RecoveryManager::validate(result, backend), "");

    // Corrupt one recovered line: validation must notice.
    result.image->writeLine(0x1000, lineOf(8));
    EXPECT_NE(RecoveryManager::validate(result, backend), "");
}

TEST(RecoveryValidate, DetectsMissingLines)
{
    RunStats stats;
    NvmModel nvm(NvmModel::Params{}, &stats);
    MnmBackend::Params params;
    params.numOmcs = 1;
    params.numVds = 1;
    MnmBackend backend(params, nvm, stats);
    backend.insertVersion(0x1000, 1, 1, lineOf(7), 0);

    RecoveryManager rm(backend);
    auto result = rm.recover();   // before any merge: empty master
    EXPECT_EQ(result.linesRestored, 0u);
    backend.reportMinVer(0, 2, 0);   // now the master maps the line
    EXPECT_NE(RecoveryManager::validate(result, backend), "")
        << "image restored fewer lines than the master maps";
}

TEST(SnapshotReaderEdge, EpochZeroAndUnknownLines)
{
    RunStats stats;
    NvmModel nvm(NvmModel::Params{}, &stats);
    MnmBackend::Params params;
    params.numOmcs = 1;
    params.numVds = 1;
    MnmBackend backend(params, nvm, stats);
    backend.insertVersion(0x1000, 3, 1, lineOf(9), 0);

    SnapshotReader reader(backend);
    EXPECT_FALSE(reader.readLine(0x1000, 0).has_value());
    EXPECT_FALSE(reader.readLine(0x1000, 2).has_value());
    EXPECT_TRUE(reader.readLine(0x1000, 3).has_value());
    EXPECT_FALSE(reader.readLine(0x9999000, 100).has_value());
    // Unaligned byte address resolves to its line.
    EXPECT_TRUE(reader.readLine(0x1017, 3).has_value());
}

TEST(SnapshotReaderEdge, MultiLineReadFailsOnGaps)
{
    RunStats stats;
    NvmModel nvm(NvmModel::Params{}, &stats);
    MnmBackend::Params params;
    params.numOmcs = 1;
    params.numVds = 1;
    MnmBackend backend(params, nvm, stats);
    backend.insertVersion(0x1000, 1, 1, lineOf(1), 0);
    // 0x1040 never snapshotted.
    SnapshotReader reader(backend);
    std::uint8_t buf[96];
    EXPECT_FALSE(reader.read(0x1020, buf, sizeof(buf), 1))
        << "read spanning an unmapped line must fail";
    EXPECT_TRUE(reader.read(0x1000, buf, 64, 1));
}

TEST(BufferBypass, FinalizeStopsBuffering)
{
    RunStats stats;
    NvmModel nvm(NvmModel::Params{}, &stats);
    MnmBackend::Params params;
    params.numOmcs = 1;
    params.numVds = 1;
    params.useBuffer = true;
    MnmBackend backend(params, nvm, stats);
    backend.insertVersion(0x1000, 1, 1, lineOf(1), 0);
    EXPECT_EQ(stats.nvmDataBytes(), 0u) << "buffered";
    backend.finalize(0);
    backend.insertVersion(0x1040, 1, 2, lineOf(2), 0);
    EXPECT_GE(stats.nvmDataBytes(), 128u)
        << "post-finalize inserts write through";
}

TEST(StatsPrint, ContainsKeyFields)
{
    RunStats st;
    st.cycles = 123;
    st.refs = 45;
    st.addNvmWrite(NvmWriteKind::Data, 64, 0);
    std::ostringstream os;
    st.print(os, "unit");
    std::string text = os.str();
    EXPECT_NE(text.find("=== unit ==="), std::string::npos);
    EXPECT_NE(text.find("cycles 123"), std::string::npos);
    EXPECT_NE(text.find("data=64"), std::string::npos);
    EXPECT_NE(text.find("tag-walk=0"), std::string::npos);
}

TEST(DirectoryEdge, EvictionReleasesPresence)
{
    RunStats stats;
    BackingStore backing;
    DramModel dram(DramModel::Params{}, &stats);
    Hierarchy::Params p;
    p.numCores = 2;
    p.coresPerVd = 2;
    p.numLlcSlices = 1;
    p.l1.sizeBytes = 512;   // 8 lines
    p.l1.ways = 2;
    p.l2.sizeBytes = 1024;  // 16 lines
    p.l2.ways = 2;
    p.llc.sliceBytes = 16 * 1024;
    Hierarchy hier(p, backing, dram, stats);

    // Touch far more lines than the L2 holds: directory entries for
    // evicted lines must drop this VD.
    for (Addr a = 0; a < 64; ++a)
        hier.store(0, 0x100000 + a * 4096, nullptr, 8, 0);
    unsigned resident = 0;
    for (Addr a = 0; a < 64; ++a) {
        const DirEntry *e = hier.dirEntry(0x100000 + a * 4096);
        if (e && e->isSharer(0))
            ++resident;
    }
    EXPECT_LE(resident, 16u) << "at most the L2 capacity stays listed";
    EXPECT_EQ(hier.checkInvariants(), "");
}

TEST(DirectoryEdge, StaysBoundedByL2Capacity)
{
    RunStats stats;
    BackingStore backing;
    DramModel dram(DramModel::Params{}, &stats);
    Hierarchy::Params p;
    p.numCores = 4;
    p.coresPerVd = 2;       // 2 VDs
    p.numLlcSlices = 4;
    p.l1.sizeBytes = 512;   // 8 lines
    p.l1.ways = 2;
    p.l2.sizeBytes = 1024;  // 16 lines
    p.l2.ways = 2;
    p.llc.sliceBytes = 16 * 1024;
    Hierarchy hier(p, backing, dram, stats);
    const std::size_t l2_lines =
        hier.numVds() * (p.l2.sizeBytes / lineBytes);

    auto dir_size = [&hier] {
        std::size_t n = 0;
        for (unsigned s = 0; s < hier.numSlices(); ++s)
            n += hier.llcSlice(s).dirSize();
        return n;
    };

    // Both VDs share a few lines; VD 1 keeps them, VD 0 evicts them.
    const Addr shared = 0x800000;
    for (Addr a = 0; a < 4; ++a) {
        hier.load(2, shared + a * lineBytes, 0);
        hier.load(0, shared + a * lineBytes, 0);
    }

    // Stream 20x one L2's capacity of distinct lines through VD 0,
    // over every set and slice, mixing loads and stores on both of
    // its cores.
    const Addr base = 0x400000;
    const Addr stride = pageBytes + lineBytes;
    const unsigned streamed = 20 * (p.l2.sizeBytes / lineBytes);
    for (unsigned i = 0; i < streamed; ++i) {
        Addr a = base + i * stride;
        unsigned core = i % 2;
        if (i % 3 == 0)
            hier.store(core, a, nullptr, 8, 0);
        else
            hier.load(core, a, 0);
        ASSERT_LE(dir_size(), l2_lines)
            << "directory outgrew the L2s after " << i + 1 << " lines";
    }

    // The first streamed line left VD 0 long ago and no other VD
    // holds it: its entry is gone, not kept empty.
    EXPECT_EQ(hier.l2Line(0, base), nullptr);
    EXPECT_EQ(hier.dirEntry(base), nullptr);
    // A shared line VD 1 still holds keeps its entry, without VD 0.
    for (Addr a = 0; a < 4; ++a) {
        Addr line = shared + a * lineBytes;
        EXPECT_EQ(hier.l2Line(0, line), nullptr);
        ASSERT_NE(hier.l2Line(1, line), nullptr);
        const DirEntry *e = hier.dirEntry(line);
        ASSERT_NE(e, nullptr);
        EXPECT_TRUE(e->isSharer(1));
        EXPECT_FALSE(e->isSharer(0));
    }
    EXPECT_EQ(hier.checkInvariants(), "");
    for (unsigned s = 0; s < hier.numSlices(); ++s)
        hier.llcSlice(s).audit();
}

TEST(LlcEdge, DirtyVictimsReachDram)
{
    RunStats stats;
    BackingStore backing;
    DramModel dram(DramModel::Params{}, &stats);
    Hierarchy::Params p;
    p.numCores = 2;
    p.coresPerVd = 2;
    p.numLlcSlices = 1;
    p.l1.sizeBytes = 512;
    p.l1.ways = 2;
    p.l2.sizeBytes = 1024;
    p.l2.ways = 2;
    p.llc.sliceBytes = 2048;   // 32 lines
    p.llc.ways = 2;
    Hierarchy hier(p, backing, dram, stats);

    for (Addr a = 0; a < 512; ++a)
        hier.store(0, 0x200000 + a * 4096, nullptr, 8, 0);
    EXPECT_GT(stats.dramWriteBytes, 0u)
        << "LLC capacity victims write back to DRAM";
}

} // namespace
} // namespace nvo
