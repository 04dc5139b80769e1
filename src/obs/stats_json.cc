#include "obs/stats_json.hh"

#include "common/log.hh"
#include "obs/json.hh"
#include "obs/ledger.hh"
#include "obs/metrics.hh"
#include "obs/registry.hh"

namespace nvo
{
namespace obs
{

void
writeConfig(JsonWriter &w, const Config &cfg)
{
    w.beginObject();
    for (const auto &kv : cfg.dump())
        w.kv(kv.first, kv.second);
    w.endObject();
}

void
writeRunStats(JsonWriter &w, const RunStats &stats)
{
    w.beginObject();
    w.kv("cycles", stats.cycles);
    w.kv("instructions", stats.instructions);
    w.kv("refs", stats.refs);
    w.kv("loads", stats.loads);
    w.kv("stores", stats.stores);
    w.kv("barrier_stall_cycles", stats.barrierStallCycles);

    w.key("cache").beginObject();
    w.kv("l1_hits", stats.l1Hits).kv("l1_misses", stats.l1Misses);
    w.kv("l2_hits", stats.l2Hits).kv("l2_misses", stats.l2Misses);
    w.kv("llc_hits", stats.llcHits).kv("llc_misses", stats.llcMisses);
    w.endObject();

    w.key("epochs").beginObject();
    w.kv("advances", stats.epochAdvances);
    w.kv("lamport_advances", stats.lamportAdvances);
    w.kv("context_dumps", stats.contextDumps);
    w.endObject();

    w.key("nvm_write_bytes").beginObject();
    for (std::size_t i = 0;
         i < static_cast<std::size_t>(NvmWriteKind::NumKinds); ++i)
        w.kv(toString(static_cast<NvmWriteKind>(i)),
             stats.nvmWriteBytes[i]);
    w.kv("total", stats.totalNvmWriteBytes());
    w.endObject();
    w.kv("nvm_write_ops", stats.nvmWriteOps);
    w.kv("nvm_read_bytes", stats.nvmReadBytes);
    w.kv("dram_read_bytes", stats.dramReadBytes);
    w.kv("dram_write_bytes", stats.dramWriteBytes);

    w.key("evictions").beginObject();
    for (std::size_t i = 0;
         i < static_cast<std::size_t>(EvictReason::NumReasons); ++i)
        w.kv(toString(static_cast<EvictReason>(i)),
             stats.evictReason[i]);
    w.endObject();

    w.key("nvoverlay").beginObject();
    w.kv("omc_buffer_hits", stats.omcBufferHits);
    w.kv("omc_buffer_misses", stats.omcBufferMisses);
    w.kv("master_table_bytes", stats.masterTableBytes);
    w.kv("master_mapped_lines", stats.masterMappedLines);
    w.kv("epoch_table_bytes", stats.epochTableBytes);
    w.kv("pool_pages_in_use", stats.poolPagesInUse);
    w.kv("gc_compactions", stats.gcCompactions);
    w.kv("gc_bytes_copied", stats.gcBytesCopied);
    w.kv("tag_walk_lines_scanned", stats.tagWalkLinesScanned);
    w.kv("tag_walk_write_backs", stats.tagWalkWriteBacks);
    w.endObject();

    w.key("repl").beginObject();
    w.kv("frames_sent", stats.repl.framesSent);
    w.kv("frames_retried", stats.repl.framesRetried);
    w.kv("frames_dropped", stats.repl.framesDropped);
    w.kv("frames_corrupted", stats.repl.framesCorrupted);
    w.kv("frames_acked", stats.repl.framesAcked);
    w.kv("frames_deduped", stats.repl.framesDeduped);
    w.kv("wire_bytes", stats.repl.wireBytes);
    w.kv("delta_bytes", stats.repl.deltaBytes);
    w.kv("epochs_shipped", stats.repl.epochsShipped);
    w.kv("epochs_applied", stats.repl.epochsApplied);
    w.kv("late_shipped", stats.repl.lateShipped);
    w.kv("decode_resyncs", stats.repl.decodeResyncs);
    w.kv("decode_crc_errors", stats.repl.decodeCrcErrors);
    w.kv("backpressure_stalls", stats.repl.backpressureStalls);
    w.kv("cursor_persists", stats.repl.cursorPersists);
    w.kv("resumes", stats.repl.resumes);
    w.kv("reshipped_epochs", stats.repl.reshippedEpochs);
    w.kv("send_queue_peak", stats.repl.sendQueuePeak);
    w.kv("applied_rec_epoch", stats.repl.appliedRecEpoch);
    w.kv("cursor_epoch", stats.repl.cursorEpoch);
    w.endObject();

    w.key("nvm_bandwidth").beginObject();
    w.kv("bucket_cycles", stats.nvmBandwidth.bucketCycles());
    w.kv("peak_bytes", stats.nvmBandwidth.peakBytes());
    w.kv("mean_bytes", stats.nvmBandwidth.meanBytes());
    w.key("bytes_per_bucket").beginArray();
    for (std::uint64_t b : stats.nvmBandwidth.buckets())
        w.value(b);
    w.endArray();
    w.endObject();

    w.key("extra").beginObject();
    for (const auto &kv : stats.extra)
        w.kv(kv.first, kv.second);
    w.endObject();

    w.endObject();
}

void
writeStatsJson(std::ostream &os, const std::string &scheme,
               const std::string &workload, const Config &cfg,
               const RunStats &stats, const EpochSeries *series,
               double host_seconds,
               const std::function<void(JsonWriter &)> &policy_section)
{
    JsonWriter w(os);
    w.beginObject();
    w.kv("format", "nvo-stats-v1");
    w.kv("scheme", scheme);
    w.kv("workload", workload);
    w.kv("host_seconds", host_seconds);
    w.key("config");
    writeConfig(w, cfg);
    w.key("stats");
    writeRunStats(w, stats);
    w.key("ledger");
    obs::ledger().writeJson(w);
    // Registry snapshot: only on armed runs, so every
    // pre-metrics stats file (and baseline) is byte-identical.
    if (obs::metricRegistry().armed()) {
        w.key("metrics");
        obs::metricRegistry().writeJson(w);
    }
    if (series) {
        w.key("epoch_series");
        series->writeJson(w);
    }
    if (policy_section) {
        w.key("policy");
        policy_section(w);
    }
    w.endObject();
    os << "\n";
    nvo_assert(w.balanced(), "stats export left JSON unbalanced");
}

} // namespace obs
} // namespace nvo
