#include "pmu/pt_decode.hh"

#include <algorithm>

#include "support/log.hh"

namespace prorace::pmu {

using isa::Insn;
using isa::Op;

namespace {

/** Safety bound against malformed streams producing unbounded paths. */
constexpr uint64_t kMaxPathEntries = 200'000'000;

/** Per-thread walk state. */
struct Walker {
    enum class Need : uint8_t {
        kAdvance, ///< can walk statically
        kTnt,     ///< parked at a conditional branch
        kTip,     ///< parked at an indirect transfer
        kPge,     ///< parked outside the filtered region
        kDone,    ///< reached halt
    };

    uint32_t ip = 0;
    Need need = Need::kAdvance;
    ThreadPath path;
    /**
     * One past the last path position *proven* retired by the packets
     * applied so far. The walker speculatively walks straight-line code
     * ahead of the packets, so timing anchors must use this bound, not
     * the walked-ahead path length — otherwise instructions executed
     * after a blocking call could be timestamped before it.
     */
    uint64_t proven = 0;
    /**
     * Set when the stream feeding this walker lost synchronization:
     * the speculative suffix has been rolled back to `proven` and a
     * kPathGap appended; packets are refused until a context packet
     * re-anchors the walker at its resume ip.
     */
    bool desynced = false;
};

/**
 * Walk statically from the walker's ip, appending path entries, until a
 * packet is required or the thread halts.
 */
void
advance(Walker &w, const asmkit::Program &program, const PtFilter &filter,
        uint64_t &total_entries)
{
    PRORACE_ASSERT(w.need == Walker::Need::kAdvance,
                   "advance() on a parked walker");
    for (;;) {
        if (!filter.contains(w.ip)) {
            // Execution left the traced region; a PGE packet will tell us
            // where it comes back.
            w.path.insns.push_back(kPathGap);
            ++total_entries;
            w.need = Walker::Need::kPge;
            return;
        }
        const Insn &insn = program.insnAt(w.ip);
        w.path.insns.push_back(w.ip);
        if (++total_entries > kMaxPathEntries)
            PRORACE_FATAL("PT decode exceeded the path-length bound");

        switch (insn.op) {
          case Op::kHalt:
            w.need = Walker::Need::kDone;
            w.path.complete = true;
            return;
          case Op::kJcc:
            w.need = Walker::Need::kTnt;
            return;
          case Op::kJmp:
          case Op::kCall:
            w.ip = insn.target;
            break;
          case Op::kJmpInd:
          case Op::kCallInd:
          case Op::kRet:
            w.need = Walker::Need::kTip;
            return;
          default:
            ++w.ip;
            break;
        }
    }
}

/**
 * Roll @p w back to its proven prefix and mark the loss with a
 * kPathGap. The speculative walk-ahead past `proven` was predicated on
 * packets that are now untrusted, so it is discarded rather than kept
 * as plausible-but-unproven path.
 */
void
markDesynced(Walker &w, uint64_t &total_entries)
{
    if (w.desynced || w.need == Walker::Need::kDone)
        return;
    w.path.insns.resize(w.proven);
    w.path.insns.push_back(kPathGap);
    ++total_entries;
    w.desynced = true;
}

/** Apply one stream's packets to the stream's own walkers. */
void
decodeStreamInto(const asmkit::Program &program, const PtFilter &filter,
                 const trace::PtCoreStream &stream,
                 const std::map<uint32_t, uint32_t> &entries,
                 std::map<uint32_t, Walker> &walkers,
                 PtDecodeStats &stats)
{
    if (stream.bit_count == 0)
        return;
    BitReader reader(stream.bytes, stream.bit_count);
    Walker *current = nullptr;
    uint64_t stream_tsc = 0;
    // Walkers this stream has fed: the blast radius of a
    // desynchronization.
    std::vector<Walker *> stream_walkers;

    // Lose synchronization: gap every walker this stream feeds, then
    // scan forward for the next PSB. Returns false when the rest of
    // the stream holds no sync point and decoding must stop.
    auto resync = [&]() -> bool {
        for (Walker *w : stream_walkers)
            markDesynced(*w, stats.path_entries);
        current = nullptr;
        ++stats.resyncs;
        const uint64_t from = reader.position();
        const bool found = scanToPsb(reader);
        stats.bits_skipped += reader.position() - from;
        return found;
    };

    for (;;) {
        PtPacket p;
        if (!tryReadPtPacket(reader, p)) {
            // Out of bits without a clean end packet: the stream was
            // clipped (buffer wrap / salvaged segment); everything it
            // was still proving ends here.
            for (Walker *w : stream_walkers)
                markDesynced(*w, stats.path_entries);
            ++stats.truncated_streams;
            break;
        }
        ++stats.packets;
        if (p.kind == PtPacketKind::kEnd)
            break;

        switch (p.kind) {
          case PtPacketKind::kPsb: {
            ++stats.psb_packets;
            if (p.target != kPsbMagic && !resync())
                return;
            break;
          }
          case PtPacketKind::kContext: {
            auto [it, inserted] = walkers.try_emplace(p.tid);
            Walker &w = it->second;
            if (inserted) {
                auto entry = entries.find(p.tid);
                uint32_t start_ip;
                if (entry != entries.end()) {
                    start_ip = entry->second;
                } else if (p.ip < program.size()) {
                    // Thread metadata lost with its trace segment; the
                    // context packet's resume ip is the fallback
                    // anchor.
                    start_ip = p.ip;
                } else {
                    walkers.erase(it);
                    ++stats.dropped_packets;
                    current = nullptr;
                    break;
                }
                w.ip = start_ip;
                w.path.tid = p.tid;
                advance(w, program, filter, stats.path_entries);
            } else if (w.desynced) {
                // Re-anchor after a gap at the packet's resume ip, the
                // same recovery replay applies at syscall boundaries.
                if (p.ip >= program.size() ||
                    w.need == Walker::Need::kDone) {
                    ++stats.dropped_packets;
                    current = nullptr;
                    break;
                }
                w.ip = p.ip;
                w.need = Walker::Need::kAdvance;
                w.proven = w.path.insns.size();
                w.desynced = false;
                advance(w, program, filter, stats.path_entries);
            }
            w.path.anchors.push_back({w.proven, p.tsc});
            stream_tsc = p.tsc;
            current = &w;
            if (std::find(stream_walkers.begin(), stream_walkers.end(),
                          &w) == stream_walkers.end()) {
                stream_walkers.push_back(&w);
            }
            break;
          }
          case PtPacketKind::kTsc: {
            stream_tsc = p.tsc_is_delta ? stream_tsc + p.tsc : p.tsc;
            if (current) {
                current->path.anchors.push_back(
                    {current->proven, stream_tsc});
            }
            break;
          }
          case PtPacketKind::kTnt: {
            if (!current) {
                ++stats.dropped_packets;
                break;
            }
            Walker &w = *current;
            if (w.need != Walker::Need::kTnt) {
                if (!resync())
                    return;
                break;
            }
            const Insn &insn = program.insnAt(w.ip);
            w.ip = p.taken ? insn.target : w.ip + 1;
            w.need = Walker::Need::kAdvance;
            w.proven = w.path.insns.size(); // the branch retired
            advance(w, program, filter, stats.path_entries);
            break;
          }
          case PtPacketKind::kTip: {
            if (!current) {
                ++stats.dropped_packets;
                break;
            }
            Walker &w = *current;
            if (w.need != Walker::Need::kTip ||
                p.target >= program.size()) {
                if (!resync())
                    return;
                break;
            }
            w.ip = p.target;
            w.need = Walker::Need::kAdvance;
            w.proven = w.path.insns.size();
            advance(w, program, filter, stats.path_entries);
            break;
          }
          case PtPacketKind::kPge: {
            if (!current) {
                ++stats.dropped_packets;
                break;
            }
            Walker &w = *current;
            if (w.need != Walker::Need::kPge ||
                p.target >= program.size()) {
                if (!resync())
                    return;
                break;
            }
            w.ip = p.target;
            w.need = Walker::Need::kAdvance;
            w.proven = w.path.insns.size();
            advance(w, program, filter, stats.path_entries);
            break;
          }
          case PtPacketKind::kEnd:
            break;
        }
    }
}

std::map<uint32_t, uint32_t>
entryMap(const trace::RunTrace &run)
{
    std::map<uint32_t, uint32_t> entries;
    for (const trace::ThreadMeta &t : run.meta.threads)
        entries[t.tid] = t.entry_index;
    return entries;
}

} // namespace

std::map<uint32_t, ThreadPath>
decodePt(const asmkit::Program &program, const PtFilter &filter,
         const trace::RunTrace &run, PtDecodeStats *stats)
{
    std::vector<std::map<uint32_t, ThreadPath>> shards(run.pt.size());
    PtDecodeStats local_stats;
    for (size_t core = 0; core < run.pt.size(); ++core) {
        PtDecodeStats shard_stats;
        shards[core] = decodePtStream(program, filter, run, core,
                                      &shard_stats);
        local_stats.merge(shard_stats);
    }
    std::map<uint32_t, ThreadPath> paths =
        mergePtShards(std::move(shards), &local_stats);
    if (stats)
        *stats = local_stats;
    return paths;
}

std::map<uint32_t, ThreadPath>
decodePtStream(const asmkit::Program &program, const PtFilter &filter,
               const trace::RunTrace &run, size_t core,
               PtDecodeStats *stats)
{
    PRORACE_ASSERT(core < run.pt.size(), "PT stream index out of range");
    const std::map<uint32_t, uint32_t> entries = entryMap(run);
    std::map<uint32_t, Walker> walkers;
    PtDecodeStats local_stats;
    decodeStreamInto(program, filter, run.pt[core], entries, walkers,
                     local_stats);

    std::map<uint32_t, ThreadPath> paths;
    for (auto &[tid, w] : walkers)
        paths.emplace(tid, std::move(w.path));

    if (stats)
        *stats = local_stats;
    return paths;
}

std::map<uint32_t, ThreadPath>
mergePtShards(std::vector<std::map<uint32_t, ThreadPath>> shards,
              PtDecodeStats *stats)
{
    std::map<uint32_t, ThreadPath> paths;
    std::vector<uint32_t> split;
    for (std::map<uint32_t, ThreadPath> &shard : shards) {
        for (auto &[tid, path] : shard) {
            if (!paths.emplace(tid, std::move(path)).second)
                split.push_back(tid);
        }
    }
    // A tid seen in n streams lands here n - 1 times.
    std::sort(split.begin(), split.end());
    split.erase(std::unique(split.begin(), split.end()), split.end());
    for (const uint32_t tid : split)
        paths.erase(tid);
    if (stats)
        stats->split_threads += split.size();
    return paths;
}

} // namespace prorace::pmu
