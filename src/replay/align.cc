#include "replay/align.hh"

#include <algorithm>

#include "analysis/analysis.hh"
#include "support/log.hh"

namespace prorace::replay {

using isa::Op;
using pmu::kPathGap;
using pmu::PathAnchor;
using vm::SyncKind;

uint64_t
ThreadAlignment::tscAt(uint64_t position) const
{
    if (anchors.empty())
        return 0;
    // First anchor at or after the position.
    auto it = std::lower_bound(anchors.begin(), anchors.end(), position,
                               [](const PathAnchor &a, uint64_t pos) {
                                   return a.position < pos;
                               });
    if (it == anchors.begin())
        return it->tsc;
    if (it == anchors.end())
        return anchors.back().tsc;
    const PathAnchor &hi = *it;
    const PathAnchor &lo = *(it - 1);
    if (hi.position == lo.position)
        return lo.tsc;
    const double frac =
        static_cast<double>(position - lo.position) /
        static_cast<double>(hi.position - lo.position);
    uint64_t t = lo.tsc +
        static_cast<uint64_t>(frac * static_cast<double>(hi.tsc - lo.tsc));
    // Keep strictly inside the bracket where possible, so interpolated
    // events never tie with (exactly-timestamped) anchor events.
    if (t == lo.tsc && position > lo.position && hi.tsc > lo.tsc)
        ++t;
    if (t == hi.tsc && position < hi.position && t > lo.tsc + 1)
        --t;
    return t;
}

namespace {

/** How many sync records one retired sync instruction produces. */
int
recordsForSyncOp(Op op)
{
    switch (op) {
      case Op::kCondWait: // CondWaitBegin + CondWake
      case Op::kBarrier:  // BarrierEnter + BarrierExit
        return 2;
      default:
        return 1;
    }
}

/** Sort anchors by position and force TSC monotonicity. */
void
canonicalizeAnchors(std::vector<PathAnchor> &anchors)
{
    std::stable_sort(anchors.begin(), anchors.end(),
                     [](const PathAnchor &a, const PathAnchor &b) {
                         return a.position < b.position;
                     });
    uint64_t cummax = 0;
    for (PathAnchor &a : anchors) {
        cummax = std::max(cummax, a.tsc);
        a.tsc = cummax;
    }
}

} // namespace

std::map<uint32_t, ThreadAlignment>
alignTrace(const asmkit::Program &program,
           const std::map<uint32_t, pmu::ThreadPath> &paths,
           const trace::RunTrace &run, AlignStats *stats,
           const analysis::ProgramAnalysis *analysis)
{
    std::map<uint32_t, ThreadAlignment> out;

    // Group sync and PEBS records per thread, preserving order.
    std::map<uint32_t, std::vector<size_t>> sync_by_tid;
    for (size_t i = 0; i < run.sync.size(); ++i)
        sync_by_tid[run.sync[i].tid].push_back(i);
    std::map<uint32_t, std::vector<size_t>> pebs_by_tid;
    for (size_t i = 0; i < run.pebs.size(); ++i)
        pebs_by_tid[run.pebs[i].tid].push_back(i);
    for (auto &[tid, indices] : pebs_by_tid) {
        std::stable_sort(indices.begin(), indices.end(),
                         [&](size_t a, size_t b) {
                             return run.pebs[a].tsc < run.pebs[b].tsc;
                         });
    }

    for (const auto &[tid, path] : paths) {
        ThreadAlignment align;
        align.tid = tid;

        // --- match sync records to sync instructions on the path ---
        const auto &sync_ids = sync_by_tid[tid];
        size_t cursor = 0;
        // Leading ThreadStart record anchors the path start.
        if (cursor < sync_ids.size() &&
            run.sync[sync_ids[cursor]].kind == SyncKind::kThreadStart) {
            align.anchors.push_back({0, run.sync[sync_ids[cursor]].tsc});
            align.syncs.push_back({sync_ids[cursor], 0});
            ++cursor;
        }
        for (uint64_t pos = 0; pos < path.insns.size(); ++pos) {
            const uint32_t index = path.insns[pos];
            if (index == kPathGap)
                continue;
            const isa::Insn &insn = program.insnAt(index);
            int expect = 0;
            if (isa::isSyncOp(insn.op))
                expect = recordsForSyncOp(insn.op);
            else if (insn.op == Op::kHalt)
                expect = 1; // ThreadExit
            for (int k = 0; k < expect && cursor < sync_ids.size(); ++k) {
                const trace::SyncRecord &rec = run.sync[sync_ids[cursor]];
                if (rec.insn_index != index) {
                    warn("sync record desync for tid ", tid, ": record at #",
                         rec.insn_index, " vs path #", index);
                    break;
                }
                align.syncs.push_back({sync_ids[cursor], pos});
                align.anchors.push_back({pos, rec.tsc});
                ++cursor;
            }
        }
        canonicalizeAnchors(align.anchors);

        // PT timing anchors are conservative bounds (the decoder proves
        // retirement only up to the last applied packet), so they are
        // admitted only where they fit monotonically between the exact
        // synchronization anchors.
        {
            std::vector<PathAnchor> accepted_pt;
            for (const PathAnchor &pa : path.anchors) {
                auto next = std::lower_bound(
                    align.anchors.begin(), align.anchors.end(),
                    pa.position,
                    [](const PathAnchor &a, uint64_t pos) {
                        return a.position < pos;
                    });
                const bool ok_next =
                    next == align.anchors.end() || pa.tsc <= next->tsc;
                const bool ok_prev = next == align.anchors.begin() ||
                    (next - 1)->tsc <= pa.tsc;
                if (ok_prev && ok_next)
                    accepted_pt.push_back(pa);
            }
            align.anchors.insert(align.anchors.end(),
                                 accepted_pt.begin(), accepted_pt.end());
            canonicalizeAnchors(align.anchors);
        }

        // --- match PEBS samples to path positions ---
        const auto &sample_ids = pebs_by_tid[tid];
        std::vector<PathAnchor> sample_anchors;

        // Prefix counts of PEBS-countable memory events along the path:
        // two samples taken back-to-back on one core are exactly one
        // period of memory events apart, a powerful disambiguator when
        // the core ran a single thread in between.
        std::vector<uint64_t> memop_prefix(path.insns.size() + 1, 0);
        std::vector<uint32_t> gap_prefix(path.insns.size() + 1, 0);
        for (uint64_t i = 0; i < path.insns.size(); ++i) {
            const uint32_t pi = path.insns[i];
            memop_prefix[i + 1] = memop_prefix[i] +
                (pi == kPathGap ? 0
                 : analysis    ? analysis->facts(pi).mem_ops
                               : analysis::memOpCount(program.insnAt(pi)));
            gap_prefix[i + 1] = gap_prefix[i] + (pi == kPathGap ? 1 : 0);
        }
        const uint64_t period = run.meta.pebs_period;
        constexpr uint64_t kDistanceSlack = 2;

        // True when no other thread's sample landed on this core between
        // the two records (the counter then counted only this thread).
        auto exclusive_on_core = [&](const trace::PebsRecord &a,
                                     const trace::PebsRecord &b) {
            if (a.core != b.core)
                return false;
            for (const trace::PebsRecord &other : run.pebs) {
                if (other.core == a.core && other.tid != tid &&
                    other.tsc > a.tsc && other.tsc < b.tsc) {
                    return false;
                }
            }
            return true;
        };

        // Candidate positions for sample @p si given the previous match,
        // ordered by timing plausibility.
        auto candidates_for = [&](size_t si, int64_t prev_si,
                                  uint64_t prev_pos, uint64_t min_pos) {
            const trace::PebsRecord &rec = run.pebs[sample_ids[si]];
            const trace::PebsRecord *prev_rec =
                prev_si >= 0 ? &run.pebs[sample_ids[prev_si]] : nullptr;

            // Timing bracket from the anchors (with one-anchor slack for
            // the decoder's walk-ahead imprecision).
            uint64_t lo = min_pos, hi = path.insns.size();
            const auto &as = align.anchors;
            auto it = std::lower_bound(as.begin(), as.end(), rec.tsc,
                                       [](const PathAnchor &a, uint64_t t) {
                                           return a.tsc < t;
                                       });
            if (it != as.end()) {
                auto next = it + 1;
                hi = std::min<uint64_t>(
                    (next != as.end() ? next->position : hi) + 1,
                    path.insns.size());
            }
            if (it != as.begin()) {
                auto prev = it - 1;
                if (prev != as.begin())
                    --prev;
                lo = std::max<uint64_t>(lo, prev->position);
            }

            bool use_distance =
                prev_rec && period >= 1 && exclusive_on_core(*prev_rec, rec);

            // First sample in the chain: the driver logged the initial
            // counter value, so when this thread had its core to itself
            // the absolute event count pins the position.
            uint64_t first_window = 0;
            bool use_first = false;
            if (!prev_rec && period >= 1 &&
                rec.core < run.meta.first_periods.size() &&
                run.meta.first_periods[rec.core] >= 1) {
                use_first = true;
                first_window = run.meta.first_periods[rec.core];
                for (const trace::PebsRecord &other : run.pebs) {
                    if (other.core == rec.core && other.tid != tid &&
                        other.tsc < rec.tsc) {
                        use_first = false;
                        break;
                    }
                }
            }

            uint16_t written = 0;
            uint64_t mask_pos = prev_pos;
            std::vector<std::pair<uint64_t, uint64_t>> found; // (diff, pos)
            for (uint64_t pos = lo; pos < hi; ++pos) {
                if (prev_rec && mask_pos <= pos) {
                    while (mask_pos < pos) {
                        const uint32_t pi = path.insns[mask_pos];
                        written |= (pi == kPathGap)
                            ? analysis::kGapWriteMask
                            : analysis ? analysis->facts(pi).kill
                                       : analysis::regWriteMask(
                                             program.insnAt(pi));
                        ++mask_pos;
                    }
                }
                if (path.insns[pos] != rec.insn_index)
                    continue;
                // Untraced (gap) code also retires memory events the
                // counter saw but the path cannot show; the distance
                // filter only applies to gap-free spans.
                const bool gap_free = use_distance
                    ? gap_prefix[pos + 1] == gap_prefix[prev_pos + 1]
                    : gap_prefix[pos + 1] == 0;
                if ((use_distance || use_first) && gap_free) {
                    // Memory events since the reference point must land
                    // on a counter-overflow boundary (dropped samples
                    // skip whole periods).
                    uint64_t d, want;
                    if (use_distance) {
                        d = memop_prefix[pos + 1] -
                            memop_prefix[prev_pos + 1];
                        want = period;
                    } else {
                        d = memop_prefix[pos + 1];
                        want = first_window;
                    }
                    if (d + kDistanceSlack < want) {
                        if (stats)
                            ++stats->candidates_rejected;
                        continue;
                    }
                    const uint64_t rem = (d - want) % period;
                    if (rem > kDistanceSlack &&
                        period - rem > kDistanceSlack) {
                        if (stats)
                            ++stats->candidates_rejected;
                        continue;
                    }
                }
                if (prev_rec) {
                    bool consistent = true;
                    for (unsigned r = 0; r < isa::kNumGprs; ++r) {
                        if ((written >> r) & 1u)
                            continue;
                        if (prev_rec->regs.gpr[r] != rec.regs.gpr[r]) {
                            consistent = false;
                            break;
                        }
                    }
                    if (!consistent) {
                        if (stats)
                            ++stats->candidates_rejected;
                        continue;
                    }
                }
                const uint64_t est = align.tscAt(pos);
                const uint64_t diff =
                    est > rec.tsc ? est - rec.tsc : rec.tsc - est;
                found.emplace_back(diff, pos);
            }
            std::sort(found.begin(), found.end());
            return found;
        };

        uint64_t prev_match_end = 0; ///< one past the previous match
        int64_t prev_sample = -1;    ///< index into sample_ids
        uint64_t prev_pos = 0;
        for (size_t si = 0; si < sample_ids.size(); ++si) {
            auto cands =
                candidates_for(si, prev_sample, prev_pos, prev_match_end);
            if (cands.empty()) {
                if (stats)
                    ++stats->samples_unmatched;
                continue;
            }

            uint64_t chosen = cands.front().second;
            if (prev_sample < 0 && si + 1 < sample_ids.size() &&
                cands.size() > 1) {
                // First sample of the chain: prefer the candidate that
                // leaves the next sample a counter-consistent landing
                // spot (one-step lookahead).
                for (const auto &[diff, pos] : cands) {
                    if (!candidates_for(si + 1, static_cast<int64_t>(si),
                                        pos, pos + 1)
                             .empty()) {
                        chosen = pos;
                        break;
                    }
                }
            }

            align.samples.push_back({sample_ids[si], chosen});
            sample_anchors.push_back({chosen, run.pebs[sample_ids[si]].tsc});
            prev_match_end = chosen + 1;
            prev_sample = static_cast<int64_t>(si);
            prev_pos = chosen;
            if (stats)
                ++stats->samples_matched;
        }

        // Matched samples are exact timing anchors — but a *misplaced*
        // match would poison interpolation for every later position, so
        // accept a sample anchor only if it fits monotonically into the
        // trusted (sync + PT) timeline.
        std::vector<PathAnchor> accepted;
        for (const PathAnchor &sa : sample_anchors) {
            auto next = std::lower_bound(
                align.anchors.begin(), align.anchors.end(), sa.position,
                [](const PathAnchor &a, uint64_t pos) {
                    return a.position < pos;
                });
            const bool ok_next =
                next == align.anchors.end() || sa.tsc <= next->tsc;
            const bool ok_prev = next == align.anchors.begin() ||
                (next - 1)->tsc <= sa.tsc;
            if (ok_prev && ok_next)
                accepted.push_back(sa);
        }
        align.anchors.insert(align.anchors.end(), accepted.begin(),
                             accepted.end());
        canonicalizeAnchors(align.anchors);

        out.emplace(tid, std::move(align));
    }
    return out;
}

} // namespace prorace::replay
