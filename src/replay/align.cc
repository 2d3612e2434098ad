#include "replay/align.hh"

#include <algorithm>
#include <cstddef>

#include "analysis/analysis.hh"
#include "support/log.hh"

namespace prorace::replay {

using pmu::kPathGap;
using pmu::PathAnchor;
using vm::SyncKind;

namespace {

/**
 * The TSC interpolated at @p position, where @p i is the index of the
 * first of the non-empty @p anchors at or after it.
 */
uint64_t
interpolateTsc(const std::vector<PathAnchor> &anchors, size_t i,
               uint64_t position)
{
    if (i == 0)
        return anchors.front().tsc;
    if (i == anchors.size())
        return anchors.back().tsc;
    const PathAnchor &hi = anchors[i];
    const PathAnchor &lo = anchors[i - 1];
    if (hi.position == lo.position || hi.tsc <= lo.tsc)
        return lo.tsc;
    const double frac =
        static_cast<double>(position - lo.position) /
        static_cast<double>(hi.position - lo.position);
    // The double product is exact in range while the bracket's TSC span
    // is below 2^53; past that it can round beyond the span (or past
    // 2^64), so clamp it before the cast and the add.
    const uint64_t span = hi.tsc - lo.tsc;
    const double offset = frac * static_cast<double>(span);
    uint64_t t = lo.tsc +
        (offset < static_cast<double>(span) ? static_cast<uint64_t>(offset)
                                            : span);
    // Keep strictly inside the bracket where possible, so interpolated
    // events never tie with (exactly-timestamped) anchor events.
    if (t == lo.tsc && position > lo.position)
        ++t;
    if (t == hi.tsc && position < hi.position && t > lo.tsc + 1)
        --t;
    return t;
}

} // namespace

uint64_t
ThreadAlignment::tscAt(uint64_t position) const
{
    size_t cursor = SIZE_MAX;
    return tscAt(position, cursor);
}

uint64_t
ThreadAlignment::tscAt(uint64_t position, size_t &cursor) const
{
    if (anchors.empty())
        return 0;
    if (cursor > anchors.size()) {
        // First anchor at or after the position.
        auto it = std::lower_bound(anchors.begin(), anchors.end(), position,
                                   [](const PathAnchor &a, uint64_t pos) {
                                       return a.position < pos;
                                   });
        cursor = static_cast<size_t>(it - anchors.begin());
    }
    while (cursor < anchors.size() && anchors[cursor].position < position)
        ++cursor;
    return interpolateTsc(anchors, cursor, position);
}

namespace {

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

/**
 * Add the @p extra anchors that fit monotonically into the trusted
 * timeline @p anchors (each checked against it as it was on entry),
 * then re-canonicalize.
 */
void
admitAnchors(std::vector<PathAnchor> &anchors,
             const std::vector<PathAnchor> &extra)
{
    std::vector<PathAnchor> accepted;
    for (const PathAnchor &x : extra) {
        auto next = std::lower_bound(anchors.begin(), anchors.end(),
                                     x.position,
                                     [](const PathAnchor &a, uint64_t pos) {
                                         return a.position < pos;
                                     });
        const bool ok_next = next == anchors.end() || x.tsc <= next->tsc;
        const bool ok_prev =
            next == anchors.begin() || (next - 1)->tsc <= x.tsc;
        if (ok_prev && ok_next)
            accepted.push_back(x);
    }
    anchors.insert(anchors.end(), accepted.begin(), accepted.end());
    canonicalizeAnchors(anchors);
}

/** Which survivors of a candidate scan the caller needs. */
enum class Want {
    kBest, ///< the (diff, pos) minimum only
    kAll,  ///< every survivor, ascending by (diff, pos)
    kAny,  ///< whether one exists: the scan stops at the first
};

/**
 * What the path retired after a reference position `from`: the
 * registers written over [from, end), and the memory events and gaps
 * over (from, end] — exactly what a candidate at `end` is checked
 * against.
 */
struct Walk {
    uint64_t from = 0;
    uint64_t end = 0;
    uint16_t written = 0;
    uint64_t mem_ops = 0;
    uint64_t gaps = 0;
};

/**
 * The PEBS side of one thread's alignment: places each sample on the
 * path by its timing bracket, the memory-event distance from the
 * previous match (or from the thread's start) and register consistency.
 */
class SampleMatcher
{
  public:
    SampleMatcher(const asmkit::Program &program, uint32_t tid,
                  const pmu::ThreadPath &path, const trace::RunTrace &run,
                  const AlignIndex &index, const ThreadAlignment &align,
                  AlignStats *stats,
                  const analysis::ProgramAnalysis *analysis)
        : program_(program), tid_(tid), path_(path), run_(run),
          index_(index), align_(align), stats_(stats), analysis_(analysis),
          sample_ids_(index.pebsRecords(tid))
    {
        // tscAt() never decreases along the path over canonical anchors
        // as long as double arithmetic is exact on TSC distances, which
        // holds below 2^53. The bounded scan leans on it.
        const auto &as = align.anchors;
        monotone_ =
            as.empty() || as.back().tsc - as.front().tsc < (1ull << 53);
    }

    size_t numSamples() const { return sample_ids_.size(); }
    size_t recordIndex(size_t si) const { return sample_ids_[si]; }

    /**
     * Candidate positions for sample @p si given the previous match
     * (@p prev_si < 0: none), at or after @p min_pos, into @p found as
     * (|tscAt - tsc|, position) pairs; @p want says which of them.
     *
     * Over the bracket, tscAt rises with position, so the timing
     * distance falls and then rises. For kBest the scan stops at the
     * first survivor at or past the sample's TSC, or at any candidate
     * past it by at least the best distance so far: no later position
     * can win, and ties keep the lower position, as a sort of all
     * (diff, pos) pairs would.
     */
    void
    candidates(size_t si, int64_t prev_si, uint64_t prev_pos,
               uint64_t min_pos, Want want,
               std::vector<std::pair<uint64_t, uint64_t>> &found)
    {
        found.clear();
        const trace::PebsRecord &rec = run_.pebs[sample_ids_[si]];
        // The VM samples only instructions that retire a memory event.
        // A record naming any other (or no instruction, or a gap) is
        // hostile: placed, it would open a replay window on a forged
        // register file. Unmatched, replay drops it.
        if (rec.insn_index >= program_.size() ||
            memOps(rec.insn_index) == 0) {
            return;
        }
        const trace::PebsRecord *prev_rec =
            prev_si >= 0 ? &run_.pebs[sample_ids_[prev_si]] : nullptr;
        const std::vector<uint32_t> &insns = path_.insns;

        // Timing bracket from the anchors (with one-anchor slack for
        // the decoder's walk-ahead imprecision).
        uint64_t lo = min_pos, hi = insns.size();
        const auto &as = align_.anchors;
        auto it = std::lower_bound(as.begin(), as.end(), rec.tsc,
                                   [](const PathAnchor &a, uint64_t t) {
                                       return a.tsc < t;
                                   });
        if (it != as.end()) {
            auto next = it + 1;
            hi = std::min<uint64_t>(
                (next != as.end() ? next->position : hi) + 1, insns.size());
        }
        if (it != as.begin()) {
            auto prev = it - 1;
            if (prev != as.begin())
                --prev;
            lo = std::max<uint64_t>(lo, prev->position);
        }
        if (lo >= hi)
            return;

        // Two samples taken back-to-back on one core are exactly one
        // period of memory events apart, a powerful disambiguator when
        // the core ran this thread alone in between (no other thread's
        // sample landed on it).
        const uint64_t period = run_.meta.pebs_period;
        const bool use_distance = prev_rec && period >= 1 &&
            prev_rec->core == rec.core &&
            !index_.foreignBetween(rec.core, tid_, prev_rec->tsc, rec.tsc);

        // First sample in the chain: the driver logged the initial
        // counter value, so when this thread had its core to itself
        // the absolute event count pins the position.
        const auto &first_periods = run_.meta.first_periods;
        const bool use_first = !prev_rec && period >= 1 &&
            rec.core < first_periods.size() &&
            first_periods[rec.core] >= 1 &&
            !index_.foreignBefore(rec.core, tid_, rec.tsc);

        // The walk from the reference point (the previous match, or the
        // path start for first-period anchoring) to the bracket, resumed
        // from where the last scan from the same point entered its
        // bracket: successive samples' brackets only move forward.
        const bool walking = prev_rec || use_first;
        Walk w;
        if (walking) {
            Walk &cached = prev_rec ? from_match_ : from_start_;
            if (cached.end > lo || (prev_rec && cached.from != prev_pos))
                cached = prev_rec ? Walk{prev_pos, prev_pos} : startWalk();
            advance(cached, lo);
            w = cached;
        }

        bool have_best = false;
        std::pair<uint64_t, uint64_t> best;
        size_t anchor = SIZE_MAX; // tscAt's cursor: pos only rises
        for (uint64_t pos = lo; pos < hi; ++pos) {
            if (walking)
                advance(w, pos);
            if (insns[pos] != rec.insn_index)
                continue;
            if (stats_)
                ++stats_->candidates_examined;
            const uint64_t est = align_.tscAt(pos, anchor);
            const bool late = monotone_ && est >= rec.tsc;
            if (want == Want::kBest && have_best && late &&
                est - rec.tsc >= best.first) {
                break;
            }
            // Untraced (gap) code also retires memory events the
            // counter saw but the path cannot show; the distance filter
            // only applies to gap-free spans. Memory events since the
            // reference point must land on a counter-overflow boundary
            // (dropped samples skip whole periods).
            if ((use_distance || use_first) && w.gaps == 0) {
                const uint64_t d = w.mem_ops;
                const uint64_t want_events =
                    use_distance ? period : first_periods[rec.core];
                if (d + kDistanceSlack < want_events ||
                    !nearBoundary((d - want_events) % period, period)) {
                    if (stats_)
                        ++stats_->candidates_rejected;
                    continue;
                }
            }
            if (prev_rec && !consistent(*prev_rec, rec, w.written)) {
                if (stats_)
                    ++stats_->candidates_rejected;
                continue;
            }
            const uint64_t diff =
                est > rec.tsc ? est - rec.tsc : rec.tsc - est;
            if (want == Want::kAll) {
                found.emplace_back(diff, pos);
                continue;
            }
            if (!have_best || diff < best.first)
                best = {diff, pos};
            have_best = true;
            if (want == Want::kAny || late)
                break;
        }
        if (want == Want::kAll)
            std::sort(found.begin(), found.end());
        else if (have_best)
            found.push_back(best);
    }

  private:
    static constexpr uint64_t kDistanceSlack = 2;

    static bool
    nearBoundary(uint64_t rem, uint64_t period)
    {
        return rem <= kDistanceSlack || period - rem <= kDistanceSlack;
    }

    /** Registers not written in between must hold equal values. */
    static bool
    consistent(const trace::PebsRecord &prev, const trace::PebsRecord &rec,
               uint16_t written)
    {
        for (unsigned r = 0; r < isa::kNumGprs; ++r) {
            if (!((written >> r) & 1u) &&
                prev.regs.gpr[r] != rec.regs.gpr[r]) {
                return false;
            }
        }
        return true;
    }

    /** Memory events instruction @p idx retires. */
    uint32_t
    memOps(uint32_t idx) const
    {
        return analysis_ ? analysis_->facts(idx).mem_ops
                         : analysis::memOpCount(program_.insnAt(idx));
    }

    /** Add path position @p pos's memory events or gap to @p w. */
    void
    count(Walk &w, uint64_t pos) const
    {
        const uint32_t pi = path_.insns[pos];
        if (pi == kPathGap)
            ++w.gaps;
        else
            w.mem_ops += memOps(pi);
    }

    /** The walk from the path start: its counts include position 0. */
    Walk
    startWalk() const
    {
        Walk w;
        count(w, 0);
        return w;
    }

    /** Walk @p w on to @p to (< path size). */
    void
    advance(Walk &w, uint64_t to) const
    {
        while (w.end < to) {
            const uint32_t pi = path_.insns[w.end];
            w.written |= pi == kPathGap ? analysis::kGapWriteMask
                : analysis_ ? analysis_->facts(pi).kill
                            : analysis::regWriteMask(program_.insnAt(pi));
            count(w, ++w.end);
        }
    }

    const asmkit::Program &program_;
    const uint32_t tid_;
    const pmu::ThreadPath &path_;
    const trace::RunTrace &run_;
    const AlignIndex &index_;
    const ThreadAlignment &align_;
    AlignStats *const stats_;
    const analysis::ProgramAnalysis *const analysis_;
    const std::vector<size_t> &sample_ids_;
    bool monotone_ = true;
    /** The walks as they entered the last bracket. from_start_ begins
     *  past every bracket, so its first use builds it. */
    Walk from_match_, from_start_{0, ~uint64_t{0}};
};

} // namespace

AlignIndex::AlignIndex(const trace::RunTrace &run)
{
    // Group sync and PEBS records per thread, preserving order.
    for (size_t i = 0; i < run.sync.size(); ++i)
        sync_by_tid_[run.sync[i].tid].push_back(i);
    for (size_t i = 0; i < run.pebs.size(); ++i)
        pebs_by_tid_[run.pebs[i].tid].push_back(i);
    for (auto &[tid, indices] : pebs_by_tid_) {
        std::stable_sort(indices.begin(), indices.end(),
                         [&](size_t a, size_t b) {
                             return run.pebs[a].tsc < run.pebs[b].tsc;
                         });
    }

    entries_.reserve(run.pebs.size());
    for (const trace::PebsRecord &r : run.pebs)
        entries_.push_back({r.tsc, r.tid, r.core, 0});
    std::sort(entries_.begin(), entries_.end(),
              [](const Entry &a, const Entry &b) {
                  return a.core != b.core ? a.core < b.core : a.tsc < b.tsc;
              });
    for (size_t i = 0; i < entries_.size(); ++i) {
        if (cores_.empty() || cores_.back().core != entries_[i].core)
            cores_.push_back({entries_[i].core, i, i});
        cores_.back().end = i + 1;
    }
    for (const CoreSpan &s : cores_) {
        entries_[s.end - 1].next_other = s.end;
        for (size_t i = s.end - 1; i-- > s.begin;) {
            entries_[i].next_other = entries_[i + 1].tid != entries_[i].tid
                ? i + 1
                : entries_[i + 1].next_other;
        }
    }
}

const std::vector<size_t> &
AlignIndex::syncRecords(uint32_t tid) const
{
    static const std::vector<size_t> kNone;
    auto it = sync_by_tid_.find(tid);
    return it == sync_by_tid_.end() ? kNone : it->second;
}

const std::vector<size_t> &
AlignIndex::pebsRecords(uint32_t tid) const
{
    static const std::vector<size_t> kNone;
    auto it = pebs_by_tid_.find(tid);
    return it == pebs_by_tid_.end() ? kNone : it->second;
}

const AlignIndex::CoreSpan *
AlignIndex::span(uint32_t core) const
{
    auto it = std::lower_bound(cores_.begin(), cores_.end(), core,
                               [](const CoreSpan &s, uint32_t c) {
                                   return s.core < c;
                               });
    return it != cores_.end() && it->core == core ? &*it : nullptr;
}

bool
AlignIndex::foreignFrom(const CoreSpan &s, size_t first, uint32_t tid,
                        uint64_t before) const
{
    // Entries are ascending by TSC: the first entry of another tid at or
    // after `first` is the only one that needs checking against `before`.
    if (first == s.end)
        return false;
    const size_t other =
        entries_[first].tid != tid ? first : entries_[first].next_other;
    return other < s.end && entries_[other].tsc < before;
}

bool
AlignIndex::foreignBetween(uint32_t core, uint32_t tid, uint64_t after,
                           uint64_t before) const
{
    const CoreSpan *s = span(core);
    if (!s)
        return false;
    const auto first = std::upper_bound(
        entries_.begin() + static_cast<std::ptrdiff_t>(s->begin),
        entries_.begin() + static_cast<std::ptrdiff_t>(s->end), after,
        [](uint64_t t, const Entry &e) { return t < e.tsc; });
    return foreignFrom(*s, static_cast<size_t>(first - entries_.begin()), tid,
                       before);
}

bool
AlignIndex::foreignBefore(uint32_t core, uint32_t tid, uint64_t before) const
{
    const CoreSpan *s = span(core);
    return s && foreignFrom(*s, s->begin, tid, before);
}

ThreadAlignment
alignThread(const asmkit::Program &program, uint32_t tid,
            const pmu::ThreadPath &path, const trace::RunTrace &run,
            const AlignIndex &index, AlignStats *stats,
            const analysis::ProgramAnalysis *analysis)
{
    ThreadAlignment align;
    align.tid = tid;

    // --- match sync records to sync instructions on the path ---
    const std::vector<size_t> &sync_ids = index.syncRecords(tid);
    size_t cursor = 0;
    // Leading ThreadStart record anchors the path start.
    if (cursor < sync_ids.size() &&
        run.sync[sync_ids[cursor]].kind == SyncKind::kThreadStart) {
        align.anchors.push_back({0, run.sync[sync_ids[cursor]].tsc});
        align.syncs.push_back({sync_ids[cursor], 0});
        ++cursor;
    }
    for (uint64_t pos = 0; pos < path.insns.size(); ++pos) {
        const uint32_t insn_index = path.insns[pos];
        if (insn_index == kPathGap)
            continue;
        const unsigned expect = analysis
            ? analysis->syncRecords(insn_index)
            : analysis::syncRecordCount(program.insnAt(insn_index));
        for (unsigned k = 0; k < expect && cursor < sync_ids.size(); ++k) {
            const trace::SyncRecord &rec = run.sync[sync_ids[cursor]];
            if (rec.insn_index != insn_index) {
                warn("sync record desync for tid ", tid, ": record at #",
                     rec.insn_index, " vs path #", insn_index);
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
    admitAnchors(align.anchors, path.anchors);

    // --- match PEBS samples to path positions ---
    SampleMatcher matcher(program, tid, path, run, index, align, stats,
                          analysis);
    std::vector<PathAnchor> sample_anchors;
    std::vector<std::pair<uint64_t, uint64_t>> cands, probe;
    const size_t n = matcher.numSamples();
    uint64_t prev_match_end = 0; ///< one past the previous match
    int64_t prev_sample = -1;    ///< index into the thread's samples
    uint64_t prev_pos = 0;
    for (size_t si = 0; si < n; ++si) {
        // First sample of the chain: prefer the candidate that leaves
        // the next sample a counter-consistent landing spot (one-step
        // lookahead), so it needs every candidate, in order.
        const bool lookahead = prev_sample < 0 && si + 1 < n;
        matcher.candidates(si, prev_sample, prev_pos, prev_match_end,
                           lookahead ? Want::kAll : Want::kBest, cands);
        if (cands.empty()) {
            if (stats)
                ++stats->samples_unmatched;
            continue;
        }

        uint64_t chosen = cands.front().second;
        if (lookahead && cands.size() > 1) {
            for (const auto &[diff, pos] : cands) {
                matcher.candidates(si + 1, static_cast<int64_t>(si), pos,
                                   pos + 1, Want::kAny, probe);
                if (!probe.empty()) {
                    chosen = pos;
                    break;
                }
            }
        }

        const size_t record = matcher.recordIndex(si);
        align.samples.push_back({record, chosen});
        sample_anchors.push_back({chosen, run.pebs[record].tsc});
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
    admitAnchors(align.anchors, sample_anchors);
    return align;
}

std::map<uint32_t, ThreadAlignment>
alignTrace(const asmkit::Program &program,
           const std::map<uint32_t, pmu::ThreadPath> &paths,
           const trace::RunTrace &run, AlignStats *stats,
           const analysis::ProgramAnalysis *analysis)
{
    const AlignIndex index(run);
    std::map<uint32_t, ThreadAlignment> out;
    for (const auto &[tid, path] : paths) {
        out.emplace(tid, alignThread(program, tid, path, run, index, stats,
                                     analysis));
    }
    return out;
}

} // namespace prorace::replay
