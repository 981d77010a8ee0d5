#include "genpair/light_align.hh"

#include <algorithm>

#include "util/simd.hh"

namespace gpx {
namespace genpair {

using genomics::Cigar;
using genomics::CigarOp;
using genomics::DnaView;

Cigar
LightResult::cigar() const
{
    // At most three runs, none of them merging (a gap is never empty),
    // so one reserved vector holds the whole CIGAR.
    std::vector<genomics::CigarElem> elems;
    if (!aligned)
        return Cigar(std::move(elems));
    elems.reserve(3);
    auto run = [&](CigarOp op, u32 len) {
        if (len > 0)
            elems.push_back({ op, len });
    };
    switch (edit.kind) {
    case LightEdit::Kind::Mismatches:
        run(CigarOp::Match, readLen);
        break;
    case LightEdit::Kind::Deletion:
        run(CigarOp::Match, edit.split);
        run(CigarOp::Deletion, edit.gap);
        run(CigarOp::Match, readLen - edit.split);
        break;
    case LightEdit::Kind::Insertion:
        run(CigarOp::Match, edit.split);
        run(CigarOp::Insertion, edit.gap);
        run(CigarOp::Match, readLen - edit.gap - edit.split);
        break;
    }
    return Cigar(std::move(elems));
}

LightResult
LightAligner::evaluateHypotheses(u32 read_len, u32 center,
                                 const u32 *popcount, const u32 *prefix,
                                 const u32 *suffix, u32 stride) const
{
    const u32 n = read_len;
    const i32 e = static_cast<i32>(params_.maxShift);
    const i32 minScore = params_.minScoreFor(n);
    const genomics::ScoringScheme &scoring = params_.scoring;
    auto stat = [e, stride](const u32 *array, i32 s) {
        return array[static_cast<std::size_t>(s + e) * stride];
    };

    // Every shift as class 1, every ordered pair of distinct shifts as
    // class 2: (2e+1) + (2e+1)(2e) hypotheses.
    LightResult best;
    best.readLen = n;
    best.hypothesesTried = static_cast<u32>((2 * e + 1) * (2 * e + 1));
    // A later hypothesis replaces the winner only with a strictly
    // higher score, so the first best-scoring one in visit order wins.
    auto keep = [&](i32 score, i32 shift, LightEdit edit) {
        if (best.aligned && score <= best.score)
            return;
        best.aligned = true;
        best.score = score;
        best.pos = static_cast<GlobalPos>(static_cast<i64>(center) + shift);
        best.edit = edit;
    };

    // Hypothesis class 1: scattered mismatches only, at each shift.
    for (i32 s = -e; s <= e; ++s) {
        const u32 mm = n - stat(popcount, s);
        if (mm > params_.maxMismatches)
            continue;
        const i32 score = scoring.scoreFromCounts(n - mm, mm);
        if (score >= minScore)
            keep(score, s, {});
    }

    // Hypothesis class 2: one run of k consecutive insertions/deletions.
    // A (s1 -> prefix mask, s2 -> suffix mask) pair with s2 > s1 models a
    // deletion of k = s2 - s1 reference bases; s2 < s1 models an
    // insertion. Seeds sit at different read offsets, so the prefix mask
    // is not always shift 0 (candidate positions can be displaced by the
    // gap itself).
    for (i32 s1 = -e; s1 <= e; ++s1) {
        const u32 pre = stat(prefix, s1);
        for (i32 s2 = -e; s2 <= e; ++s2) {
            if (s1 == s2)
                continue;
            const u32 suf = stat(suffix, s2);
            if (s2 > s1) {
                // Deletion of k reference bases after read position p.
                const u32 k = static_cast<u32>(s2 - s1);
                if (pre + suf < n)
                    continue;
                const i32 score = scoring.scoreFromCounts(n, 0, k);
                if (score >= minScore)
                    keep(score, s1,
                         { LightEdit::Kind::Deletion, n - suf, k });
            } else {
                // Insertion of k read bases after read position p.
                const u32 k = static_cast<u32>(s1 - s2);
                if (k >= n || pre + suf < n - k)
                    continue;
                const i32 score = scoring.scoreFromCounts(n - k, 0, k);
                if (score < minScore)
                    continue;
                u32 p = suf <= n - k ? n - k - suf : 0;
                if (p > pre)
                    p = pre; // keep the prefix claim honest
                keep(score, s1, { LightEdit::Kind::Insertion, p, k });
            }
        }
    }

    return best;
}

namespace {

/**
 * Window extent check of one candidate: the window of a read of @p n
 * bases must cover [candidate-e, candidate+n+e) inside one chromosome;
 * otherwise the pair falls back to DP.
 */
inline bool
windowFor(const genomics::Reference &ref, u64 n, GlobalPos candidate,
          u32 e, GlobalPos *wstart, u64 *wlen)
{
    if (candidate < e)
        return false;
    *wstart = candidate - e;
    *wlen = n + 2 * e;
    return ref.windowValid(*wstart, *wlen);
}

} // namespace

LightResult
LightAligner::align(const DnaView &read, GlobalPos candidate) const
{
    const align::BitPlanes planes(read);
    const LightBatchItem item{ &planes, candidate };
    LightBatchScratch scratch;
    LightResult res;
    alignBatch(&item, 1, scratch, &res);
    return res;
}

void
LightAligner::alignBatch(const LightBatchItem *items, std::size_t count,
                         LightBatchScratch &scratch,
                         LightResult *out) const
{
    const u32 e = params_.maxShift;
    const u32 maxLanes = util::simdMaskLanes(util::activeSimdBackend());

    std::size_t i = 0;
    while (i < count) {
        const u32 n = items[i].read->bits();

        // Lane group: consecutive items with this read length.
        std::size_t g = i + 1;
        while (g < count && g - i < maxLanes &&
               items[g].read->bits() == n)
            ++g;

        // Stage the lanes whose window is in bounds; an out-of-window
        // item gets an empty result with zero hypotheses and no lane.
        if (scratch.windows.size() < maxLanes)
            scratch.windows.resize(maxLanes);
        u32 lanes = 0;
        GlobalPos wstarts[16];
        std::size_t laneItem[16];
        u64 wlen = 0;
        for (std::size_t k = i; k < g; ++k) {
            out[k] = {};
            GlobalPos wstart = 0;
            if (!windowFor(ref_, n, items[k].candidate, e, &wstart, &wlen))
                continue;
            wstarts[lanes] = wstart;
            laneItem[lanes] = k;
            ++lanes;
        }
        if (lanes > 0) {
            scratch.shd.begin(lanes, n, e, e);
            for (u32 l = 0; l < lanes; ++l) {
                scratch.windows[l].assign(
                    ref_.windowView(wstarts[l], wlen));
                scratch.shd.setLane(l, *items[laneItem[l]].read,
                                    scratch.windows[l]);
            }
            scratch.shd.run();
            for (u32 l = 0; l < lanes; ++l) {
                LightResult res = evaluateHypotheses(
                    n, e, scratch.shd.popcount.data() + l,
                    scratch.shd.prefix.data() + l,
                    scratch.shd.suffix.data() + l, lanes);
                if (res.aligned)
                    res.pos = wstarts[l] + res.pos;
                out[laneItem[l]] = res;
            }
        }
        i = g;
    }
}

} // namespace genpair
} // namespace gpx
