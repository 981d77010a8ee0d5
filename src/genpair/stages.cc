#include "genpair/stages.hh"

#include <algorithm>
#include <cstdint>
#include <ostream>

#include "genpair/pipeline.hh"
#include "util/logging.hh"

namespace gpx {
namespace genpair {

using genomics::DnaSequence;
using genomics::Mapping;
using genomics::MappingPath;
using genomics::PairMapping;

namespace {

/** Left/right sequences of one orientation (see the lane convention). */
struct OrientRefs
{
    const DnaSequence *left;
    const DnaSequence *right;
    bool read1IsLeft;
};

inline OrientRefs
orientation(const PairBatch &batch, u64 i, u32 o)
{
    if (o == 0)
        return { &batch.pairs[i].first.seq, &batch.rc2[i], true };
    return { &batch.pairs[i].second.seq, &batch.rc1[i], false };
}

inline StageCounters &
counters(const StageContext &ctx, StageId id)
{
    return ctx.stats.stage[static_cast<std::size_t>(id)];
}

/**
 * @p v emptied, then holding @p n value-initialized elements; its
 * capacity carries over, so a warm batch allocates nothing here.
 */
template <typename T>
std::vector<T> &
reuse(std::vector<T> &v, std::size_t n = 0)
{
    v.clear();
    v.resize(n);
    return v;
}

/** Pairs still on the fast path (for the itemsOut accounting). */
inline u64
pendingCount(const PairBatch &batch)
{
    u64 n = 0;
    for (u64 i = 0; i < batch.size; ++i)
        n += batch.route[i] == PairRoute::Pending;
    return n;
}

} // namespace

const char *
stageName(StageId id)
{
    switch (id) {
    case StageId::Seed: return "seed";
    case StageId::Query: return "query";
    case StageId::PaFilter: return "pa_filter";
    case StageId::LightAlign: return "light_align";
    case StageId::Fallback: return "fallback";
    }
    return "?";
}

void
PairTraceRecord::writeText(std::ostream &os) const
{
    os << 'P';
    for (std::size_t s = 0; s < 6; ++s)
        os << ' ' << seedHash[s] << ' ' << locCount[s];
    os << ' ' << static_cast<u32>(route) << ' ' << filterIterations
       << ' ' << lightAligns << '\n';
}

void
PairBatch::bind(const genomics::ReadPair *p, u64 n,
                genomics::PairMapping *o, PairTraceRecord *t)
{
    pairs = p;
    size = n;
    out = o;
    trace = t;
    if (rc1.size() < n) {
        rc1.resize(n);
        rc2.resize(n);
    }
    seeds.resize(4 * n);
    route.assign(n, PairRoute::Pending);
    if (lightLeft.size() < 2 * n) {
        lightLeft.resize(2 * n);
        lightRight.resize(2 * n);
    }
    lightLeftValid.assign(2 * n, 0);
    lightRightValid.assign(2 * n, 0);
}

void
runSeedStage(const StageContext &ctx, PairBatch &batch)
{
    StageCounters &sc = counters(ctx, StageId::Seed);
    ++sc.batches;
    sc.itemsIn += batch.size;
    sc.itemsOut += batch.size;

    for (u64 i = 0; i < batch.size; ++i) {
        ++ctx.stats.pairsTotal;
        const genomics::ReadPair &pair = batch.pairs[i];
        batch.rc1[i].assignRevComp(pair.first.seq);
        batch.rc2[i].assignRevComp(pair.second.seq);
        batch.seeds[4 * i + 0] = ctx.seeder.extract(pair.first.seq);
        batch.seeds[4 * i + 1] = ctx.seeder.extract(batch.rc2[i]);
        batch.seeds[4 * i + 2] = ctx.seeder.extract(pair.second.seq);
        batch.seeds[4 * i + 3] = ctx.seeder.extract(batch.rc1[i]);
    }
}

void
runQueryStage(const StageContext &ctx, PairBatch &batch)
{
    StageCounters &sc = counters(ctx, StageId::Query);
    ++sc.batches;
    sc.itemsIn += batch.size;

    batch.candidates.clear();
    batch.candOffsets.clear();
    batch.candOffsets.reserve(4 * batch.size + 1);
    batch.candOffsets.push_back(0);

    for (u64 i = 0; i < batch.size; ++i) {
        u64 total = 0;
        for (u32 lane = 0; lane < 4; ++lane) {
            total += queryCandidatesInto(ctx.map,
                                         batch.seeds[4 * i + lane],
                                         ctx.stats.query,
                                         batch.candidates);
            batch.candOffsets.push_back(batch.candidates.size());
        }
        // Fallback exit 1: the SeedMap query produced no location at
        // all (across both orientations).
        if (total == 0)
            batch.route[i] = PairRoute::SeedMiss;

        if (batch.trace) {
            // The orientation-A seed stream (lanes 0 and 1) is what the
            // Partitioned Seeding hardware emits; record raw location
            // list lengths exactly like hwsim::buildWorkload().
            PairTraceRecord &tr = batch.trace[i];
            for (u32 s = 0; s < 3; ++s) {
                const Seed &a = batch.seeds[4 * i + 0][s];
                const Seed &b = batch.seeds[4 * i + 1][s];
                tr.seedHash[s] = a.hash;
                tr.locCount[s] =
                    static_cast<u32>(ctx.map.lookup(a.hash).size());
                tr.seedHash[s + 3] = b.hash;
                tr.locCount[s + 3] =
                    static_cast<u32>(ctx.map.lookup(b.hash).size());
            }
        }
    }
    sc.itemsOut += pendingCount(batch);
}

void
runPaFilterStage(const StageContext &ctx, PairBatch &batch)
{
    StageCounters &sc = counters(ctx, StageId::PaFilter);
    ++sc.batches;
    sc.itemsIn += batch.size;

    batch.candidatePairs.clear();
    batch.pairOffsets.clear();
    batch.pairOffsets.reserve(2 * batch.size + 1);
    batch.pairOffsets.push_back(0);

    for (u64 i = 0; i < batch.size; ++i) {
        const u64 itersBefore = ctx.stats.query.filterIterations;
        u64 survivors = 0;
        for (u32 o = 0; o < 2; ++o) {
            const u64 leftBegin = batch.candOffsets[4 * i + 2 * o];
            const u64 leftEnd = batch.candOffsets[4 * i + 2 * o + 1];
            const u64 rightEnd = batch.candOffsets[4 * i + 2 * o + 2];
            std::size_t cnt = pairedAdjacencyFilterInto(
                batch.candidates.data() + leftBegin, leftEnd - leftBegin,
                batch.candidates.data() + leftEnd, rightEnd - leftEnd,
                ctx.params.delta, ctx.stats.query, batch.candidatePairs);
            ctx.stats.candidatePairs += cnt;
            survivors += cnt;
            batch.pairOffsets.push_back(batch.candidatePairs.size());
        }
        // Fallback exit 2: no candidate pair within delta.
        if (batch.route[i] == PairRoute::Pending && survivors == 0)
            batch.route[i] = PairRoute::PaMiss;
        if (batch.trace)
            batch.trace[i].filterIterations = static_cast<u32>(
                ctx.stats.query.filterIterations - itersBefore);
    }
    sc.itemsOut += pendingCount(batch);
}

namespace {

/**
 * The gated light-alignment path: per-candidate scalar loop, exactly
 * the pre-batching behavior. Gates may be stateful (SneakySnake keeps
 * per-read state and its own counters), so admission order must stay
 * candidate-by-candidate; the SIMD batch path below only runs when no
 * gate is installed.
 */
void
runLightAlignStageGated(const StageContext &ctx, PairBatch &batch,
                        StageCounters &sc)
{
    for (u64 i = 0; i < batch.size; ++i) {
        if (batch.route[i] != PairRoute::Pending)
            continue;
        ++sc.itemsIn;
        const u64 alignsBefore = ctx.stats.lightAlignsAttempted;

        struct Best
        {
            bool found = false;
            i64 score = 0;
            LightResult left;
            LightResult right;
            bool read1IsLeft = true;
        } best;

        for (u32 o = 0; o < 2; ++o) {
            const OrientRefs refs = orientation(batch, i, o);
            // The read changed: drop the cached bit planes.
            batch.scratchLeft.invalidateRead();
            batch.scratchRight.invalidateRead();
            u32 budget = ctx.params.maxCandidatePairs;
            const u64 begin = batch.pairOffsets[2 * i + o];
            const u64 end = batch.pairOffsets[2 * i + o + 1];
            for (u64 c = begin; c < end; ++c) {
                if (budget-- == 0)
                    break;
                const CandidatePair &cand = batch.candidatePairs[c];
                if (ctx.gate &&
                    !ctx.gate->admit(*refs.left, cand.leftStart)) {
                    ++ctx.stats.gateRejected;
                    continue;
                }
                LightResult la = ctx.light.align(
                    *refs.left, cand.leftStart, batch.scratchLeft);
                ++ctx.stats.lightAlignsAttempted;
                ctx.stats.lightHypotheses += la.hypothesesTried;
                if (!la.aligned)
                    continue;
                if (ctx.gate &&
                    !ctx.gate->admit(*refs.right, cand.rightStart)) {
                    ++ctx.stats.gateRejected;
                    continue;
                }
                LightResult ra = ctx.light.align(
                    *refs.right, cand.rightStart, batch.scratchRight);
                ++ctx.stats.lightAlignsAttempted;
                ctx.stats.lightHypotheses += ra.hypothesesTried;
                if (!ra.aligned)
                    continue;
                i64 score = static_cast<i64>(la.score) + ra.score;
                if (!best.found || score > best.score) {
                    best.found = true;
                    best.score = score;
                    best.left = la;
                    best.right = ra;
                    best.read1IsLeft = refs.read1IsLeft;
                }
            }
        }

        if (batch.trace)
            batch.trace[i].lightAligns = static_cast<u32>(
                ctx.stats.lightAlignsAttempted - alignsBefore);

        if (best.found) {
            ++ctx.stats.lightAligned;
            ++sc.itemsOut;
            batch.route[i] = PairRoute::LightAligned;
            PairMapping &pm = batch.out[i];
            pm = {};
            pm.path = MappingPath::LightAligned;
            Mapping leftMap, rightMap;
            leftMap.mapped = true;
            leftMap.pos = best.left.pos;
            leftMap.score = best.left.score;
            leftMap.cigar = best.left.cigar;
            leftMap.reverse = false;
            rightMap.mapped = true;
            rightMap.pos = best.right.pos;
            rightMap.score = best.right.score;
            rightMap.cigar = best.right.cigar;
            rightMap.reverse = true;
            if (best.read1IsLeft) {
                pm.first = std::move(leftMap);
                pm.second = std::move(rightMap);
            } else {
                // Orientation B: read 2 maps forward, read 1 reverse.
                leftMap.reverse = false;
                rightMap.reverse = true;
                pm.second = std::move(leftMap);
                pm.first = std::move(rightMap);
            }
        } else {
            // Fallback exit 3: light alignment rejected every candidate.
            ++ctx.stats.lightAlignFallback;
            batch.route[i] = PairRoute::LightFallback;
        }
    }
}

/** Read planes of one pair-side, built once and shared per candidate. */
inline const align::BitPlanes &
leftPlanes(PairBatch &batch, u64 i, u32 o)
{
    align::BitPlanes &planes = batch.lightLeft[2 * i + o];
    if (!batch.lightLeftValid[2 * i + o]) {
        planes.assign(*orientation(batch, i, o).left);
        batch.lightLeftValid[2 * i + o] = 1;
    }
    return planes;
}

inline const align::BitPlanes &
rightPlanes(PairBatch &batch, u64 i, u32 o)
{
    align::BitPlanes &planes = batch.lightRight[2 * i + o];
    if (!batch.lightRightValid[2 * i + o]) {
        planes.assign(*orientation(batch, i, o).right);
        batch.lightRightValid[2 * i + o] = 1;
    }
    return planes;
}

} // namespace

void
runLightAlignStage(const StageContext &ctx, PairBatch &batch)
{
    StageCounters &sc = counters(ctx, StageId::LightAlign);
    ++sc.batches;

    if (ctx.gate) {
        runLightAlignStageGated(ctx, batch, sc);
        return;
    }

    // Gate-free path: evaluate the shifted-mask filter for whole lane
    // groups of candidates per vector register. The scalar loop
    // attempted the left side of every budgeted candidate and the
    // right side only where the left aligned; two phased sweeps keep
    // that exact attempt set, so every counter and trace field is
    // unchanged.
    std::vector<CandidateRef> &cands = reuse(batch.sweepCands);
    std::vector<LightBatchItem> &leftItems = reuse(batch.lightLeftItems);
    for (u64 i = 0; i < batch.size; ++i) {
        if (batch.route[i] != PairRoute::Pending)
            continue;
        ++sc.itemsIn;
        for (u32 o = 0; o < 2; ++o) {
            u32 budget = ctx.params.maxCandidatePairs;
            const u64 begin = batch.pairOffsets[2 * i + o];
            const u64 end = batch.pairOffsets[2 * i + o + 1];
            for (u64 c = begin; c < end; ++c) {
                if (budget-- == 0)
                    break;
                cands.push_back({ i, c, o });
                leftItems.push_back(
                    { &leftPlanes(batch, i, o),
                      batch.candidatePairs[c].leftStart });
            }
        }
    }

    std::vector<LightResult> &leftRes =
        reuse(batch.lightLeftRes, cands.size());
    ctx.light.alignBatch(leftItems.data(), leftItems.size(),
                         batch.lightBatch, leftRes.data());

    std::vector<LightBatchItem> &rightItems = reuse(batch.lightRightItems);
    std::vector<std::size_t> &rightSlot = batch.rightSlot;
    rightSlot.assign(cands.size(), SIZE_MAX);
    for (std::size_t t = 0; t < cands.size(); ++t) {
        ++ctx.stats.lightAlignsAttempted;
        ctx.stats.lightHypotheses += leftRes[t].hypothesesTried;
        if (!leftRes[t].aligned)
            continue;
        rightSlot[t] = rightItems.size();
        rightItems.push_back(
            { &rightPlanes(batch, cands[t].pair, cands[t].orient),
              batch.candidatePairs[cands[t].cand].rightStart });
    }
    std::vector<LightResult> &rightRes =
        reuse(batch.lightRightRes, rightItems.size());
    ctx.light.alignBatch(rightItems.data(), rightItems.size(),
                         batch.lightBatch, rightRes.data());
    for (const LightResult &r : rightRes) {
        ++ctx.stats.lightAlignsAttempted;
        ctx.stats.lightHypotheses += r.hypothesesTried;
    }

    // Selection replay, per pair in candidate-visit order.
    std::size_t t = 0;
    for (u64 i = 0; i < batch.size; ++i) {
        if (batch.route[i] != PairRoute::Pending)
            continue;

        struct Best
        {
            bool found = false;
            i64 score = 0;
            LightResult left;
            LightResult right;
            bool read1IsLeft = true;
        } best;

        u32 pairAttempts = 0;
        for (; t < cands.size() && cands[t].pair == i; ++t) {
            ++pairAttempts;
            const LightResult &la = leftRes[t];
            if (!la.aligned)
                continue;
            ++pairAttempts; // the right side was attempted too
            const LightResult &ra = rightRes[rightSlot[t]];
            if (!ra.aligned)
                continue;
            i64 score = static_cast<i64>(la.score) + ra.score;
            if (!best.found || score > best.score) {
                best.found = true;
                best.score = score;
                best.left = la;
                best.right = ra;
                best.read1IsLeft = cands[t].orient == 0;
            }
        }

        if (batch.trace)
            batch.trace[i].lightAligns = pairAttempts;

        if (best.found) {
            ++ctx.stats.lightAligned;
            ++sc.itemsOut;
            batch.route[i] = PairRoute::LightAligned;
            PairMapping &pm = batch.out[i];
            pm = {};
            pm.path = MappingPath::LightAligned;
            Mapping leftMap, rightMap;
            leftMap.mapped = true;
            leftMap.pos = best.left.pos;
            leftMap.score = best.left.score;
            leftMap.cigar = best.left.cigar;
            leftMap.reverse = false;
            rightMap.mapped = true;
            rightMap.pos = best.right.pos;
            rightMap.score = best.right.score;
            rightMap.cigar = best.right.cigar;
            rightMap.reverse = true;
            if (best.read1IsLeft) {
                pm.first = std::move(leftMap);
                pm.second = std::move(rightMap);
            } else {
                // Orientation B: read 2 maps forward, read 1 reverse.
                pm.second = std::move(leftMap);
                pm.first = std::move(rightMap);
            }
        } else {
            // Fallback exit 3: light alignment rejected every candidate.
            ++ctx.stats.lightAlignFallback;
            batch.route[i] = PairRoute::LightFallback;
        }
    }
}

void
runFallbackStage(const StageContext &ctx, PairBatch &batch)
{
    StageCounters &sc = counters(ctx, StageId::Fallback);
    ++sc.batches;
    const baseline::DpWork dpBefore =
        ctx.fallback ? ctx.fallback->dpWork() : baseline::DpWork{};

    // Pass 1: classify routed pairs so each fallback class can run as
    // one batched DP sweep across the whole PairBatch (the interleaved
    // engine fills its lanes across pair boundaries). Pairs without a
    // fallback engine resolve to Unmapped here, exactly as before.
    std::vector<u64> &fullDp = reuse(batch.fullDp);
    std::vector<u64> &exit3 = reuse(batch.exit3);
    for (u64 i = 0; i < batch.size; ++i) {
        const PairRoute route = batch.route[i];
        if (route == PairRoute::LightAligned)
            continue;
        ++sc.itemsIn;
        if (batch.trace)
            batch.trace[i].route = route;

        if (route == PairRoute::SeedMiss || route == PairRoute::PaMiss) {
            if (route == PairRoute::SeedMiss)
                ++ctx.stats.seedMissFallback;
            else
                ++ctx.stats.paFilterFallback;
        }
        if (!ctx.fallback) {
            ++ctx.stats.unmapped;
            PairMapping &pm = batch.out[i];
            pm = {};
            pm.path = MappingPath::Unmapped;
            continue;
        }
        if (route == PairRoute::SeedMiss || route == PairRoute::PaMiss)
            fullDp.push_back(i);
        else
            exit3.push_back(i);
    }

    // Full DP pipeline for pairs GenPair could not narrow down, every
    // chain alignment of the class in one interleaved batch.
    if (!fullDp.empty()) {
        std::vector<const genomics::ReadPair *> &prs =
            reuse(batch.fullDpPairs);
        for (u64 i : fullDp)
            prs.push_back(&batch.pairs[i]);
        std::vector<PairMapping> &mapped =
            reuse(batch.fullDpOut, fullDp.size());
        ctx.fallback->mapPairsBatch(prs.data(), prs.size(),
                                    mapped.data());
        for (std::size_t k = 0; k < fullDp.size(); ++k) {
            PairMapping &pm = batch.out[fullDp[k]];
            pm = std::move(mapped[k]);
            pm.path = MappingPath::FullDpFallback;
            if (pm.bothMapped() || pm.first.mapped || pm.second.mapped) {
                ++ctx.stats.fullDpMapped;
                ++sc.itemsOut;
            } else {
                ++ctx.stats.unmapped;
            }
        }
    }

    // Exit 3: DP-align at the known candidate positions (no
    // seeding/chaining needed). The scalar loop aligned left-then-right
    // per candidate with the right gated on the left passing; phased
    // batching keeps that contract — all left windows in one sweep,
    // then the right windows of passing lefts — so the alignment set
    // (and with it every counter) is unchanged.
    if (!exit3.empty()) {
        std::vector<CandidateRef> &cands = reuse(batch.sweepCands);
        std::vector<baseline::Mm2Lite::AlignAtTask> &leftTasks =
            reuse(batch.dpLeftTasks);
        for (u64 i : exit3) {
            for (u32 o = 0; o < 2; ++o) {
                const OrientRefs refs = orientation(batch, i, o);
                u32 budget =
                    std::max<u32>(4, ctx.params.maxCandidatePairs / 4);
                const u64 begin = batch.pairOffsets[2 * i + o];
                const u64 end = batch.pairOffsets[2 * i + o + 1];
                for (u64 c = begin; c < end; ++c) {
                    if (budget-- == 0)
                        break;
                    cands.push_back({ i, c, o });
                    leftTasks.push_back(
                        { refs.left,
                          batch.candidatePairs[c].leftStart,
                          ctx.params.dpSlack });
                }
            }
        }

        std::vector<Mapping> &leftRes =
            reuse(batch.dpLeftRes, cands.size());
        ctx.fallback->alignAtBatch(leftTasks.data(), leftTasks.size(),
                                   leftRes.data());

        std::vector<baseline::Mm2Lite::AlignAtTask> &rightTasks =
            reuse(batch.dpRightTasks);
        std::vector<std::size_t> &rightSlot = batch.rightSlot;
        rightSlot.assign(cands.size(), SIZE_MAX);
        for (std::size_t t = 0; t < cands.size(); ++t) {
            const Mapping &lm = leftRes[t];
            if (!lm.mapped || lm.score < ctx.params.minDpScore)
                continue;
            const OrientRefs refs =
                orientation(batch, cands[t].pair, cands[t].orient);
            rightSlot[t] = rightTasks.size();
            rightTasks.push_back(
                { refs.right,
                  batch.candidatePairs[cands[t].cand].rightStart,
                  ctx.params.dpSlack });
        }
        std::vector<Mapping> &rightRes =
            reuse(batch.dpRightRes, rightTasks.size());
        ctx.fallback->alignAtBatch(rightTasks.data(), rightTasks.size(),
                                   rightRes.data());

        // Selection replay, per pair in candidate-visit order.
        std::size_t t = 0;
        for (u64 i : exit3) {
            struct DpBest
            {
                bool found = false;
                i64 score = 0;
                Mapping left;
                Mapping right;
                bool read1IsLeft = true;
            } dpBest;

            for (; t < cands.size() && cands[t].pair == i; ++t) {
                Mapping &lm = leftRes[t];
                if (!lm.mapped || lm.score < ctx.params.minDpScore)
                    continue;
                Mapping &rm = rightRes[rightSlot[t]];
                if (!rm.mapped || rm.score < ctx.params.minDpScore)
                    continue;
                i64 score = static_cast<i64>(lm.score) + rm.score;
                if (!dpBest.found || score > dpBest.score) {
                    dpBest.found = true;
                    dpBest.score = score;
                    dpBest.left = std::move(lm);
                    dpBest.right = std::move(rm);
                    dpBest.read1IsLeft = cands[t].orient == 0;
                }
            }

            PairMapping &pm = batch.out[i];
            pm = {};
            if (dpBest.found) {
                ++ctx.stats.dpAligned;
                ++sc.itemsOut;
                pm.path = MappingPath::DpAlignFallback;
                dpBest.left.reverse = false;
                dpBest.right.reverse = true;
                if (dpBest.read1IsLeft) {
                    pm.first = std::move(dpBest.left);
                    pm.second = std::move(dpBest.right);
                } else {
                    pm.second = std::move(dpBest.left);
                    pm.first = std::move(dpBest.right);
                }
            } else {
                ++ctx.stats.unmapped;
                pm.path = MappingPath::Unmapped;
            }
        }
    }

    if (ctx.fallback) {
        const baseline::DpWork &dp = ctx.fallback->dpWork();
        ctx.stats.dpLaneGroups += dp.laneGroups - dpBefore.laneGroups;
        ctx.stats.dpLanesUsed += dp.lanesUsed - dpBefore.lanesUsed;
    }
}

void
runStageGraph(const StageContext &ctx, PairBatch &batch)
{
    runSeedStage(ctx, batch);
    runQueryStage(ctx, batch);
    runPaFilterStage(ctx, batch);
    runLightAlignStage(ctx, batch);
    runFallbackStage(ctx, batch);
    if (batch.trace) {
        // LightAligned pairs never reach the fallback stage; stamp
        // their final route here so every record is complete.
        for (u64 i = 0; i < batch.size; ++i)
            if (batch.route[i] == PairRoute::LightAligned)
                batch.trace[i].route = PairRoute::LightAligned;
    }
}

} // namespace genpair
} // namespace gpx
