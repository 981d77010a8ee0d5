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

    const u64 seedLen = ctx.map.params().seedLen;
    for (u64 i = 0; i < batch.size; ++i) {
        ++ctx.stats.pairsTotal;
        const genomics::ReadPair &pair = batch.pairs[i];
        batch.rc1[i].assignRevComp(pair.first.seq);
        batch.rc2[i].assignRevComp(pair.second.seq);
        // A read shorter than one seed (empty included) has no
        // partitioned seeds: fallback exit 1, like a pair whose seeds
        // all miss.
        if (pair.first.seq.size() < seedLen ||
            pair.second.seq.size() < seedLen) {
            batch.route[i] = PairRoute::SeedMiss;
            continue;
        }
        batch.seeds[4 * i + 0] = ctx.seeder.extract(pair.first.seq);
        batch.seeds[4 * i + 1] = ctx.seeder.extract(batch.rc2[i]);
        batch.seeds[4 * i + 2] = ctx.seeder.extract(pair.second.seq);
        batch.seeds[4 * i + 3] = ctx.seeder.extract(batch.rc1[i]);
    }
    sc.itemsOut += pendingCount(batch);
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
        if (batch.route[i] != PairRoute::Pending) {
            // Routed by the seed stage: no seeds, so no lookups and
            // four empty candidate lanes.
            batch.candOffsets.insert(batch.candOffsets.end(), 4,
                                     batch.candidates.size());
            if (batch.trace) {
                batch.trace[i].seedHash = {};
                batch.trace[i].locCount = {};
            }
            continue;
        }
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
 * Read planes of one pair side ([2*i+o] of the left or right lanes),
 * built on first use and shared by every candidate of that side.
 */
inline const align::BitPlanes &
sidePlanes(PairBatch &batch, u64 i, u32 o, bool right)
{
    align::BitPlanes &planes =
        (right ? batch.lightRight : batch.lightLeft)[2 * i + o];
    u8 &valid =
        (right ? batch.lightRightValid : batch.lightLeftValid)[2 * i + o];
    if (!valid) {
        const OrientRefs refs = orientation(batch, i, o);
        planes.assign(right ? *refs.right : *refs.left);
        valid = 1;
    }
    return planes;
}

/** The gate's verdict on one side (no gate admits all); counts rejects. */
inline bool
admitted(const StageContext &ctx, const DnaSequence &read, GlobalPos start)
{
    if (!ctx.gate || ctx.gate->admit(read, start))
        return true;
    ++ctx.stats.gateRejected;
    return false;
}

/** Outcome of one pair's selection replay. */
struct Replay
{
    std::size_t best = SIZE_MAX; ///< winning sweep candidate, if any
    u32 sides = 0; ///< sides aligned: staged lefts + slotted rights
};

/**
 * Selection replay of one pair over a phased sweep: walks the pair's
 * candidates from @p t (left past them on return) in visit order and
 * picks the first best-scoring one whose right side was aligned and
 * passes @p ok.
 */
template <typename Result, typename Ok>
Replay
replayPair(const std::vector<CandidateRef> &cands,
           const std::vector<std::size_t> &rightSlot, const Result *left,
           const Result *right, u64 pair, std::size_t &t, Ok ok)
{
    Replay out;
    i64 bestScore = 0;
    for (; t < cands.size() && cands[t].pair == pair; ++t) {
        ++out.sides;
        if (rightSlot[t] == SIZE_MAX)
            continue;
        ++out.sides;
        const Result &r = right[rightSlot[t]];
        if (!ok(r))
            continue;
        const i64 score = static_cast<i64>(left[t].score) + r.score;
        if (out.best == SIZE_MAX || score > bestScore) {
            out.best = t;
            bestScore = score;
        }
    }
    return out;
}

/**
 * A pair's mapping from the left/right winners of one orientation: the
 * left maps forward, the right reverse-complemented, and orientation B
 * (read 2 on the left) swaps them back into read order.
 */
void
placePair(PairMapping &pm, MappingPath path, Mapping left, Mapping right,
          bool read1IsLeft)
{
    pm = {};
    pm.path = path;
    left.reverse = false;
    right.reverse = true;
    if (read1IsLeft) {
        pm.first = std::move(left);
        pm.second = std::move(right);
    } else {
        pm.second = std::move(left);
        pm.first = std::move(right);
    }
}

/**
 * A placed light-alignment winner as a Mapping: the one CIGAR built
 * from its compact edit (losing hypotheses never get one).
 */
inline Mapping
lightMapping(const LightResult &r)
{
    Mapping m;
    m.mapped = true;
    m.pos = r.pos;
    m.score = r.score;
    m.cigar = r.cigar();
    return m;
}

} // namespace

void
runLightAlignStage(const StageContext &ctx, PairBatch &batch)
{
    StageCounters &sc = counters(ctx, StageId::LightAlign);
    ++sc.batches;

    // Evaluate the shifted-mask filter for whole lane groups of
    // candidates per vector register, in two phased sweeps: the left
    // side of every budgeted candidate the gate admits, then the right
    // side of every left that aligned, if the gate admits it too. That
    // is the candidate-by-candidate attempt set, so every counter and
    // trace field matches a per-candidate loop; only the order of the
    // gate's admit() calls differs (all lefts, then the rights), which
    // a pure gate cannot tell (LightAlignGate).
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
                const GlobalPos start = batch.candidatePairs[c].leftStart;
                if (!admitted(ctx, *orientation(batch, i, o).left, start))
                    continue;
                cands.push_back({ i, c, o });
                leftItems.push_back({ &sidePlanes(batch, i, o, false),
                                      start });
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
        const CandidateRef &cr = cands[t];
        const GlobalPos start = batch.candidatePairs[cr.cand].rightStart;
        if (!admitted(ctx, *orientation(batch, cr.pair, cr.orient).right,
                      start))
            continue;
        rightSlot[t] = rightItems.size();
        rightItems.push_back(
            { &sidePlanes(batch, cr.pair, cr.orient, true), start });
    }
    std::vector<LightResult> &rightRes =
        reuse(batch.lightRightRes, rightItems.size());
    ctx.light.alignBatch(rightItems.data(), rightItems.size(),
                         batch.lightBatch, rightRes.data());
    for (const LightResult &r : rightRes) {
        ++ctx.stats.lightAlignsAttempted;
        ctx.stats.lightHypotheses += r.hypothesesTried;
    }

    std::size_t t = 0;
    for (u64 i = 0; i < batch.size; ++i) {
        if (batch.route[i] != PairRoute::Pending)
            continue;
        const Replay r = replayPair(
            cands, rightSlot, leftRes.data(), rightRes.data(), i, t,
            [](const LightResult &res) { return res.aligned; });
        if (batch.trace)
            batch.trace[i].lightAligns = r.sides;
        const std::size_t best = r.best;

        if (best != SIZE_MAX) {
            ++ctx.stats.lightAligned;
            ++sc.itemsOut;
            batch.route[i] = PairRoute::LightAligned;
            placePair(batch.out[i], MappingPath::LightAligned,
                      lightMapping(leftRes[best]),
                      lightMapping(rightRes[rightSlot[best]]),
                      cands[best].orient == 0);
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

        const i32 minScore = ctx.params.minDpScore;
        auto passes = [minScore](const Mapping &m) {
            return m.mapped && m.score >= minScore;
        };
        std::vector<Mapping> &leftRes =
            reuse(batch.dpLeftRes, cands.size());
        ctx.fallback->alignAtBatch(leftTasks.data(), leftTasks.size(),
                                   leftRes.data());

        std::vector<baseline::Mm2Lite::AlignAtTask> &rightTasks =
            reuse(batch.dpRightTasks);
        std::vector<std::size_t> &rightSlot = batch.rightSlot;
        rightSlot.assign(cands.size(), SIZE_MAX);
        for (std::size_t t = 0; t < cands.size(); ++t) {
            if (!passes(leftRes[t]))
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

        std::size_t t = 0;
        for (u64 i : exit3) {
            const std::size_t best =
                replayPair(cands, rightSlot, leftRes.data(),
                           rightRes.data(), i, t, passes)
                    .best;
            if (best != SIZE_MAX) {
                ++ctx.stats.dpAligned;
                ++sc.itemsOut;
                placePair(batch.out[i], MappingPath::DpAlignFallback,
                          std::move(leftRes[best]),
                          std::move(rightRes[rightSlot[best]]),
                          cands[best].orient == 0);
            } else {
                ++ctx.stats.unmapped;
                batch.out[i] = {};
                batch.out[i].path = MappingPath::Unmapped;
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
