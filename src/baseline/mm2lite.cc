#include "baseline/mm2lite.hh"

#include <algorithm>
#include <iterator>
#include <numeric>

#include "util/logging.hh"

namespace gpx {
namespace baseline {

using align::Anchor;
using align::Chain;
using genomics::DnaSequence;
using genomics::Mapping;
using genomics::MappingPath;
using genomics::PairMapping;
using genomics::Read;
using genomics::ReadPair;

namespace {

/**
 * Clamp a window [pos-slack, pos+len+slack) to the chromosome that
 * contains pos; returns the global start and the usable length.
 */
std::pair<GlobalPos, u64>
clampWindow(const genomics::Reference &ref, GlobalPos pos, u64 len,
            u64 slack)
{
    genomics::ChromPos cp = ref.toChromPos(pos);
    u64 chromLen = ref.chromosomeLength(cp.chrom);
    u64 lo = cp.offset > slack ? cp.offset - slack : 0;
    u64 hi = std::min<u64>(chromLen, cp.offset + len + slack);
    GlobalPos start = ref.chromosomeStart(cp.chrom) + lo;
    return { start, hi > lo ? hi - lo : 0 };
}

} // namespace

Mm2Lite::Mm2Lite(const genomics::Reference &ref, const Mm2LiteParams &params)
    : ref_(ref), params_(params),
      index_(std::make_shared<MinimizerIndex>(ref, params.minimizers))
{
}

Mm2Lite::Mm2Lite(const genomics::Reference &ref, const Mm2LiteParams &params,
                 std::shared_ptr<const MinimizerIndex> index)
    : ref_(ref), params_(params), index_(std::move(index))
{
    gpx_assert(index_, "shared index must not be null");
    // Reads must be sketched with the scheme the index was built with;
    // an index served from an image carries its own (k, w).
    params_.minimizers = index_->params();
}

void
Mm2Lite::collectAnchors(const Read &read)
{
    const u32 k = params_.minimizers.k;
    std::vector<Minimizer> &mins = plan_.minimizers;
    extractMinimizers(read.seq, params_.minimizers, mins);
    // Resolve each minimizer's occurrence list once, size the anchor
    // vector exactly, then fill it.
    std::vector<std::span<const MinimizerIndex::Entry>> &hits = plan_.hits;
    hits.clear();
    std::size_t total = 0;
    for (const auto &m : mins) {
        hits.push_back(index_->lookup(m.hash));
        total += hits.back().size();
    }
    std::vector<Anchor> &anchors = plan_.anchors;
    anchors.clear();
    anchors.reserve(total);
    for (std::size_t mi = 0; mi < mins.size(); ++mi) {
        const auto &m = mins[mi];
        for (const auto &e : hits[mi]) {
            bool reverse = m.reverse != e.reverse;
            Anchor a;
            a.length = k;
            a.reverse = reverse;
            if (!reverse) {
                a.queryPos = m.pos;
            } else {
                // Coordinates of the reverse-complemented read.
                a.queryPos = read.seq.size() - k - m.pos;
            }
            a.refPos = e.pos;
            anchors.push_back(a);
        }
    }
}

void
Mm2Lite::planRead(const Read &read)
{
    {
        util::StageTimers::Scope scope(timers_, stages::kSeeding);
        collectAnchors(read);
    }

    std::vector<Chain> &chains = plan_.chains;
    chains.clear();
    {
        util::StageTimers::Scope scope(timers_, stages::kChaining);
        std::vector<Anchor> &fwd = plan_.fwd;
        std::vector<Anchor> &rev = plan_.rev;
        fwd.clear();
        rev.clear();
        for (const auto &a : plan_.anchors)
            (a.reverse ? rev : fwd).push_back(a);
        for (auto *side : { &fwd, &rev }) {
            auto part = align::chainAnchors(*side, params_.chain);
            for (auto &c : part) {
                dpWork_.chainCells += c.cellUpdates;
                chains.push_back(std::move(c));
            }
        }
        std::sort(chains.begin(), chains.end(),
                  [](const Chain &a, const Chain &b) {
                      return a.score > b.score;
                  });
        if (chains.size() > params_.maxCandidates)
            chains.resize(params_.maxCandidates);
    }
}

std::size_t
Mm2Lite::finishRead(std::span<Mapping> mappings)
{
    std::sort(mappings.begin(), mappings.end(),
              [](const Mapping &a, const Mapping &b) {
                  return a.score > b.score;
              });
    // Deduplicate identical positions (multiple chains, same
    // alignment), keeping the first (best-scoring) occurrence. A read
    // has at most maxCandidates mappings, so a scan of the kept keys
    // beats hashing and allocates nothing once warm.
    std::vector<u64> &seen = plan_.seen;
    seen.clear();
    std::size_t kept = 0;
    for (auto &m : mappings) {
        const u64 key = (m.pos << 1) | (m.reverse ? 1u : 0u);
        if (std::find(seen.begin(), seen.end(), key) != seen.end())
            continue;
        seen.push_back(key);
        if (&mappings[kept] != &m)
            mappings[kept] = std::move(m);
        ++kept;
    }
    return kept;
}

std::vector<Mapping>
Mm2Lite::mapRead(const Read &read)
{
    beginBatch(1);
    stageRead(0, read);
    alignStaged(1);
    std::span<Mapping> mine(batch_.mappings.data(), batch_.mappingEnds[0]);
    mine = mine.first(finishRead(mine));
    return std::vector<Mapping>(std::make_move_iterator(mine.begin()),
                                std::make_move_iterator(mine.end()));
}

Mapping
Mm2Lite::alignAt(const DnaSequence &read, GlobalPos pos, u32 slack)
{
    // A scalar fitAlign, not a one-task batch: the production caller
    // (LongReadMapper::alignAtStart) aligns one chunk at a time, each
    // window placed from the previous chunk's end, so there is no batch
    // to fill lanes with, and a one-task fitAlignBatch() would carry a
    // full lane group's traceback matrix.
    util::StageTimers::Scope scope(timers_, stages::kAlignment);
    Mapping m;
    auto [wstart, wlen] = clampWindow(ref_, pos, read.size(), slack);
    if (wlen < read.size())
        return m;
    genomics::DnaView window = ref_.windowView(wstart, wlen);
    auto res = align::fitAlign(read, window, params_.scoring,
                               static_cast<i32>(2 * slack + 32),
                               alignScratch_);
    dpWork_.alignCells += res.cellUpdates;
    if (!res.valid || res.score < params_.minAlignScore)
        return m;
    m.mapped = true;
    m.pos = wstart + res.targetStart;
    m.score = res.score;
    m.cigar = std::move(res.cigar);
    return m;
}

PairMapping
Mm2Lite::pairFromCandidates(std::span<const Mapping> cands1,
                            std::span<const Mapping> cands2)
{
    util::StageTimers::Scope scope(timers_, stages::kPairing);
    PairMapping best;
    best.path = MappingPath::FullDpFallback;
    i64 bestScore = -1;

    // Proper FR pair: opposite strands, ordered, bounded insert.
    for (const auto &m1 : cands1) {
        for (const auto &m2 : cands2) {
            if (m1.reverse == m2.reverse)
                continue;
            const Mapping &left = m1.reverse ? m2 : m1;
            const Mapping &right = m1.reverse ? m1 : m2;
            if (right.pos < left.pos)
                continue;
            u64 span = right.pos + right.cigar.refSpan() - left.pos;
            if (span > params_.maxInsert)
                continue;
            i64 score = static_cast<i64>(m1.score) + m2.score;
            if (score > bestScore) {
                bestScore = score;
                best.first = m1;
                best.second = m2;
            }
        }
    }
    if (bestScore >= 0)
        return best;

    // No proper pair: report the best independent mappings.
    if (!cands1.empty())
        best.first = cands1.front();
    if (!cands2.empty())
        best.second = cands2.front();
    if (!best.first.mapped && !best.second.mapped)
        best.path = MappingPath::Unmapped;
    return best;
}

PairMapping
Mm2Lite::mapPair(const ReadPair &pair)
{
    const ReadPair *one = &pair;
    PairMapping out;
    mapPairsBatch(&one, 1, &out);
    return out;
}

void
Mm2Lite::beginBatch(std::size_t reads)
{
    batch_.tasks.clear();
    batch_.refs.clear();
    if (batch_.rcs.size() < reads)
        batch_.rcs.resize(reads);
}

void
Mm2Lite::stageRead(u32 r, const Read &read)
{
    // One FitTask per surviving chain window, in chain order, so the
    // alignment phase hands one flat task list to the interleaved DP
    // engine.
    planRead(read);
    util::StageTimers::Scope scope(timers_, stages::kAlignment);
    bool haveRc = false;
    for (const Chain &chain : plan_.chains) {
        const DnaSequence *query = &read.seq;
        if (chain.reverse) {
            if (!haveRc) {
                batch_.rcs[r] = read.seq.revComp();
                haveRc = true;
            }
            query = &batch_.rcs[r];
        }
        // Expected read start on the reference.
        GlobalPos expect = chain.refStart > chain.queryStart
                               ? chain.refStart - chain.queryStart
                               : 0;
        auto [wstart, wlen] =
            clampWindow(ref_, expect, query->size(), params_.alignSlack);
        if (wlen < query->size())
            continue;
        align::FitTask ft;
        ft.query = *query;
        ft.target = ref_.windowView(wstart, wlen);
        // Band: the window only extends alignSlack around the chain
        // diagonal, so a band of slack + indel headroom is lossless for
        // any alignment the window can contain.
        ft.band = static_cast<i32>(2 * params_.alignSlack + 32);
        batch_.tasks.push_back(ft);
        batch_.refs.push_back({ r, chain.reverse, wstart });
    }
}

void
Mm2Lite::alignStaged(std::size_t reads)
{
    // Tasks are in read order, so the epilogue, replayed in visit
    // order, leaves each read's mappings in one contiguous group.
    std::vector<Mapping> &mappings = batch_.mappings;
    std::vector<u32> &ends = batch_.mappingEnds;
    mappings.clear();
    ends.assign(reads, 0);
    {
        util::StageTimers::Scope scope(timers_, stages::kAlignment);
        runBatchTasks();
        for (std::size_t t = 0; t < batch_.tasks.size(); ++t) {
            align::AlignResult &res = batch_.results[t];
            const TaskRef &tr = batch_.refs[t];
            dpWork_.alignCells += res.cellUpdates;
            if (!res.valid || res.score < params_.minAlignScore)
                continue;
            Mapping m;
            m.mapped = true;
            m.pos = tr.wstart + res.targetStart;
            m.reverse = tr.reverse;
            m.score = res.score;
            m.cigar = std::move(res.cigar);
            mappings.push_back(std::move(m));
            ++ends[tr.read];
        }
    }
    std::partial_sum(ends.begin(), ends.end(), ends.begin());
}

void
Mm2Lite::mapPairsBatch(const ReadPair *const *pairs, std::size_t count,
                       PairMapping *out)
{
    // Plan and stage every read of the batch (seeding + chaining,
    // scalar), then align every staged task in one run. Reads are 2
    // per pair, indexed [2 * p + side].
    beginBatch(2 * count);
    for (std::size_t p = 0; p < count; ++p) {
        stageRead(static_cast<u32>(2 * p), pairs[p]->first);
        stageRead(static_cast<u32>(2 * p + 1), pairs[p]->second);
    }
    alignStaged(2 * count);

    std::vector<Mapping> &mappings = batch_.mappings;
    const std::vector<u32> &ends = batch_.mappingEnds;
    for (std::size_t p = 0; p < count; ++p) {
        const u32 begin1 = p == 0 ? 0 : ends[2 * p - 1];
        const std::span<Mapping> c1(mappings.data() + begin1,
                                    ends[2 * p] - begin1);
        const std::span<Mapping> c2(mappings.data() + ends[2 * p],
                                    ends[2 * p + 1] - ends[2 * p]);
        out[p] = pairFromCandidates(c1.first(finishRead(c1)),
                                    c2.first(finishRead(c2)));
    }
}

void
Mm2Lite::runBatchTasks()
{
    batch_.results.clear();
    batch_.results.resize(batch_.tasks.size());
    const align::LaneFill fill =
        align::fitAlignBatch(batch_.tasks.data(), batch_.tasks.size(),
                             params_.scoring, batchScratch_,
                             batch_.results.data());
    dpWork_.laneGroups += fill.laneGroups;
    dpWork_.lanesUsed += fill.lanesUsed;
}

void
Mm2Lite::alignAtBatch(const AlignAtTask *batch, std::size_t count,
                      Mapping *out)
{
    util::StageTimers::Scope scope(timers_, stages::kAlignment);
    // A window clipped shorter than its read stays an empty task, which
    // fitAlignBatch reports invalid without taking a lane.
    std::vector<align::FitTask> &tasks = batch_.tasks;
    std::vector<GlobalPos> &wstarts = batch_.wstarts;
    tasks.assign(count, align::FitTask{});
    wstarts.resize(count);
    for (std::size_t t = 0; t < count; ++t) {
        const AlignAtTask &at = batch[t];
        auto [wstart, wlen] =
            clampWindow(ref_, at.pos, at.read->size(), at.slack);
        wstarts[t] = wstart;
        if (wlen < at.read->size())
            continue;
        tasks[t].query = *at.read;
        tasks[t].target = ref_.windowView(wstart, wlen);
        tasks[t].band = static_cast<i32>(2 * at.slack + 32);
    }
    runBatchTasks();
    for (std::size_t t = 0; t < count; ++t) {
        Mapping &m = out[t];
        m = Mapping{};
        if (tasks[t].target.size() == 0)
            continue;
        align::AlignResult &res = batch_.results[t];
        dpWork_.alignCells += res.cellUpdates;
        if (!res.valid || res.score < params_.minAlignScore)
            continue;
        m.mapped = true;
        m.pos = wstarts[t] + res.targetStart;
        m.score = res.score;
        m.cigar = std::move(res.cigar);
    }
}

} // namespace baseline
} // namespace gpx
