/**
 * @file
 * Light-alignment oracles: the hypothesis enumeration that builds a
 * CIGAR per hypothesis passing the score gate, as the search did
 * before it kept a compact edit, over masks built one shift at a time.
 */

#include "oracles/oracles.hh"

namespace gpx {
namespace genpair {

LightOracleResult
cigarOracle(const LightAlignParams &params, u32 n, u32 center,
            const u32 *popcount, const u32 *prefix, const u32 *suffix,
            u32 stride)
{
    const i32 e = static_cast<i32>(params.maxShift);
    const i32 minScore = params.minScoreFor(n);
    auto at = [&](const u32 *array, i32 s) {
        return array[static_cast<std::size_t>(s + e) * stride];
    };
    LightOracleResult best;
    auto consider = [&](i32 score, i32 shift, genomics::Cigar cigar) {
        if (best.aligned && score == best.score)
            ++best.ties;
        if (score > best.score || !best.aligned) {
            best.ties = 0;
            best.aligned = true;
            best.score = score;
            best.pos = static_cast<GlobalPos>(static_cast<i64>(center) +
                                              shift);
            best.cigar = std::move(cigar);
        }
    };
    for (i32 s = -e; s <= e; ++s) {
        ++best.hypothesesTried;
        const u32 mm = n - at(popcount, s);
        if (mm > params.maxMismatches)
            continue;
        const i32 score = params.scoring.scoreFromCounts(n - mm, mm);
        if (score < minScore)
            continue;
        genomics::Cigar cigar;
        cigar.push(genomics::CigarOp::Match, n);
        consider(score, s, std::move(cigar));
    }
    for (i32 s1 = -e; s1 <= e; ++s1) {
        for (i32 s2 = -e; s2 <= e; ++s2) {
            if (s1 == s2)
                continue;
            ++best.hypothesesTried;
            const u32 pre = at(prefix, s1);
            const u32 suf = at(suffix, s2);
            genomics::Cigar cigar;
            if (s2 > s1) {
                const u32 k = static_cast<u32>(s2 - s1);
                if (pre + suf < n)
                    continue;
                const i32 score = params.scoring.scoreFromCounts(n, 0, k);
                if (score < minScore)
                    continue;
                const u32 p = n - suf;
                cigar.push(genomics::CigarOp::Match, p);
                cigar.push(genomics::CigarOp::Deletion, k);
                cigar.push(genomics::CigarOp::Match, n - p);
                consider(score, s1, std::move(cigar));
            } else {
                const u32 k = static_cast<u32>(s1 - s2);
                if (k >= n || pre + suf < n - k)
                    continue;
                const i32 score =
                    params.scoring.scoreFromCounts(n - k, 0, k);
                if (score < minScore)
                    continue;
                u32 p = suf <= n - k ? n - k - suf : 0;
                if (p > pre)
                    p = pre;
                cigar.push(genomics::CigarOp::Match, p);
                cigar.push(genomics::CigarOp::Insertion, k);
                cigar.push(genomics::CigarOp::Match, n - k - p);
                consider(score, s1, std::move(cigar));
            }
        }
    }
    return best;
}

LightOracleResult
lightAlignOracle(const genomics::Reference &ref,
                 const LightAlignParams &params,
                 const genomics::DnaView &read, GlobalPos candidate)
{
    const u32 e = params.maxShift;
    const u64 wlen = read.size() + 2 * static_cast<u64>(e);
    if (candidate < e || !ref.windowValid(candidate - e, wlen))
        return {};
    const genomics::DnaView window = ref.windowView(candidate - e, wlen);
    const auto masks = align::shiftedMasks(read, window, e, e);
    std::vector<u32> popcount, prefix, suffix;
    for (const auto &m : masks) {
        popcount.push_back(m.popcount());
        prefix.push_back(m.onesPrefix());
        suffix.push_back(m.onesSuffix());
    }
    LightOracleResult res =
        cigarOracle(params, static_cast<u32>(read.size()), e,
                    popcount.data(), prefix.data(), suffix.data(), 1);
    if (res.aligned)
        res.pos += candidate - e; // window-relative -> global
    return res;
}

} // namespace genpair
} // namespace gpx
