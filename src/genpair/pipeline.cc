#include "genpair/pipeline.hh"

#include <ostream>

#include "genpair/stages.hh"
#include "util/json.hh"
#include "util/logging.hh"
#include "util/simd.hh"

namespace gpx {
namespace genpair {

using genomics::PairMapping;
using genomics::ReadPair;

GenPairPipeline::GenPairPipeline(const genomics::Reference &ref,
                                 const SeedMapView &map,
                                 const GenPairParams &params,
                                 baseline::Mm2Lite *fallback)
    : ref_(ref), map_(map), params_(params), seeder_(map),
      light_(ref, params.light), fallback_(fallback)
{
}

PairMapping
GenPairPipeline::mapPair(const ReadPair &pair)
{
    PairMapping out;
    mapBatch(&pair, 1, &out, nullptr);
    return out;
}

void
GenPairPipeline::mapBatch(const ReadPair *pairs, u64 n, PairMapping *out,
                          PairTraceRecord *trace)
{
    if (n == 0)
        return;
    StageContext ctx{ ref_,  map_,      params_,   seeder_,
                      light_, gate_,    fallback_, stats_ };
    batch_.bind(pairs, n, out, trace);
    runStageGraph(ctx, batch_);
}

void
PipelineStats::writeJson(std::ostream &os) const
{
    os << "{\n"
       << "  \"simd\": {\"backend\": \""
       << util::simdBackendName(util::activeSimdBackend())
       << "\", \"reason\": \""
       << util::jsonEscape(util::simdBackendReason()) << "\"},\n"
       << "  \"pairs_total\": " << pairsTotal << ",\n"
       << "  \"light_aligned\": " << lightAligned << ",\n"
       << "  \"dp_aligned\": " << dpAligned << ",\n"
       << "  \"seed_miss_fallback\": " << seedMissFallback << ",\n"
       << "  \"pa_filter_fallback\": " << paFilterFallback << ",\n"
       << "  \"light_align_fallback\": " << lightAlignFallback << ",\n"
       << "  \"full_dp_mapped\": " << fullDpMapped << ",\n"
       << "  \"unmapped\": " << unmapped << ",\n"
       << "  \"candidate_pairs\": " << candidatePairs << ",\n"
       << "  \"light_aligns_attempted\": " << lightAlignsAttempted
       << ",\n"
       << "  \"light_hypotheses\": " << lightHypotheses << ",\n"
       << "  \"gate_rejected\": " << gateRejected << ",\n"
       << "  \"query\": {\"seed_lookups\": " << query.seedLookups
       << ", \"locations_fetched\": " << query.locationsFetched
       << ", \"filter_iterations\": " << query.filterIterations
       << "},\n"
       << "  \"ingest\": {\"ambiguous_bases\": " << ambiguousBases
       << "},\n"
       << "  \"io\": {\"reader_stall_seconds\": " << readerStallSeconds
       << ", \"writer_stall_seconds\": " << writerStallSeconds << "},\n"
       << "  \"stages\": {\n";
    for (std::size_t s = 0; s < kNumStages; ++s) {
        const StageCounters &c = stage[s];
        os << "    \"" << stageName(static_cast<StageId>(s))
           << "\": {\"batches\": " << c.batches
           << ", \"items_in\": " << c.itemsIn
           << ", \"items_out\": " << c.itemsOut;
        if (static_cast<StageId>(s) == StageId::Fallback)
            os << ", \"dp_lane_groups\": " << dpLaneGroups
               << ", \"dp_lanes_used\": " << dpLanesUsed;
        os << "}" << (s + 1 < kNumStages ? "," : "") << "\n";
    }
    os << "  }\n}\n";
}

} // namespace genpair
} // namespace gpx
