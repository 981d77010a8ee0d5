#include "filters/filtered_light_align.hh"

namespace gpx {
namespace filters {

bool
FilterGate::admit(const genomics::DnaSequence &read, GlobalPos candidate)
{
    // The filter needs budget_ bases of window left of the candidate;
    // nearer the genome start there is nothing to judge, so admit and
    // let Light Alignment's own window check decide.
    if (candidate < budget_)
        return true;
    ++evaluations_;
    genomics::DnaView window = ref_.windowView(
        candidate - budget_, read.size() + 2 * static_cast<u64>(budget_));
    const bool ok =
        filter_.evaluate(read, window, budget_, budget_).accept;
    if (!ok)
        ++rejections_;
    return ok;
}

genpair::LightResult
FilteredLightAligner::align(const genomics::DnaSequence &read,
                            GlobalPos candidate)
{
    ++stats_.candidates;

    // Build the same shifted window Light Alignment would inspect
    // (none within budget_ of the genome start: FilterGate::admit).
    const u32 e = budget_;
    if (candidate >= e) {
        genomics::DnaView window = ref_.windowView(
            candidate - e, read.size() + 2 * static_cast<u64>(e));
        FilterDecision gate = gate_.evaluate(read, window, e, e);
        stats_.gateEstimateSum += gate.estimatedEdits;
        if (!gate.accept) {
            ++stats_.gateRejected;
            return {};
        }
    }

    ++stats_.lightAttempted;
    genpair::LightResult r = aligner_.align(read, candidate);
    stats_.hypothesesTried += r.hypothesesTried;
    if (r.aligned)
        ++stats_.lightAligned;
    return r;
}

} // namespace filters
} // namespace gpx
