#include "genomics/reference.hh"

#include <algorithm>

#include "util/logging.hh"
#include "util/xxhash.hh"

namespace gpx {
namespace genomics {

u32
Reference::addChromosome(std::string name, DnaSequence seq)
{
    u32 id = static_cast<u32>(chroms_.size());
    starts_.push_back(total_);
    total_ += seq.size();
    names_.push_back(std::move(name));
    chroms_.push_back(std::move(seq));
    return id;
}

u64
Reference::fingerprint() const
{
    u64 h = 0;
    for (std::size_t c = 0; c < chroms_.size(); ++c) {
        const u64 len = chroms_[c].size();
        h = util::xxh64(names_[c].data(), names_[c].size(), h);
        h = util::xxh64(&len, sizeof(len), h);
        h = util::xxh64(chroms_[c].packed().data(),
                        chroms_[c].packed().size(), h);
    }
    return h;
}

ChromPos
Reference::toChromPos(GlobalPos pos) const
{
    gpx_assert(pos < total_, "global position out of range");
    auto it = std::upper_bound(starts_.begin(), starts_.end(), pos);
    u32 chrom = static_cast<u32>(it - starts_.begin()) - 1;
    return { chrom, pos - starts_[chrom] };
}

GlobalPos
Reference::toGlobal(u32 chrom, u64 offset) const
{
    gpx_assert(chrom < chroms_.size(), "chromosome out of range");
    gpx_assert(offset < chroms_[chrom].size(), "offset out of range");
    return starts_[chrom] + offset;
}

u8
Reference::baseAt(GlobalPos pos) const
{
    ChromPos cp = toChromPos(pos);
    return chroms_[cp.chrom].at(cp.offset);
}

DnaSequence
Reference::window(GlobalPos pos, u64 len) const
{
    return windowView(pos, len).materialize();
}

DnaView
Reference::windowView(GlobalPos pos, u64 len) const
{
    if (pos >= total_)
        return {};
    ChromPos cp = toChromPos(pos);
    const DnaSequence &chrom = chroms_[cp.chrom];
    u64 avail = chrom.size() - cp.offset;
    return chrom.view(cp.offset, std::min(len, avail));
}

bool
Reference::windowValid(GlobalPos pos, u64 len) const
{
    if (pos >= total_ || len == 0)
        return false;
    ChromPos cp = toChromPos(pos);
    return cp.offset + len <= chroms_[cp.chrom].size();
}

} // namespace genomics
} // namespace gpx
