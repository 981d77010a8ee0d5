#include "scenario/scenario.hh"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iomanip>
#include <ostream>
#include <sstream>
#include <thread>
#include <unordered_map>
#include <utility>

#include "eval/pileup.hh"
#include "eval/variant_bench.hh"
#include "eval/vcf.hh"
#include "genomics/fasta.hh"
#include "genomics/sam.hh"
#include "genomics/sam_reader.hh"
#include "genpair/driver.hh"
#include "genpair/seedmap_io.hh"
#include "genpair/streaming.hh"
#include "simdata/genome_generator.hh"
#include "simdata/read_simulator.hh"
#include "util/gzip_stream.hh"
#include "util/json.hh"
#include "util/logging.hh"

namespace gpx {
namespace scenario {

using genomics::ReadPair;
using genomics::Reference;

namespace {

/** Scale a genome length, keeping enough room for repeats + reads. */
u64
scaleGenome(u64 len, double scale)
{
    return std::max<u64>(u64{ 1 } << 16,
                         static_cast<u64>(static_cast<double>(len) * scale));
}

/** Scale a read count with a floor that keeps the statistics meaningful. */
u64
scaleReads(u64 n, double scale, u64 floor)
{
    return std::max<u64>(floor,
                         static_cast<u64>(static_cast<double>(n) * scale));
}

simdata::VariantParams
variantParams(const ScenarioSpec &spec)
{
    simdata::VariantParams vp;
    vp.seed = spec.seed + 1;
    if (!spec.plantVariants) {
        // No donor variants: reads differ from the reference only by
        // sequencing error, so accuracy isolates the error sweep.
        vp.snpRate = 0;
        vp.indelRate = 0;
    }
    return vp;
}

simdata::ReadSimParams
readSimParams(const ScenarioSpec &spec, u64 seed_offset)
{
    simdata::ReadSimParams rp;
    rp.seed = spec.seed + seed_offset;
    if (spec.errorRate >= 0)
        rp.errors = simdata::ErrorProfile::uniform(spec.errorRate);
    return rp;
}

void
fillAccuracy(ScenarioResult &result, const eval::MappingEvaluator &eval,
             double seconds)
{
    const eval::MappingAccuracy &acc = eval.result();
    result.reads = acc.readsTotal;
    result.mapped = acc.mapped;
    result.correct = acc.correct;
    result.accuracy = acc.recall();
    result.mapSeconds = seconds;
    result.readsPerSec =
        seconds > 0 ? static_cast<double>(acc.readsTotal) / seconds : 0;
    result.attribution = eval.regions();
}

/** The pileup -> VCF round trip -> variant_bench leg (paper Table 7). */
void
runVariantLeg(ScenarioResult &result, const Reference &ref,
              const simdata::DiploidGenome &donor,
              const std::vector<ReadPair> &pairs,
              const std::vector<genomics::PairMapping> &mappings)
{
    eval::PileupCaller caller(ref, eval::CallerParams{});
    for (std::size_t i = 0; i < pairs.size(); ++i) {
        const auto &pm = mappings[i];
        if (pm.first.mapped)
            caller.addAlignment(pm.first.reverse
                                    ? pairs[i].first.seq.revComp()
                                    : pairs[i].first.seq,
                                pm.first);
        if (pm.second.mapped)
            caller.addAlignment(pm.second.reverse
                                    ? pairs[i].second.seq.revComp()
                                    : pairs[i].second.seq,
                                pm.second);
    }
    // Round-trip the calls through VCF so the wall covers the
    // serialization the external comparison flow depends on.
    std::stringstream vcf;
    eval::writeVcf(vcf, ref, caller.call());
    std::vector<eval::CalledVariant> calls = eval::readVcf(vcf, ref);
    result.snpF1 = eval::benchmarkVariants(donor.truthVariants(), calls,
                                           eval::VariantClass::Snp)
                       .f1();
    result.indelF1 = eval::benchmarkVariants(donor.truthVariants(), calls,
                                             eval::VariantClass::Indel)
                         .f1();
}

ScenarioResult
runShortRead(const ScenarioSpec &spec, const ScenarioOptions &options)
{
    ScenarioResult result;
    simdata::GenomeParams gp;
    gp.length = scaleGenome(spec.genomeLen, options.scale);
    gp.chromosomes = spec.chromosomes;
    gp.seed = spec.seed;
    Reference ref = simdata::generateGenome(gp);
    simdata::DiploidGenome donor(ref, variantParams(spec));

    simdata::ReadSimParams rp = readSimParams(spec, 2);
    const u64 numPairs =
        spec.plantVariants
            ? std::max<u64>(500, static_cast<u64>(
                                     static_cast<double>(ref.totalLength()) *
                                     spec.coverage / (2.0 * rp.readLen)))
            : scaleReads(spec.reads, options.scale, 200);
    simdata::ReadSimulator sim(donor, rp);
    std::vector<ReadPair> pairs = sim.simulate(numPairs);

    genpair::SeedMap map = genpair::SeedMap::build(
        ref, genpair::SeedMapParams{}, options.threads);
    genpair::DriverConfig config;
    config.threads = options.threads;
    genpair::ParallelMapper mapper(ref, map, config);
    genpair::DriverResult res = mapper.mapAll(pairs);
    result.stats = res.stats;

    eval::MappingEvaluator eval(spec.evalTolerance);
    for (std::size_t i = 0; i < pairs.size(); ++i)
        eval.addPair(pairs[i], res.mappings[i]);
    fillAccuracy(result, eval, res.timing.seconds);

    if (spec.plantVariants)
        runVariantLeg(result, ref, donor, pairs, res.mappings);
    return result;
}

ScenarioResult
runLongRead(const ScenarioSpec &spec, const ScenarioOptions &options)
{
    ScenarioResult result;
    simdata::GenomeParams gp;
    gp.length = scaleGenome(spec.genomeLen, options.scale);
    gp.chromosomes = spec.chromosomes;
    gp.seed = spec.seed;
    Reference ref = simdata::generateGenome(gp);
    simdata::DiploidGenome donor(ref, variantParams(spec));

    simdata::LongReadSimParams lp;
    lp.meanLen = spec.longMeanLen;
    lp.sdLen = spec.longSdLen;
    lp.seed = spec.seed + 2;
    if (spec.errorRate >= 0)
        lp.errors = simdata::ErrorProfile::uniform(spec.errorRate);
    simdata::LongReadSimulator sim(donor, lp);
    std::vector<genomics::Read> reads =
        sim.simulate(scaleReads(spec.reads, options.scale, 24));

    genpair::SeedMap map = genpair::SeedMap::build(
        ref, genpair::SeedMapParams{}, options.threads);
    genpair::LongReadDriver driver(ref, map, genpair::LongReadParams{},
                                   baseline::Mm2LiteParams{},
                                   options.threads);
    genpair::LongReadResult res = driver.mapAll(reads);
    result.longStats = res.stats;

    eval::MappingEvaluator eval(spec.evalTolerance);
    for (std::size_t i = 0; i < reads.size(); ++i)
        eval.addRead(reads[i], res.mappings[i]);
    fillAccuracy(result, eval, res.timing.seconds);
    return result;
}

ScenarioResult
runContamination(const ScenarioSpec &spec, const ScenarioOptions &options)
{
    ScenarioResult result;
    // Two independently generated species: the host keeps the spec's
    // seed lineage, the contaminant gets a disjoint one.
    simdata::GenomeParams ga;
    ga.length = scaleGenome(spec.genomeLen, options.scale);
    ga.chromosomes = spec.chromosomes;
    ga.seed = spec.seed;
    simdata::GenomeParams gb;
    gb.length = scaleGenome(spec.contaminantGenomeLen, options.scale);
    gb.chromosomes = 1;
    gb.seed = spec.seed + 100;
    Reference refA = simdata::generateGenome(ga);
    Reference refB = simdata::generateGenome(gb);

    Reference combined;
    for (u32 c = 0; c < refA.numChromosomes(); ++c)
        combined.addChromosome("host_" + refA.name(c),
                               refA.chromosome(c));
    for (u32 c = 0; c < refB.numChromosomes(); ++c)
        combined.addChromosome("contam_" + refB.name(c),
                               refB.chromosome(c));

    // Reads come from each species' own donor; species B truth
    // positions rebase onto the combined coordinate space (B
    // chromosomes follow A's in addChromosome order).
    simdata::DiploidGenome donorA(refA, variantParams(spec));
    simdata::DiploidGenome donorB(refB, variantParams(spec));
    const u64 total = scaleReads(spec.reads, options.scale, 400);
    const u64 fromB = static_cast<u64>(static_cast<double>(total) *
                                       spec.contaminantFrac);
    simdata::ReadSimulator simA(donorA, readSimParams(spec, 2));
    simdata::ReadSimulator simB(donorB, readSimParams(spec, 3));
    std::vector<ReadPair> pairs = simA.simulate(total - fromB);
    std::vector<ReadPair> pairsB = simB.simulate(fromB);
    const GlobalPos rebase = refA.totalLength();
    for (auto &pair : pairsB) {
        if (pair.first.truthPos != kInvalidPos)
            pair.first.truthPos += rebase;
        if (pair.second.truthPos != kInvalidPos)
            pair.second.truthPos += rebase;
        pairs.push_back(std::move(pair));
    }

    // The index is served the deployment way: a sharded image on
    // disk, mounted zero-copy through the multi-shard mmap view, its
    // fallback index included.
    genpair::SeedMap map = genpair::SeedMap::build(
        combined, genpair::SeedMapParams{}, options.threads);
    const std::string dir =
        options.workDir.empty() ? "." : options.workDir;
    const std::string imagePath =
        dir + "/gpx_scenario_" + spec.name + ".seedmap";
    {
        std::ofstream os(imagePath, std::ios::binary);
        if (!os) {
            result.skipped = true;
            result.skipReason =
                "cannot write scratch image: " + imagePath;
            return result;
        }
        genpair::saveSeedMapImage(
            os, combined, map,
            baseline::MinimizerIndex(combined, baseline::MinimizerParams{}),
            spec.imageShards);
        os.flush();
        if (!os) {
            result.skipped = true;
            result.skipReason =
                "short write on scratch image: " + imagePath;
            std::remove(imagePath.c_str());
            return result;
        }
    }
    genpair::SeedMapOpenOptions openOptions;
    openOptions.reference = &combined;
    std::string err;
    auto image = genpair::SeedMapImage::open(imagePath, openOptions, &err);
    if (!image) {
        result.skipped = true;
        result.skipReason = "image rejected: " + err;
        std::remove(imagePath.c_str());
        return result;
    }
    result.shardCount = image->shardCount();

    genpair::DriverConfig config;
    config.threads = options.threads;
    config.fallbackIndex = image->fallbackIndex();
    genpair::ParallelMapper mapper(combined, image->view(), config);
    genpair::DriverResult res = mapper.mapAll(pairs);
    result.stats = res.stats;

    eval::MappingEvaluator eval(spec.evalTolerance);
    eval.addRegion("host", 0, refA.totalLength());
    eval.addRegion("contaminant", refA.totalLength(),
                   combined.totalLength());
    for (std::size_t i = 0; i < pairs.size(); ++i)
        eval.addPair(pairs[i], res.mappings[i]);
    fillAccuracy(result, eval, res.timing.seconds);
    std::remove(imagePath.c_str());
    return result;
}

/** Render pairs as two same-order FASTQ texts. */
void
renderFastqPair(const std::vector<ReadPair> &pairs, std::string &r1,
                std::string &r2)
{
    std::vector<genomics::Read> reads1, reads2;
    reads1.reserve(pairs.size());
    reads2.reserve(pairs.size());
    for (const auto &pair : pairs) {
        reads1.push_back(pair.first);
        reads2.push_back(pair.second);
    }
    std::ostringstream o1, o2;
    genomics::writeFastq(o1, reads1);
    genomics::writeFastq(o2, reads2);
    r1 = o1.str();
    r2 = o2.str();
}

/**
 * Replace the first base of every @p every-th record's sequence line
 * with 'N'; returns the number of records touched. Keeps the ingest
 * accounting (IngestStats -> PipelineStats::ambiguousBases) a pinned,
 * nonzero number in the gzip scenario.
 */
u64
injectAmbiguousBases(std::string &fastq, u64 every)
{
    u64 record = 0, line = 0, touched = 0;
    std::size_t lineStart = 0;
    while (lineStart < fastq.size()) {
        std::size_t lineEnd = fastq.find('\n', lineStart);
        if (lineEnd == std::string::npos)
            lineEnd = fastq.size();
        if (line % 4 == 1) {
            if (record % every == 0 && lineEnd > lineStart) {
                fastq[lineStart] = 'N';
                ++touched;
            }
            ++record;
        }
        ++line;
        lineStart = lineEnd + 1;
    }
    return touched;
}

/** One spine pass: FASTQ text in, SAM text out. */
genpair::StreamRunStatus
runSpine(genpair::ParallelMapper &mapper, const Reference &ref,
         const ScenarioOptions &options, const std::string &r1,
         const std::string &r2, std::string &sam_text,
         genpair::StreamingResult &sr, genomics::IngestError &error)
{
    genpair::StreamingMapper spine(mapper, options.chunkPairs,
                                   options.ioThreads);
    std::istringstream i1(r1), i2(r2);
    std::ostringstream out;
    genomics::SamWriter sam(out, ref);
    sam.checkWrites("<scenario>", /*fatal_on_error=*/false);
    sam.writeHeader();
    genpair::StreamRunStatus status =
        spine.tryRun(i1, i2, sam, sr, &error);
    sam_text = out.str();
    return status;
}

/** Evaluate a SAM text against the simulated truth, by read name. */
void
evaluateSam(const std::string &sam_text, const Reference &ref,
            const std::vector<ReadPair> &pairs, u64 tolerance,
            ScenarioResult &result, double seconds)
{
    std::unordered_map<std::string, std::pair<GlobalPos, bool>> truth;
    truth.reserve(pairs.size() * 2);
    for (const auto &pair : pairs) {
        truth[pair.first.name] = { pair.first.truthPos,
                                   pair.first.truthReverse };
        truth[pair.second.name] = { pair.second.truthPos,
                                    pair.second.truthReverse };
    }
    std::istringstream is(sam_text);
    genomics::SamFile file = genomics::readSam(is);
    eval::MappingEvaluator eval(tolerance);
    for (const auto &rec : file.records) {
        auto it = truth.find(rec.qname);
        if (it == truth.end())
            continue;
        genomics::Read read;
        read.name = rec.qname;
        read.truthPos = it->second.first;
        read.truthReverse = it->second.second;
        genomics::Mapping m;
        if (rec.isMapped()) {
            auto pos = genomics::recordGlobalPos(rec, ref);
            if (pos) {
                m.mapped = true;
                m.pos = *pos;
                m.reverse = rec.isReverse();
            }
        }
        eval.addRead(read, m);
    }
    fillAccuracy(result, eval, seconds);
}

ScenarioResult
runGzipIngest(const ScenarioSpec &spec, const ScenarioOptions &options)
{
    ScenarioResult result;
    if (!util::gzipSupported()) {
        result.skipped = true;
        result.skipReason = "binary built without zlib";
        return result;
    }
    simdata::GenomeParams gp;
    gp.length = scaleGenome(spec.genomeLen, options.scale);
    gp.chromosomes = spec.chromosomes;
    gp.seed = spec.seed;
    Reference ref = simdata::generateGenome(gp);
    simdata::DiploidGenome donor(ref, variantParams(spec));
    simdata::ReadSimulator sim(donor, readSimParams(spec, 2));
    std::vector<ReadPair> pairs =
        sim.simulate(scaleReads(spec.reads, options.scale, 200));

    std::string r1, r2;
    renderFastqPair(pairs, r1, r2);
    // A sprinkle of ambiguous bases keeps the ingest accounting a
    // pinned nonzero number through the inflate path.
    injectAmbiguousBases(r1, 97);

    genpair::SeedMap map = genpair::SeedMap::build(
        ref, genpair::SeedMapParams{}, options.threads);
    genpair::DriverConfig config;
    config.threads = options.threads;
    genpair::ParallelMapper mapper(ref, map, config);

    std::string samPlain, samGz;
    genpair::StreamingResult plainRun, gzRun;
    genomics::IngestError error;
    if (runSpine(mapper, ref, options, r1, r2, samPlain, plainRun,
                 error) != genpair::StreamRunStatus::kOk) {
        result.rejected = true;
        result.rejectDiagnostic = "plain-text run failed: " + error.message;
        return result;
    }
    if (runSpine(mapper, ref, options, util::gzipCompress(r1),
                 util::gzipCompress(r2), samGz, gzRun,
                 error) != genpair::StreamRunStatus::kOk) {
        result.rejected = true;
        result.rejectDiagnostic = "gzip run failed: " + error.message;
        return result;
    }
    result.samMatchesPlain = samGz == samPlain;
    result.stats = gzRun.stats;
    result.ambiguousBases = gzRun.stats.ambiguousBases;
    evaluateSam(samGz, ref, pairs, spec.evalTolerance, result,
                gzRun.mapping.seconds);
    return result;
}

ScenarioResult
runTruncatedIngest(const ScenarioSpec &spec,
                   const ScenarioOptions &options)
{
    ScenarioResult result;
    simdata::GenomeParams gp;
    gp.length = scaleGenome(spec.genomeLen, options.scale);
    gp.chromosomes = spec.chromosomes;
    gp.seed = spec.seed;
    Reference ref = simdata::generateGenome(gp);
    simdata::DiploidGenome donor(ref, variantParams(spec));
    simdata::ReadSimulator sim(donor, readSimParams(spec, 2));
    std::vector<ReadPair> pairs =
        sim.simulate(scaleReads(spec.reads, options.scale, 200));

    std::string r1, r2;
    renderFastqPair(pairs, r1, r2);
    // Cut R2 mid-record: the spine must reject with the serial
    // reader's diagnostic, never crash or emit torn output.
    r2.resize(r2.size() * 3 / 5);

    genpair::SeedMap map = genpair::SeedMap::build(
        ref, genpair::SeedMapParams{}, options.threads);
    genpair::DriverConfig config;
    config.threads = options.threads;
    genpair::ParallelMapper mapper(ref, map, config);

    std::string sam;
    genpair::StreamingResult run;
    genomics::IngestError error;
    genpair::StreamRunStatus status =
        runSpine(mapper, ref, options, r1, r2, sam, run, error);
    result.rejected =
        status == genpair::StreamRunStatus::kParseError && error.set();
    result.rejectDiagnostic = error.message;
    return result;
}

} // namespace

const char *
kindName(ScenarioKind kind)
{
    switch (kind) {
      case ScenarioKind::kShortRead: return "short_read";
      case ScenarioKind::kLongRead: return "long_read";
      case ScenarioKind::kContamination: return "contamination";
      case ScenarioKind::kGzipIngest: return "gzip_ingest";
      case ScenarioKind::kTruncatedIngest: return "truncated_ingest";
    }
    return "unknown";
}

const std::vector<ScenarioSpec> &
scenarioTable()
{
    static const std::vector<ScenarioSpec> kTable = [] {
        std::vector<ScenarioSpec> t;

        {
            // The reference workload: GIAB-like mixture errors, planted
            // variants, full map -> pileup -> VCF -> F1 leg at ~25x.
            ScenarioSpec s;
            s.name = "short_baseline";
            s.kind = ScenarioKind::kShortRead;
            s.note = "2x150 bp, mixture errors, 25x, variant F1 leg";
            s.genomeLen = 200000;
            s.plantVariants = true;
            s.seed = 23;
            t.push_back(std::move(s));
        }
        for (double rate : { 0.05, 0.10, 0.15 }) {
            // The paper's SS7.7 error sweep, pinned at three points.
            ScenarioSpec s;
            s.name = "short_err" +
                     std::to_string(static_cast<int>(rate * 100 + 0.5));
            s.kind = ScenarioKind::kShortRead;
            s.note = "2x150 bp, uniform " +
                     std::to_string(static_cast<int>(rate * 100 + 0.5)) +
                     "% error";
            s.genomeLen = 400000;
            s.errorRate = rate;
            s.reads = 4000;
            s.seed = 37;
            t.push_back(std::move(s));
        }
        {
            // HiFi-like long reads through the parallel LongReadDriver.
            ScenarioSpec s;
            s.name = "long_hifi";
            s.kind = ScenarioKind::kLongRead;
            s.note = "HiFi-like ~9 kb reads at 0.5% error";
            s.genomeLen = 400000;
            s.errorRate = 0.005;
            s.reads = 96;
            s.longMeanLen = 9000;
            s.longSdLen = 2500;
            s.evalTolerance = 200;
            s.seed = 41;
            t.push_back(std::move(s));
        }
        {
            // ONT-like: longer, noisier; Location Voting has to dig
            // the start position out of mostly-dirty segments.
            ScenarioSpec s;
            s.name = "long_ont";
            s.kind = ScenarioKind::kLongRead;
            s.note = "ONT-like ~12 kb reads at 4% error";
            s.genomeLen = 400000;
            s.errorRate = 0.04;
            s.reads = 80;
            s.longMeanLen = 12000;
            s.longSdLen = 4000;
            s.evalTolerance = 300;
            s.seed = 43;
            t.push_back(std::move(s));
        }
        {
            // 10% foreign reads over a 4-shard mmap image: per-species
            // attribution pins the cross-mapping bleed.
            ScenarioSpec s;
            s.name = "contam_mix10";
            s.kind = ScenarioKind::kContamination;
            s.note = "10% contaminant reads, 4-shard mmap image";
            s.genomeLen = 300000;
            s.contaminantGenomeLen = 100000;
            s.contaminantFrac = 0.10;
            s.imageShards = 4;
            s.reads = 3000;
            s.seed = 47;
            t.push_back(std::move(s));
        }
        {
            // Even mix over 8 shards: the stress version.
            ScenarioSpec s;
            s.name = "contam_even";
            s.kind = ScenarioKind::kContamination;
            s.note = "50/50 species mix, 8-shard mmap image";
            s.genomeLen = 200000;
            s.contaminantGenomeLen = 200000;
            s.contaminantFrac = 0.50;
            s.imageShards = 8;
            s.reads = 3000;
            s.seed = 53;
            t.push_back(std::move(s));
        }
        {
            // Gzip end to end: inflate -> chunker -> parsers -> mapper
            // -> SAM must be byte-identical to the plain-text run.
            ScenarioSpec s;
            s.name = "gzip_ingest";
            s.kind = ScenarioKind::kGzipIngest;
            s.note = "gzip FASTQ through the spine, bit-identical SAM";
            s.genomeLen = 200000;
            s.reads = 2500;
            s.seed = 59;
            t.push_back(std::move(s));
        }
        {
            // Mid-record truncation must reject with a diagnostic.
            ScenarioSpec s;
            s.name = "trunc_reject";
            s.kind = ScenarioKind::kTruncatedIngest;
            s.note = "truncated R2 rejects with the serial diagnostic";
            s.genomeLen = 100000;
            s.reads = 400;
            s.seed = 61;
            t.push_back(std::move(s));
        }
        return t;
    }();
    return kTable;
}

const ScenarioSpec *
findScenario(const std::string &name)
{
    for (const auto &spec : scenarioTable())
        if (spec.name == name)
            return &spec;
    return nullptr;
}

ScenarioResult
runScenario(const ScenarioSpec &spec, const ScenarioOptions &options)
{
    ScenarioResult result;
    switch (spec.kind) {
      case ScenarioKind::kShortRead:
        result = runShortRead(spec, options);
        break;
      case ScenarioKind::kLongRead:
        result = runLongRead(spec, options);
        break;
      case ScenarioKind::kContamination:
        result = runContamination(spec, options);
        break;
      case ScenarioKind::kGzipIngest:
        result = runGzipIngest(spec, options);
        break;
      case ScenarioKind::kTruncatedIngest:
        result = runTruncatedIngest(spec, options);
        break;
    }
    result.name = spec.name;
    result.kind = spec.kind;
    if (result.ambiguousBases == 0)
        result.ambiguousBases = result.stats.ambiguousBases;
    return result;
}

void
writeScenariosJson(std::ostream &os,
                   const std::vector<ScenarioResult> &rows, double scale,
                   u32 threads)
{
    os << std::setprecision(10);
    os << "{\n"
       << "  \"bench\": \"scenarios\",\n"
       << "  \"format\": 1,\n"
       << "  \"scale\": " << scale << ",\n"
       << "  \"threads\": " << threads << ",\n"
       << "  \"host_threads\": " << std::thread::hardware_concurrency()
       << ",\n"
       << "  \"scenarios\": [\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const ScenarioResult &r = rows[i];
        os << "    {\"name\": \"" << util::jsonEscape(r.name) << "\","
           << " \"kind\": \"" << kindName(r.kind) << "\",\n"
           << "     \"skipped\": " << (r.skipped ? "true" : "false")
           << ", \"skip_reason\": \"" << util::jsonEscape(r.skipReason)
           << "\",\n"
           << "     \"rejected\": " << (r.rejected ? "true" : "false")
           << ", \"reject_diagnostic\": \""
           << util::jsonEscape(r.rejectDiagnostic) << "\",\n"
           << "     \"reads\": " << r.reads << ", \"mapped\": "
           << r.mapped << ", \"correct\": " << r.correct
           << ", \"accuracy\": " << r.accuracy << ",\n"
           << "     \"snp_f1\": " << r.snpF1 << ", \"indel_f1\": "
           << r.indelF1 << ",\n"
           << "     \"reads_per_s\": " << r.readsPerSec
           << ", \"map_seconds\": " << r.mapSeconds << ",\n"
           << "     \"ambiguous_bases\": " << r.ambiguousBases
           << ", \"shard_count\": " << r.shardCount
           << ", \"sam_matches_plain\": "
           << (r.samMatchesPlain ? "true" : "false") << ",\n"
           << "     \"attribution\": [";
        for (std::size_t a = 0; a < r.attribution.size(); ++a) {
            const eval::RegionAccuracy &region = r.attribution[a];
            os << (a ? ", " : "") << "{\"label\": \""
               << util::jsonEscape(region.label) << "\", \"reads\": "
               << region.readsTotal << ", \"mapped\": " << region.mapped
               << ", \"correct\": " << region.correct
               << ", \"cross_mapped\": " << region.crossMapped
               << ", \"cross_fraction\": " << region.crossFraction()
               << "}";
        }
        os << "],\n"
           << "     \"counters\": {\"light_aligned\": "
           << r.stats.lightAligned
           << ", \"dp_aligned\": " << r.stats.dpAligned
           << ", \"seed_miss_fallback\": " << r.stats.seedMissFallback
           << ", \"pa_filter_fallback\": " << r.stats.paFilterFallback
           << ", \"full_dp_mapped\": " << r.stats.fullDpMapped
           << ", \"unmapped\": " << r.stats.unmapped
           << ", \"pseudo_pairs\": " << r.longStats.pseudoPairs
           << ", \"votes\": " << r.longStats.votes
           << ", \"dp_cells\": " << r.longStats.dpCells << "}}"
           << (i + 1 < rows.size() ? "," : "") << "\n";
    }
    os << "  ]\n}\n";
}

} // namespace scenario
} // namespace gpx
