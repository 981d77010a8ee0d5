/**
 * @file
 * Small pbtool subcommands: SAM accuracy against the simulator's truth
 * table (eval), the hwsim replay of a recorded stage trace (hwsim) and
 * the wait for a spawned gpx_serve's first HELLO (hello).
 */

#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>
#include <unordered_map>

#include "eval/mapping_eval.hh"
#include "genomics/fasta.hh"
#include "genomics/sam_reader.hh"
#include "hwsim/nmsl.hh"
#include "hwsim/pipeline_model.hh"
#include "hwsim/trace_adapter.hh"
#include "pbtool.hh"
#include "serve/client.hh"

namespace perfbench {

using namespace gpx;

namespace {

struct Truth
{
    GlobalPos pos;
    bool reverse;
};

std::unordered_map<std::string, Truth>
loadTruth(const std::string &path)
{
    std::ifstream is(path);
    if (!is)
        die("cannot open truth table " + path);
    std::unordered_map<std::string, Truth> truth;
    std::string line;
    std::getline(is, line); // header
    while (std::getline(is, line)) {
        const std::size_t t1 = line.find('\t');
        const std::size_t t2 = line.find('\t', t1 + 1);
        if (t1 == std::string::npos || t2 == std::string::npos)
            die("malformed truth line: " + line);
        truth[line.substr(0, t1)] = {
            std::strtoull(line.c_str() + t1 + 1, nullptr, 10),
            line.compare(t2 + 1, std::string::npos, "1") == 0
        };
    }
    return truth;
}

} // namespace

/**
 * Score every SAM record with eval::MappingEvaluator (right strand,
 * within kToleranceBp of the truth origin). The SAM is parsed in
 * slices of lines so memory stays bounded on large outputs.
 */
int
evalMain(const Args &args)
{
    std::ifstream refFile(args.str("ref"));
    if (!refFile)
        die("cannot open reference " + args.str("ref"));
    const genomics::Reference ref = genomics::readFasta(refFile);
    const auto truth = loadTruth(args.str("truth"));
    std::ifstream samFile(args.str("sam"));
    if (!samFile)
        die("cannot open SAM " + args.str("sam"));

    eval::MappingEvaluator evaluator(kToleranceBp);
    u64 unknown = 0, bad = 0;
    auto score = [&](const std::string &text) {
        std::istringstream is(text);
        const genomics::SamFile part = genomics::readSam(is);
        bad += part.badLines.size();
        for (const genomics::SamRecord &r : part.records) {
            auto it = truth.find(r.qname);
            if (it == truth.end())
                it = truth.find(r.qname +
                                (r.isSecondInPair() ? "/2" : "/1"));
            if (it == truth.end()) {
                ++unknown;
                continue;
            }
            genomics::Read read;
            read.truthPos = it->second.pos;
            read.truthReverse = it->second.reverse;
            genomics::Mapping m;
            if (auto pos = genomics::recordGlobalPos(r, ref)) {
                m.mapped = true;
                m.pos = *pos;
                m.reverse = r.isReverse();
            }
            evaluator.addRead(read, m);
        }
    };

    std::string text, line;
    u64 lines = 0;
    while (std::getline(samFile, line)) {
        text += line;
        text += '\n';
        if (++lines % 65536 == 0) {
            score(text);
            text.clear();
        }
    }
    score(text);

    const eval::MappingAccuracy &acc = evaluator.result();
    std::printf("{\"records\": %llu, \"mapped\": %llu, \"correct\": %llu, "
                "\"unknown\": %llu, \"bad_lines\": %llu, "
                "\"truth_reads\": %zu}\n",
                static_cast<unsigned long long>(acc.readsTotal),
                static_cast<unsigned long long>(acc.mapped),
                static_cast<unsigned long long>(acc.correct),
                static_cast<unsigned long long>(unknown),
                static_cast<unsigned long long>(bad), truth.size());
    return 0;
}

/**
 * Replay a gpx-stage-trace (gpx_map --trace) through the NMSL model and
 * the pipeline calculator: simulated throughput of the modelled
 * accelerator, not a measurement of silicon.
 */
int
hwsimMain(const Args &args)
{
    std::ifstream is(args.str("trace"));
    if (!is)
        die("cannot open stage trace " + args.str("trace"));
    hwsim::RecordedRun run;
    std::string error;
    if (!hwsim::loadRecordedRun(is, &run, &error))
        die("stage trace rejected: " + error);
    const hwsim::NmslConfig cfg = run.nmslConfig();
    const hwsim::NmslResult nmsl = hwsim::NmslSim(cfg).run(run.traces);
    const hwsim::WorkloadProfile profile = run.profile();
    const hwsim::PipelineModel model;
    const hwsim::PipelineDesign design = model.design(nmsl, cfg, profile);
    const double mpairs = model.throughputUnder(design, profile);
    std::printf("{\"pairs\": %llu, \"sim_mbp_per_s\": %.6f, "
                "\"nmsl_mpairs_per_s\": %.6f}\n",
                static_cast<unsigned long long>(nmsl.pairs),
                mpairs * 2.0 * design.readLen, nmsl.mpairsPerSec);
    return 0;
}

/** Poll --socket until gpx_serve answers HELLO. */
int
helloMain(const Args &args)
{
    const i64 deadline = nowNs() + static_cast<i64>(kHelloTimeoutS * 1e9);
    std::string error;
    while (nowNs() < deadline) {
        if (serve::ServeClient::connectUnix(args.str("socket"), &error))
            return 0;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    die("no HELLO from " + args.str("socket") + ": " + error);
}

} // namespace perfbench
