/**
 * @file
 * The gpx_serve load generator: a closed loop in one process over
 * kConns connections, each sending its next request as soon as the
 * previous reply arrives.
 *
 * --phases lists the phase lengths in seconds, in order, e.g. "1,10"
 * for a warm-up and a timed phase. Request k carries the
 * kPairsPerRequest-pair slice k mod kServeSlices of the FASTQ inputs.
 * A request fails on an ERROR frame, a
 * transport error, or a reply whose pair count or SAM md5 differs
 * from the same slice of the direct gpx_map output (--sam).
 *
 * STATS is fetched before and after every phase; the JSON printed on
 * stdout carries the server-side deltas.
 */

#include <atomic>
#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>
#include <thread>
#include <vector>

#include "pbtool.hh"
#include "serve/client.hh"
#include "util/md5.hh"

namespace perfbench {

using namespace gpx;

namespace {

struct Slice
{
    std::string r1;
    std::string r2;
    std::string md5;
};

enum Outcome : u8
{
    kOk = 0,
    kErrorFrame,
    kTransport,
    kMismatch,
};

struct Sample
{
    Outcome outcome = kOk;
    double rttS = 0; ///< send -> reply
};

/** Server counters the benchmark reports, from one STATS reply. */
struct ServerCounters
{
    bool ok = false;
    double mapSeconds = 0;
    double readerStallSeconds = 0;
    double admissionWaits = 0;
    double shedded = 0;
    double requestsRejected = 0;
};

double
jsonNumber(const std::string &json, const std::string &key)
{
    const std::string pat = "\"" + key + "\": ";
    const std::size_t at = json.find(pat);
    return at == std::string::npos
               ? 0.0
               : std::strtod(json.c_str() + at + pat.size(), nullptr);
}

ServerCounters
fetchCounters(const std::string &socket)
{
    ServerCounters c;
    std::string error, json;
    auto client = serve::ServeClient::connectUnix(socket, &error);
    if (!client || !client->fetchStats(&json).ok)
        return c;
    c.ok = true;
    c.mapSeconds = jsonNumber(json, "map_seconds");
    c.readerStallSeconds = jsonNumber(json, "reader_stall_seconds");
    c.admissionWaits = jsonNumber(json, "admission_waits");
    c.shedded = jsonNumber(json, "shedded");
    c.requestsRejected = jsonNumber(json, "requests_rejected");
    return c;
}

/** The first @p max records of a text file, @p lines lines each,
 *  skipping lines that start with @p skip (0 for none). */
std::vector<std::string>
readRecords(const std::string &path, u64 max, u64 lines, char skip)
{
    std::ifstream is(path);
    if (!is)
        die("cannot open " + path);
    std::vector<std::string> records;
    std::string line, record;
    u64 n = 0;
    while (records.size() < max && std::getline(is, line)) {
        if (skip && !line.empty() && line[0] == skip)
            continue;
        record += line;
        record += '\n';
        if (++n % lines == 0) {
            records.push_back(std::move(record));
            record.clear();
        }
    }
    return records;
}

std::vector<Slice>
loadSlices(const Args &args)
{
    const u64 max = kServeSlices * kPairsPerRequest;
    const auto r1 = readRecords(args.str("r1"), max, 4, 0);
    const auto r2 = readRecords(args.str("r2"), max, 4, 0);
    // Two SAM records per pair; the header is not part of a reply.
    const auto sam = readRecords(args.str("sam"), max, 2, '@');
    if (r1.size() != r2.size() || sam.size() != r1.size())
        die("FASTQ mates and SAM disagree in pair count");
    std::vector<Slice> slices(r1.size() / kPairsPerRequest);
    for (std::size_t s = 0; s < slices.size(); ++s) {
        std::string samText;
        for (u64 k = 0; k < kPairsPerRequest; ++k) {
            slices[s].r1 += r1[s * kPairsPerRequest + k];
            slices[s].r2 += r2[s * kPairsPerRequest + k];
            samText += sam[s * kPairsPerRequest + k];
        }
        slices[s].md5 = util::md5Hex(samText);
    }
    if (slices.empty())
        die("input holds less than one request");
    return slices;
}

struct Load
{
    std::string socket;
    std::vector<Slice> slices;
    std::vector<std::optional<serve::ServeClient>> clients;
};

/** Send one request on connection @p conn and classify the reply. */
Sample
sendOne(Load &load, std::size_t conn, u64 k)
{
    Sample s;
    const i64 sendNs = nowNs();
    auto &client = load.clients[conn];
    std::string error;
    if (!client)
        client = serve::ServeClient::connectUnix(load.socket, &error);
    if (!client) {
        s.outcome = kTransport;
    } else {
        const Slice &slice = load.slices[k % load.slices.size()];
        serve::MapReplyBody reply;
        const serve::ClientStatus status =
            client->mapBatch("", slice.r1, slice.r2, false, &reply);
        if (!status.ok)
            s.outcome = status.errorFrame ? kErrorFrame : kTransport;
        else if (reply.pairCount != kPairsPerRequest ||
                 util::md5Hex(reply.sam) != slice.md5)
            s.outcome = kMismatch;
        if (!status.ok)
            client.reset(); // reconnect before the next request
    }
    s.rttS = static_cast<double>(nowNs() - sendNs) / 1e9;
    return s;
}

struct PhaseResult
{
    std::vector<Sample> samples;
    double wallS = 0;
};

PhaseResult
runPhase(Load &load, double seconds)
{
    const i64 start = nowNs();
    const i64 deadline = start + static_cast<i64>(seconds * 1e9);
    std::atomic<u64> next{ 0 };
    std::vector<std::vector<Sample>> perConn(kConns);
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < kConns; ++c) {
        threads.emplace_back([&, c]() {
            while (nowNs() < deadline) {
                perConn[c].push_back(sendOne(load, c, next.fetch_add(1)));
                // A dead server fails the phase once per connection
                // instead of spinning until the deadline.
                if (perConn[c].back().outcome == kTransport &&
                    !load.clients[c])
                    break;
            }
        });
    }
    for (auto &t : threads)
        t.join();

    PhaseResult r;
    r.wallS = static_cast<double>(nowNs() - start) / 1e9;
    for (const auto &samples : perConn)
        r.samples.insert(r.samples.end(), samples.begin(), samples.end());
    return r;
}

std::string
phaseJson(const PhaseResult &r, const ServerCounters &before,
          const ServerCounters &after)
{
    u64 counts[4] = { 0, 0, 0, 0 };
    double rttSum = 0;
    for (const Sample &s : r.samples) {
        ++counts[s.outcome];
        if (s.outcome == kOk)
            rttSum += s.rttS;
    }
    std::ostringstream os;
    os.precision(9);
    os << "{\"attempted\": " << r.samples.size()
       << ", \"ok\": " << counts[kOk]
       << ", \"error_frame\": " << counts[kErrorFrame]
       << ", \"transport\": " << counts[kTransport]
       << ", \"mismatch\": " << counts[kMismatch]
       << ", \"wall_s\": " << r.wallS << ", \"rtt_sum_s\": " << rttSum
       << ", \"stats_ok\": " << (before.ok && after.ok ? "true" : "false")
       << ", \"map_s\": " << after.mapSeconds - before.mapSeconds
       << ", \"reader_stall_s\": "
       << after.readerStallSeconds - before.readerStallSeconds
       << ", \"admission_waits\": "
       << after.admissionWaits - before.admissionWaits
       << ", \"shedded\": " << after.shedded - before.shedded
       << ", \"requests_rejected\": "
       << after.requestsRejected - before.requestsRejected << "}";
    return os.str();
}

} // namespace

int
loadMain(const Args &args)
{
    Load load;
    load.socket = args.str("socket");
    load.slices = loadSlices(args);
    load.clients.resize(kConns);

    std::vector<std::string> phases;
    std::istringstream list(args.str("phases"));
    std::string entry;
    while (std::getline(list, entry, ',')) {
        const double seconds = std::strtod(entry.c_str(), nullptr);
        if (seconds <= 0)
            die("--phases lists seconds per phase, got " + entry);
        const ServerCounters before = fetchCounters(load.socket);
        const PhaseResult res = runPhase(load, seconds);
        phases.push_back(
            phaseJson(res, before, fetchCounters(load.socket)));
    }

    std::printf("{\"slices\": %zu, \"phases\": [", load.slices.size());
    for (std::size_t i = 0; i < phases.size(); ++i)
        std::printf("%s%s\n", i ? ", " : "", phases[i].c_str());
    std::printf("]}\n");
    return 0;
}

} // namespace perfbench
