/**
 * @file
 * pbtool: the benchmark's helper binary. It drives the gpx library
 * from outside (no code under src/ or tools/ is changed) and has one
 * subcommand per job the harness (perfbench/run.py) cannot do from
 * Python:
 *
 *   trace  — the traced map run: the calls gpx_map makes, each under
 *            a span, with the spans dumped when the run ends
 *   load   — the gpx_serve closed-loop load generator
 *   hello  — wait for a freshly spawned gpx_serve to answer HELLO
 *   eval   — SAM against the simulator's truth table
 *   hwsim  — replay a gpx-stage-trace through the hardware models
 */

#ifndef PERFBENCH_PBTOOL_HH
#define PERFBENCH_PBTOOL_HH

#include <chrono>
#include <cstddef>
#include <map>
#include <string>

#include "util/types.hh"

namespace perfbench {

/** Mapping threads of the traced run, as run.py passes to gpx_map. */
constexpr gpx::u32 kThreads = 4;
/** Pairs per ingest chunk: gpx_map's default, so the spines overlap
 *  alike. */
constexpr gpx::u64 kChunkPairs = 65536;
/** A read is placed correctly within this many bp of its truth. */
constexpr gpx::u64 kToleranceBp = 20;
/** Read pairs in one gpx_serve request. */
constexpr gpx::u64 kPairsPerRequest = 256;
/** Client connections to gpx_serve. */
constexpr std::size_t kConns = 2;
/** Serve requests cycle through the first kServeSlices request-sized
 *  slices of the inputs. */
constexpr gpx::u64 kServeSlices = 64;
/** How long to wait for a spawned gpx_serve to answer HELLO. */
constexpr double kHelloTimeoutS = 60;

/** `--key value` arguments of one subcommand. */
class Args
{
  public:
    Args(int argc, char **argv, int first);

    /** Value of @p key; exits with a usage error when missing. */
    const std::string &str(const std::string &key) const;

  private:
    std::map<std::string, std::string> values_;
};

/** steady_clock (CLOCK_MONOTONIC) in nanoseconds. */
inline gpx::i64
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Print @p msg to stderr and exit with status 2. */
[[noreturn]] void die(const std::string &msg);

int traceMain(const Args &args);
int loadMain(const Args &args);
int helloMain(const Args &args);
int evalMain(const Args &args);
int hwsimMain(const Args &args);

} // namespace perfbench

#endif // PERFBENCH_PBTOOL_HH
