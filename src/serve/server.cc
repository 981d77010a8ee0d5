#include "serve/server.hh"

#include <algorithm>
#include <sstream>
#include <sys/socket.h>
#include <utility>

#include "genomics/fasta.hh"
#include "genomics/sam.hh"
#include "util/json.hh"
#include "util/logging.hh"
#include "util/simd.hh"

namespace gpx {
namespace serve {

// --- AdmissionGate ---------------------------------------------------

ServeServer::AdmissionGate::Outcome
ServeServer::AdmissionGate::acquireFor(u32 timeout_ms, bool *waited,
                                       const std::atomic<bool> &draining)
{
    std::unique_lock<std::mutex> lock(mu_);
    if (waited != nullptr)
        *waited = inFlight_ >= slots_;
    auto freeOrDraining = [&] {
        return inFlight_ < slots_ ||
               draining.load(std::memory_order_relaxed);
    };
    if (timeout_ms == 0) {
        // Unbounded wait: backpressure propagates through TCP (the
        // pre-shedding discipline, still the default).
        freed_.wait(lock, freeOrDraining);
    } else if (!freed_.wait_for(lock,
                                std::chrono::milliseconds(timeout_ms),
                                freeOrDraining)) {
        return Outcome::kTimedOut;
    }
    if (draining.load(std::memory_order_relaxed))
        return Outcome::kDraining;
    ++inFlight_;
    return Outcome::kAcquired;
}

void
ServeServer::AdmissionGate::release()
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        gpx_assert(inFlight_ > 0, "admission release without acquire");
        --inFlight_;
    }
    freed_.notify_one();
}

void
ServeServer::AdmissionGate::wakeAll()
{
    freed_.notify_all();
}

// --- ServeServer -----------------------------------------------------

std::shared_ptr<ServeServer::MountEpoch>
ServeServer::buildEpoch(
    const genomics::Reference &ref, const genpair::SeedMapView &view,
    std::shared_ptr<const baseline::MinimizerIndex> fallback) const
{
    auto epoch = std::make_shared<MountEpoch>();
    genpair::DriverConfig driver = config_.driver;
    driver.threads = config_.threads;
    driver.fallbackIndex = std::move(fallback);
    epoch->mapper =
        std::make_unique<genpair::ParallelMapper>(ref, view, driver);
    epoch->spine = std::make_unique<genpair::StreamingMapper>(
        *epoch->mapper, config_.chunkPairs, config_.ioThreads);
    return epoch;
}

ServeServer::ServeServer(std::vector<MountSpec> mounts,
                         const ServeConfig &config)
    : config_(config), gate_(config.admissionSlots)
{
    gpx_assert(!mounts.empty(), "ServeServer needs at least one mount");
    mounts_.reserve(mounts.size());
    for (auto &spec : mounts) {
        gpx_assert(spec.ref != nullptr, "mount needs a reference");
        Mount m;
        m.name = spec.name;
        m.ref = spec.ref;
        m.indexPath = spec.indexPath;
        m.epoch = buildEpoch(*spec.ref, spec.view, spec.fallbackIndex);
        // The SAM header is a pure function of the mount's reference;
        // render it once so every HEADER request is a memcpy.
        std::ostringstream os;
        genomics::SamWriter sam(os, *spec.ref);
        sam.writeHeader();
        m.samHeader = os.str();
        mounts_.push_back(std::move(m));
    }
    for (std::size_t i = 0; i < mounts_.size(); ++i)
        for (std::size_t j = i + 1; j < mounts_.size(); ++j)
            gpx_assert(mounts_[i].name != mounts_[j].name,
                       "duplicate mount name: ", mounts_[i].name);
}

ServeServer::~ServeServer()
{
    requestShutdown();
    waitUntilDrained();
}

bool
ServeServer::start(std::string *error)
{
    gpx_assert(!started_, "ServeServer::start called twice");
    std::optional<util::Socket> listener;
    if (!config_.socketPath.empty())
        listener = util::listenUnix(config_.socketPath, error);
    else
        listener = util::listenTcp(config_.port, error, &boundPort_);
    if (!listener)
        return false;
    listener_ = std::move(*listener);
    started_ = true;
    acceptThread_ = std::thread([this]() { acceptLoop(); });
    return true;
}

void
ServeServer::waitUntilDrained()
{
    if (!started_)
        return;
    if (acceptThread_.joinable())
        acceptThread_.join();
    std::vector<std::thread> handlers;
    {
        std::unique_lock<std::mutex> lock(connMu_);
        connDone_.wait(lock, [&] { return liveConnections_ == 0; });
        handlers.swap(connThreads_);
    }
    for (auto &t : handlers)
        t.join();
}

void
ServeServer::requestShutdown()
{
    draining_.store(true, std::memory_order_relaxed);
    // Wake the accept loop (accept() fails once the listener is shut
    // down) and every idle connection (blocked reads return EOF).
    listener_.shutdownBoth();
    gate_.wakeAll();
    std::lock_guard<std::mutex> lock(connMu_);
    for (int fd : liveFds_)
        ::shutdown(fd, SHUT_RD);
}

ServeCounters
ServeServer::counters() const
{
    std::lock_guard<std::mutex> lock(statsMu_);
    return counters_;
}

std::vector<std::string>
ServeServer::mountNames() const
{
    std::vector<std::string> names;
    names.reserve(mounts_.size());
    for (const auto &m : mounts_)
        names.push_back(m.name);
    return names;
}

std::string
ServeServer::statsJson() const
{
    std::lock_guard<std::mutex> lock(statsMu_);
    std::ostringstream os;
    os << "{\n\"server\": {\n"
       << "  \"simd\": {\"backend\": \""
       << util::simdBackendName(util::activeSimdBackend())
       << "\", \"reason\": \""
       << util::jsonEscape(util::simdBackendReason()) << "\"},\n"
       << "  \"connections_accepted\": "
       << counters_.connectionsAccepted << ",\n"
       << "  \"requests_served\": " << counters_.requestsServed << ",\n"
       << "  \"requests_rejected\": " << counters_.requestsRejected
       << ",\n"
       << "  \"pairs_mapped\": " << counters_.pairsMapped << ",\n"
       << "  \"sam_bytes_sent\": " << counters_.samBytesSent << ",\n"
       << "  \"admission_waits\": " << counters_.admissionWaits << ",\n"
       << "  \"shedded\": " << counters_.shedded << ",\n"
       << "  \"deadline_expired\": " << counters_.deadlineExpired
       << ",\n"
       << "  \"idle_closed\": " << counters_.idleClosed << ",\n"
       << "  \"io_faults\": " << counters_.ioFaults << ",\n"
       << "  \"index_swaps\": " << counters_.indexSwaps << ",\n"
       << "  \"swaps_rejected\": " << counters_.swapsRejected << ",\n"
       << "  \"map_seconds\": " << counters_.mapSeconds << ",\n"
       << "  \"reader_stall_seconds\": " << counters_.readerStallSeconds
       << ",\n"
       << "  \"writer_stall_seconds\": " << counters_.writerStallSeconds
       << "\n},\n"
       << "\"mounts\": {\n";
    for (std::size_t i = 0; i < mounts_.size(); ++i) {
        os << "\"" << util::jsonEscape(mounts_[i].name) << "\": ";
        mounts_[i].stats.writeJson(os);
        if (i + 1 < mounts_.size())
            os << ",";
        os << "\n";
    }
    os << "}\n}\n";
    return os.str();
}

void
ServeServer::acceptLoop()
{
    for (;;) {
        auto conn = util::acceptOne(listener_, nullptr);
        if (!conn) {
            if (draining_.load(std::memory_order_relaxed))
                return;
            // Transient accept failure (e.g. the peer aborted inside
            // the backlog); keep serving.
            continue;
        }
        std::lock_guard<std::mutex> lock(connMu_);
        if (draining_.load(std::memory_order_relaxed))
            return; // drop the late arrival; its socket closes here
        ++liveConnections_;
        util::Socket sock = std::move(*conn);
        connThreads_.emplace_back(
            [this, s = std::move(sock)]() mutable {
                handleConnection(std::move(s));
            });
        {
            std::lock_guard<std::mutex> slock(statsMu_);
            ++counters_.connectionsAccepted;
        }
    }
}

ServeServer::Mount *
ServeServer::findMount(const std::string &refName)
{
    if (refName.empty())
        return mounts_.size() == 1 ? &mounts_[0] : nullptr;
    for (auto &m : mounts_)
        if (m.name == refName)
            return &m;
    return nullptr;
}

std::shared_ptr<ServeServer::MountEpoch>
ServeServer::currentEpoch(Mount *mount) const
{
    std::lock_guard<std::mutex> lock(epochMu_);
    return mount->epoch;
}

bool
ServeServer::refreshMount(const std::string &ref_name,
                          std::string *error)
{
    auto fail = [&](const std::string &msg) {
        if (error != nullptr)
            *error = msg;
        std::lock_guard<std::mutex> lock(statsMu_);
        ++counters_.swapsRejected;
        return false;
    };
    Mount *mount = findMount(ref_name);
    if (mount == nullptr)
        return fail("no mount named '" + ref_name + "'");
    if (mount->indexPath.empty())
        return fail("mount '" + mount->name +
                    "' is not backed by an image file (built in "
                    "memory); nothing to refresh");

    // Validate the candidate end to end — open, checksum every
    // section, structural checks, the reference fingerprint, all
    // SIGBUS-guarded — *before* anything is published. A corrupt,
    // truncated or foreign candidate leaves the serving epoch
    // untouched.
    genpair::SeedMapOpenOptions options;
    options.reference = mount->ref;
    std::string openError;
    auto image =
        genpair::SeedMapImage::open(mount->indexPath, options, &openError);
    if (!image)
        return fail("refresh of '" + mount->name + "' rejected: " +
                    openError);

    auto epoch =
        buildEpoch(*mount->ref, image->view(), image->fallbackIndex());
    epoch->image = std::move(*image);

    {
        std::lock_guard<std::mutex> lock(epochMu_);
        epoch->epochId = mount->epoch->epochId + 1;
        // Atomic publish: new requests pin the new epoch; requests
        // already in flight finish on the epoch they pinned, and the
        // old image unmaps when the last of them releases its pin.
        mount->epoch = std::move(epoch);
    }
    {
        std::lock_guard<std::mutex> lock(statsMu_);
        ++counters_.indexSwaps;
    }
    return true;
}

u32
ServeServer::refreshAllMounts()
{
    u32 swapped = 0;
    for (auto &m : mounts_) {
        if (m.indexPath.empty())
            continue;
        std::string error;
        if (refreshMount(m.name, &error))
            ++swapped;
        else
            gpx_warn("mount '", m.name, "': ", error);
    }
    return swapped;
}

bool
ServeServer::sendError(const util::Socket &sock, u32 request_id,
                       u16 code, const std::string &message,
                       u32 retry_after_ms)
{
    ErrorBody body;
    body.requestId = request_id;
    body.code = code;
    body.message = message;
    body.retryAfterMs = retry_after_ms;
    return writeFrame(sock, kErrorReply, encodeError(body));
}

bool
ServeServer::handleMapRequest(const util::Socket &sock,
                              const std::vector<u8> &payload)
{
    MapRequestBody req;
    if (!decodeMapRequest(payload, &req)) {
        std::lock_guard<std::mutex> lock(statsMu_);
        ++counters_.requestsRejected;
        sendError(sock, 0, kErrBadFrame, "undecodable MAP request");
        return false;
    }
    auto reject = [&](u16 code, const std::string &msg, bool keep) {
        {
            std::lock_guard<std::mutex> lock(statsMu_);
            ++counters_.requestsRejected;
        }
        return sendError(sock, req.requestId, code, msg) && keep;
    };

    Mount *mount = findMount(req.refName);
    if (mount == nullptr)
        return reject(kErrUnknownReference,
                      "no mount named '" + req.refName + "'", true);

    // The request rides the mount's streaming spine (the same code
    // path as gpx_map): chunked parallel ingest — plain or gzip —
    // through the borrowed pool, emission input-ordered into the
    // reply buffer. tryRun's recoverable discipline means a malformed
    // batch rejects this one request with a diagnostic error frame;
    // the daemon and the connection both survive (the batch tools'
    // fatal discipline would take every other client down with the
    // bad request).
    bool waited = false;
    switch (gate_.acquireFor(config_.queueTimeoutMs, &waited,
                             draining_)) {
    case AdmissionGate::Outcome::kDraining:
        return reject(kErrDraining, "server is draining", false);
    case AdmissionGate::Outcome::kTimedOut: {
        // Shed instead of queueing forever: the client gets explicit
        // load feedback plus a backoff hint, and its connection stays
        // usable for the retry.
        {
            std::lock_guard<std::mutex> lock(statsMu_);
            ++counters_.requestsRejected;
            ++counters_.shedded;
        }
        return sendError(sock, req.requestId, kErrOverloaded,
                         "admission queue full for " +
                             std::to_string(config_.queueTimeoutMs) +
                             " ms",
                         config_.retryAfterMs);
    }
    case AdmissionGate::Outcome::kAcquired:
        break;
    }

    // Chaos hook: delay rules model a slow mapping stage (the way
    // tests fill the admission gate deterministically); failure rules
    // model a mid-request server-side fault.
    if (util::checkFault("serve.map")) {
        gate_.release();
        {
            std::lock_guard<std::mutex> lock(statsMu_);
            ++counters_.ioFaults;
        }
        return reject(kErrIoFault, "injected server fault (serve.map)",
                      true);
    }

    // Pin this request's epoch: a concurrent REFRESH swaps the mount
    // pointer, not the epoch we hold, so the image under our feet
    // cannot unmap mid-request.
    std::shared_ptr<MountEpoch> epoch = currentEpoch(mount);

    std::istringstream r1(req.r1Fastq);
    std::istringstream r2(req.r2Fastq);
    std::ostringstream samOs;
    // SAM records only — the header is a per-mount constant served by
    // the HEADER frame, so batch responses concatenate cleanly.
    genomics::SamWriter sam(samOs, *mount->ref);
    // Non-fatal write checking: an emission fault (injected ENOSPC,
    // allocation-backed stream failure) fails this request with a
    // diagnostic; the daemon and connection survive.
    sam.checkWrites("reply buffer of request " +
                        std::to_string(req.requestId),
                    /*fatal_on_error=*/false);
    genpair::StreamingResult result;
    genomics::IngestError ingestError;
    const genpair::StreamRunStatus status =
        epoch->spine->tryRun(r1, r2, sam, result, &ingestError,
                             config_.maxPairsPerRequest);
    gate_.release();

    switch (status) {
    case genpair::StreamRunStatus::kParseError: {
        const char *side = ingestError.rank == 0   ? "R1: "
                           : ingestError.rank == 1 ? "R2: "
                                                   : "";
        return reject(kErrBadFastq, side + ingestError.message, true);
    }
    case genpair::StreamRunStatus::kTooLarge:
        return reject(kErrTooLarge, ingestError.message, false);
    case genpair::StreamRunStatus::kWriteError:
        {
            std::lock_guard<std::mutex> lock(statsMu_);
            ++counters_.ioFaults;
        }
        return reject(kErrIoFault, ingestError.message, true);
    case genpair::StreamRunStatus::kOk:
        break;
    }

    MapReplyBody reply;
    reply.requestId = req.requestId;
    reply.pairCount = static_cast<u32>(result.pairs);
    reply.sam = samOs.str();
    if (req.flags & kMapWantStats) {
        std::ostringstream statsOs;
        result.stats.writeJson(statsOs);
        reply.statsJson = statsOs.str();
    }

    {
        std::lock_guard<std::mutex> lock(statsMu_);
        mount->stats += result.stats;
        ++counters_.requestsServed;
        counters_.pairsMapped += result.pairs;
        counters_.samBytesSent += reply.sam.size();
        counters_.admissionWaits += waited ? 1 : 0;
        counters_.mapSeconds += result.mapping.seconds;
        counters_.readerStallSeconds += result.stats.readerStallSeconds;
        counters_.writerStallSeconds += result.stats.writerStallSeconds;
    }
    if (!writeFrame(sock, kMapReply, encodeMapReply(reply))) {
        // Peer died (or stalled past SO_SNDTIMEO) mid-reply; only this
        // connection is affected.
        std::lock_guard<std::mutex> lock(statsMu_);
        ++counters_.ioFaults;
        return false;
    }
    return true;
}

void
ServeServer::handleConnection(util::Socket sock)
{
    bool lateArrival = false;
    {
        std::lock_guard<std::mutex> lock(connMu_);
        liveFds_.push_back(sock.fd());
        // If shutdown raced ahead of this registration, its fd
        // broadcast missed us; the flag check under the same lock
        // closes that window (a registered fd always gets woken).
        lateArrival = draining_.load(std::memory_order_relaxed);
    }

    // Scope guard: deregister the fd *before* the socket closes so the
    // shutdown broadcast can never touch a recycled descriptor.
    struct Deregister
    {
        ServeServer *server;
        int fd;
        ~Deregister()
        {
            std::lock_guard<std::mutex> lock(server->connMu_);
            auto &fds = server->liveFds_;
            fds.erase(std::find(fds.begin(), fds.end(), fd));
            --server->liveConnections_;
            server->connDone_.notify_all();
        }
    } deregister{ this, sock.fd() };

    if (lateArrival)
        return;

    // Per-connection deadlines. Reads get the precise treatment (poll
    // with a monotonic per-frame budget via readFrame); writes get the
    // SO_SNDTIMEO backstop so a peer that stops draining its receive
    // buffer fails the reply instead of pinning this thread.
    FrameTimeouts timeouts;
    if (config_.idleTimeoutMs > 0)
        timeouts.idleMs = config_.idleTimeoutMs;
    if (config_.connTimeoutMs > 0) {
        timeouts.frameMs = config_.connTimeoutMs;
        sock.setSendTimeout(config_.connTimeoutMs);
    }
    auto closeForDeadline = [&](bool idle) {
        {
            std::lock_guard<std::mutex> lock(statsMu_);
            ++(idle ? counters_.idleClosed : counters_.deadlineExpired);
        }
        // Best-effort courtesy frame; the peer may of course be gone.
        sendError(sock, 0, kErrDeadline,
                  idle ? "idle timeout: no frame received"
                       : "read deadline expired mid-frame");
    };

    // HELLO handshake: the client leads with magic + version.
    Frame frame;
    switch (readFrame(sock, &frame, config_.maxFrameBytes, timeouts)) {
    case FrameRead::kFrame:
        break;
    case FrameRead::kIdleTimeout:
        closeForDeadline(/*idle=*/true);
        return;
    case FrameRead::kTimeout:
        closeForDeadline(/*idle=*/false);
        return;
    default:
        sendError(sock, 0, kErrBadFrame, "expected HELLO");
        return;
    }
    if (frame.type != kHelloRequest) {
        sendError(sock, 0, kErrBadFrame, "expected HELLO");
        return;
    }
    HelloBody hello;
    if (!decodeHello(frame.payload, &hello) ||
        hello.magic != kProtoMagic) {
        sendError(sock, 0, kErrBadMagic, "bad protocol magic");
        return;
    }
    if (hello.version != kProtoVersion) {
        sendError(sock, 0, kErrBadVersion,
                  "unsupported protocol version " +
                      std::to_string(hello.version) + " (server speaks " +
                      std::to_string(kProtoVersion) + ")");
        return;
    }
    HelloBody reply;
    reply.mounts = mountNames();
    if (!writeFrame(sock, kHelloReply, encodeHello(reply)))
        return;

    for (;;) {
        switch (readFrame(sock, &frame, config_.maxFrameBytes,
                          timeouts)) {
        case FrameRead::kFrame:
            break;
        case FrameRead::kTooLarge:
            sendError(sock, 0, kErrTooLarge, "frame exceeds limit");
            return;
        case FrameRead::kIdleTimeout:
            // The idle reaper: an abandoned connection gives its
            // handler thread back instead of holding it forever.
            closeForDeadline(/*idle=*/true);
            return;
        case FrameRead::kTimeout:
            // Slow-loris defense: a frame that dribbles past the
            // budget closes with a clean diagnostic.
            closeForDeadline(/*idle=*/false);
            return;
        case FrameRead::kEof:
        case FrameRead::kError:
            return;
        }
        if (draining_.load(std::memory_order_relaxed)) {
            sendError(sock, 0, kErrDraining, "server is draining");
            return;
        }
        switch (frame.type) {
        case kMapRequest:
            if (!handleMapRequest(sock, frame.payload))
                return;
            break;
        case kHeaderRequest: {
            PayloadReader r(frame.payload);
            std::string refName = r.takeString16();
            Mount *mount = r.done() ? findMount(refName) : nullptr;
            if (mount == nullptr) {
                if (!sendError(sock, 0, kErrUnknownReference,
                               "no mount named '" + refName + "'"))
                    return;
                break;
            }
            if (!writeBlobFrame(sock, kHeaderReply, mount->samHeader))
                return;
            break;
        }
        case kStatsRequest:
            if (!writeBlobFrame(sock, kStatsReply, statsJson()))
                return;
            break;
        case kRefreshRequest: {
            PayloadReader r(frame.payload);
            std::string refName = r.takeString16();
            if (!r.done()) {
                sendError(sock, 0, kErrBadFrame,
                          "undecodable REFRESH request");
                return;
            }
            std::string refreshError;
            if (!refreshMount(refName, &refreshError)) {
                // Request-scoped: the old epoch keeps serving and the
                // connection stays usable.
                if (!sendError(sock, 0, kErrRefreshFailed,
                               refreshError))
                    return;
                break;
            }
            std::vector<u8> payload;
            putString16(payload, refName);
            if (!writeFrame(sock, kRefreshReply, payload))
                return;
            break;
        }
        case kShutdownRequest:
            writeFrame(sock, kShutdownReply, {});
            requestShutdown();
            return;
        default:
            sendError(sock, 0, kErrBadFrame,
                      "unknown frame type " +
                          std::to_string(frame.type));
            return;
        }
    }
}

} // namespace serve
} // namespace gpx
