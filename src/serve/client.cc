#include "serve/client.hh"

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>

namespace gpx {
namespace serve {

std::string
ClientStatus::describe() const
{
    if (ok)
        return {};
    if (errorFrame.has_value())
        return "server error " + std::to_string(errorFrame->code) +
               ": " + errorFrame->message;
    return "transport error: " + transportError;
}

std::optional<ServeClient>
ServeClient::connectUnix(const std::string &path, std::string *error)
{
    auto sock = util::connectUnix(path, error);
    if (!sock)
        return std::nullopt;
    ServeClient client(std::move(*sock));
    if (!client.helloExchange(error))
        return std::nullopt;
    return client;
}

std::optional<ServeClient>
ServeClient::connectTcp(const std::string &host, u16 port,
                        std::string *error)
{
    auto sock = util::connectTcp(host, port, error);
    if (!sock)
        return std::nullopt;
    ServeClient client(std::move(*sock));
    if (!client.helloExchange(error))
        return std::nullopt;
    return client;
}

bool
ServeClient::helloExchange(std::string *error)
{
    auto fail = [&](const std::string &msg) {
        if (error != nullptr)
            *error = msg;
        return false;
    };
    if (!writeFrame(sock_, kHelloRequest, encodeHello(HelloBody{})))
        return fail("HELLO send failed");
    Frame frame;
    if (readFrame(sock_, &frame) != FrameRead::kFrame)
        return fail("HELLO reply read failed");
    if (frame.type == kErrorReply) {
        ErrorBody err;
        if (decodeError(frame.payload, &err))
            return fail("server rejected HELLO: " + err.message);
        return fail("server rejected HELLO");
    }
    HelloBody hello;
    if (frame.type != kHelloReply ||
        !decodeHello(frame.payload, &hello))
        return fail("malformed HELLO reply");
    if (hello.magic != kProtoMagic || hello.version != kProtoVersion)
        return fail("server speaks a different protocol");
    mounts_ = std::move(hello.mounts);
    return true;
}

bool
ServeClient::readReply(Frame *frame, u8 expected_type,
                       ClientStatus *status)
{
    switch (readFrame(sock_, frame)) {
    case FrameRead::kFrame:
        break;
    case FrameRead::kEof:
        status->transportError = "server closed the connection";
        return false;
    case FrameRead::kTooLarge:
        status->transportError = "oversize reply frame";
        return false;
    case FrameRead::kError:
    // No deadline is set on replies (default FrameTimeouts), so the
    // timeout results cannot occur; a read that ends that way failed.
    case FrameRead::kIdleTimeout:
    case FrameRead::kTimeout:
        status->transportError = "reply read failed";
        return false;
    }
    if (frame->type == kErrorReply) {
        ErrorBody err;
        if (decodeError(frame->payload, &err)) {
            status->errorFrame = std::move(err);
        } else {
            status->transportError = "undecodable ERROR frame";
        }
        return false;
    }
    if (frame->type != expected_type) {
        status->transportError =
            "unexpected reply type " + std::to_string(frame->type);
        return false;
    }
    return true;
}

ClientStatus
ServeClient::mapBatch(const std::string &ref_name,
                      const std::string &r1_fastq,
                      const std::string &r2_fastq, bool want_stats,
                      MapReplyBody *reply)
{
    u64 backoff = retry_.backoffMs;
    for (u32 attempt = 0;; ++attempt) {
        ClientStatus status = mapBatchOnce(ref_name, r1_fastq, r2_fastq,
                                           want_stats, reply);
        // Only OVERLOADED is retryable: the server explicitly said
        // "come back later" and the connection is still usable.
        // Transport failures and other error codes stay fail-fast.
        const bool shed = !status.ok && status.errorFrame.has_value() &&
                          status.errorFrame->code == kErrOverloaded;
        if (!shed || attempt >= retry_.maxRetries)
            return status;
        const u64 hint = status.errorFrame->retryAfterMs;
        const u64 waitMs = std::max<u64>(hint, backoff);
        backoff = std::min<u64>(backoff * 2, retry_.maxBackoffMs);
        ++retriesPerformed_;
        std::this_thread::sleep_for(std::chrono::milliseconds(waitMs));
    }
}

ClientStatus
ServeClient::mapBatchOnce(const std::string &ref_name,
                          const std::string &r1_fastq,
                          const std::string &r2_fastq, bool want_stats,
                          MapReplyBody *reply)
{
    ClientStatus status;
    MapRequestBody req;
    req.requestId = nextRequestId_++;
    req.flags = want_stats ? kMapWantStats : 0;
    req.refName = ref_name;
    req.r1Fastq = r1_fastq;
    req.r2Fastq = r2_fastq;
    if (!writeFrame(sock_, kMapRequest, encodeMapRequest(req))) {
        status.transportError = "MAP request send failed";
        return status;
    }
    Frame frame;
    if (!readReply(&frame, kMapReply, &status))
        return status;
    if (!decodeMapReply(frame.payload, reply)) {
        status.transportError = "undecodable MAP reply";
        return status;
    }
    if (reply->requestId != req.requestId) {
        status.transportError = "MAP reply id mismatch";
        return status;
    }
    status.ok = true;
    return status;
}

ClientStatus
ServeClient::fetchHeader(const std::string &ref_name,
                         std::string *sam_header)
{
    ClientStatus status;
    std::vector<u8> payload;
    putString16(payload, ref_name);
    if (!writeFrame(sock_, kHeaderRequest, payload)) {
        status.transportError = "HEADER request send failed";
        return status;
    }
    Frame frame;
    if (!readReply(&frame, kHeaderReply, &status))
        return status;
    PayloadReader r(frame.payload);
    *sam_header = r.takeString32();
    if (!r.done()) {
        status.transportError = "undecodable HEADER reply";
        return status;
    }
    status.ok = true;
    return status;
}

ClientStatus
ServeClient::fetchStats(std::string *json)
{
    ClientStatus status;
    if (!writeFrame(sock_, kStatsRequest, {})) {
        status.transportError = "STATS request send failed";
        return status;
    }
    Frame frame;
    if (!readReply(&frame, kStatsReply, &status))
        return status;
    PayloadReader r(frame.payload);
    *json = r.takeString32();
    if (!r.done()) {
        status.transportError = "undecodable STATS reply";
        return status;
    }
    status.ok = true;
    return status;
}

ClientStatus
ServeClient::refreshMount(const std::string &ref_name)
{
    ClientStatus status;
    std::vector<u8> payload;
    putString16(payload, ref_name);
    if (!writeFrame(sock_, kRefreshRequest, payload)) {
        status.transportError = "REFRESH request send failed";
        return status;
    }
    Frame frame;
    if (!readReply(&frame, kRefreshReply, &status))
        return status;
    PayloadReader r(frame.payload);
    (void)r.takeString16(); // echoed mount name
    if (!r.done()) {
        status.transportError = "undecodable REFRESH reply";
        return status;
    }
    status.ok = true;
    return status;
}

ClientStatus
ServeClient::shutdownServer()
{
    ClientStatus status;
    if (!writeFrame(sock_, kShutdownRequest, {})) {
        status.transportError = "SHUTDOWN request send failed";
        return status;
    }
    Frame frame;
    if (!readReply(&frame, kShutdownReply, &status))
        return status;
    status.ok = true;
    return status;
}

} // namespace serve
} // namespace gpx
