#ifndef PDM_SERVER_WIRE_H_
#define PDM_SERVER_WIRE_H_

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "broker/broker.h"
#include "common/status.h"
#include "metrics/metrics.h"

/// \file
/// The `pdm.wire.v1` framed binary protocol (DESIGN.md §10).
///
/// Every message — request or response — travels as one *frame*: a u32
/// little-endian payload length followed by that many payload bytes. The
/// payload starts with a fixed header (u8 opcode, u64 request id); requests
/// append an op-specific body, responses insert a u8 `pdm::StatusCode` after
/// the header and append either an error message (non-OK) or the op's result
/// body (OK). Ids are client-chosen and echoed verbatim, so clients may
/// pipeline arbitrarily and match responses out of a single read stream.
/// The server answers frames of one connection strictly in arrival order.
///
/// Like `pdm.snap.v1`, the layout is little-endian with doubles as raw
/// IEEE-754 bit patterns — a quote decoded from the wire is *bit*-identical
/// to the quote the broker produced, which is what makes the loopback replay
/// test's bit-identity pin possible (tests/server_test.cc).
///
/// This header is the whole codec: the primitives (bounds-checked reader,
/// appending writer, frame splitting) and, built on them, exactly one
/// encoder and one decoder per message body — the price request item, the
/// feedback item, the quote, the batch count prefix and every op's request
/// and response. The server and the client only call these; neither spells
/// out a byte layout of its own.

namespace pdm::server {

/// Protocol identifier (mirrors the JSON schema naming convention).
inline constexpr char kProtocolName[] = "pdm.wire.v1";

/// A frame is `u32 payload_size` + payload.
inline constexpr size_t kFrameHeaderBytes = 4;

/// Upper bound on one payload. Large enough for a 4096-request batch at
/// n = 100; anything bigger is a corrupt or hostile stream and the
/// connection is closed rather than buffered without bound.
inline constexpr size_t kMaxFramePayloadBytes = size_t{4} << 20;

enum class Opcode : uint8_t {
  kResolve = 1,
  kPostPrice = 2,
  kObserve = 3,
  kEstimateValue = 4,
  kPostPrices = 5,
  kObserves = 6,
  kPing = 7,
  /// Returns the server's metric registry as a `pdm.metrics.v1` binary dump
  /// (length-prefixed string body; decode with metrics::DecodeMetricsDump).
  kGetMetrics = 8,
};

/// Quote flag bits on the wire (`Quote::exploratory`/`certain_no_sale`).
inline constexpr uint8_t kQuoteExploratory = 1u << 0;
inline constexpr uint8_t kQuoteCertainNoSale = 1u << 1;

/// True when `code` is a valid request opcode.
bool ValidOpcode(uint8_t code);

/// Round-trips a StatusCode through its wire byte; out-of-range bytes decode
/// to kInvalidArgument (a foreign peer must never crash the decoder).
uint8_t StatusCodeToWire(StatusCode code);
StatusCode StatusCodeFromWire(uint8_t wire);

// --------------------------------------------------------------- writer

/// Appends wire primitives to a caller-owned byte buffer. `BeginFrame`
/// reserves the length prefix and `EndFrame` patches it, so whole frames are
/// assembled in place with no intermediate copies.
class WireWriter {
 public:
  explicit WireWriter(std::string* out) : out_(out) {}

  /// Starts a frame and returns the patch cookie for EndFrame.
  size_t BeginFrame() {
    size_t at = out_->size();
    PutU32(0);
    return at;
  }

  /// Patches the length prefix written by the matching BeginFrame.
  void EndFrame(size_t cookie) {
    uint32_t payload = static_cast<uint32_t>(out_->size() - cookie - kFrameHeaderBytes);
    std::memcpy(out_->data() + cookie, &payload, sizeof payload);
  }

  void PutU8(uint8_t v) { out_->append(reinterpret_cast<const char*>(&v), sizeof v); }
  void PutU32(uint32_t v) { out_->append(reinterpret_cast<const char*>(&v), sizeof v); }
  void PutU64(uint64_t v) { out_->append(reinterpret_cast<const char*>(&v), sizeof v); }

  /// Raw IEEE-754 bit pattern — exact round trip, NaN-safe.
  void PutF64(double v) {
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    PutU64(bits);
  }

  void PutString(std::string_view s) {
    PutU32(static_cast<uint32_t>(s.size()));
    out_->append(s.data(), s.size());
  }

  /// Request/response headers.
  void PutRequestHeader(Opcode op, uint64_t id) {
    PutU8(static_cast<uint8_t>(op));
    PutU64(id);
  }
  void PutResponseHeader(Opcode op, uint64_t id, StatusCode code) {
    PutU8(static_cast<uint8_t>(op));
    PutU64(id);
    PutU8(StatusCodeToWire(code));
  }

 private:
  std::string* out_;
};

// --------------------------------------------------------------- reader

/// Bounds-checked cursor over one frame payload. Every Get reports failure
/// instead of reading past the end, so a truncated or hostile payload
/// decodes to a clean error, never UB.
class WireReader {
 public:
  explicit WireReader(std::string_view bytes) : bytes_(bytes) {}

  bool GetU8(uint8_t* v) { return GetBytes(v, sizeof *v); }
  bool GetU32(uint32_t* v) { return GetBytes(v, sizeof *v); }
  bool GetU64(uint64_t* v) { return GetBytes(v, sizeof *v); }

  bool GetF64(double* v) {
    uint64_t bits;
    if (!GetU64(&bits)) return false;
    std::memcpy(v, &bits, sizeof *v);
    return true;
  }

  /// Length-prefixed string; the view aliases the payload buffer.
  bool GetString(std::string_view* s) {
    uint32_t size;
    if (!GetU32(&size)) return false;
    if (bytes_.size() - pos_ < size) return false;
    *s = bytes_.substr(pos_, size);
    pos_ += size;
    return true;
  }

  bool AtEnd() const { return pos_ == bytes_.size(); }
  size_t remaining() const { return bytes_.size() - pos_; }

 private:
  bool GetBytes(void* out, size_t size) {
    if (bytes_.size() - pos_ < size) return false;
    std::memcpy(out, bytes_.data() + pos_, size);
    pos_ += size;
    return true;
  }

  std::string_view bytes_;
  size_t pos_ = 0;
};

// ------------------------------------------------------------ frame split

enum class FrameResult {
  kFrame,      ///< one complete frame extracted
  kNeedMore,   ///< buffer holds a partial frame; read more bytes
  kMalformed,  ///< length prefix exceeds kMaxFramePayloadBytes — close
};

/// Examines `buffer` starting at `offset`. On kFrame, `*payload` views the
/// payload bytes inside `buffer` and `*next_offset` is where the following
/// frame starts. The caller owns compaction of consumed bytes.
FrameResult NextFrame(std::string_view buffer, size_t offset,
                      std::string_view* payload, size_t* next_offset);

/// Read buffers are consumed by advancing an offset past each frame; the
/// consumed prefix is erased only once it passes this size.
inline constexpr size_t kCompactThreshold = size_t{64} << 10;

/// Drops the consumed prefix [0, *offset) of a read buffer when the buffer
/// is drained or the prefix passes kCompactThreshold, resetting *offset.
/// Erasing on every frame would make deep pipelines O(n²) in buffered bytes.
void CompactConsumed(std::string* buffer, size_t* offset);

// --------------------------------------------------------------- requests
//
// Encoders append one whole request frame to `out`. Decoders take the body
// (the payload after the header) and accept it only when it is consumed
// exactly; a decoder that returns false leaves its outputs as they were.

/// Ping and GetMetrics: a header with an empty body.
void EncodeRequest(std::string* out, Opcode op, uint64_t id);
void EncodeResolve(std::string* out, uint64_t id, std::string_view product);
void EncodePostPrice(std::string* out, uint64_t id, const broker::HandleRequest& request);
void EncodeObserve(std::string* out, uint64_t id, const broker::FeedbackRequest& feedback);
void EncodeEstimateValue(std::string* out, uint64_t id, broker::ProductHandle handle,
                         std::span<const double> features);
void EncodePostPrices(std::string* out, uint64_t id,
                      std::span<const broker::HandleRequest> requests);
void EncodeObserves(std::string* out, uint64_t id,
                    std::span<const broker::FeedbackRequest> feedback);

/// A request payload split at its header. `op` is the raw byte, which may
/// name no opcode (`ValidOpcode`).
struct RequestFrame {
  uint8_t op = 0;
  uint64_t id = 0;
  std::string_view body;
};

/// False when `payload` is shorter than the 9-byte request header.
bool DecodeRequestHeader(std::string_view payload, RequestFrame* out);

/// Price requests decoded from one or more frames. Payload doubles are
/// unaligned, so each item's features are copied into `features`, back to
/// back; `requests[i].features` views that buffer and is re-pointed when it
/// grows. Reusable across decodes without freeing.
struct PriceRequests {
  std::vector<broker::HandleRequest> requests;
  std::vector<double> features;
  void clear() {
    requests.clear();
    features.clear();
  }
};

bool DecodeResolve(std::string_view body, std::string_view* product);
/// Appends one request; a batch appends all of its items. A batch count
/// above what the body could hold is rejected before anything is allocated.
bool DecodePostPrice(std::string_view body, PriceRequests* out);
bool DecodePostPrices(std::string_view body, PriceRequests* out);
bool DecodeObserve(std::string_view body, std::vector<broker::FeedbackRequest>* out);
bool DecodeObserves(std::string_view body, std::vector<broker::FeedbackRequest>* out);
/// Replaces `*features` with the request's features.
bool DecodeEstimateValue(std::string_view body, broker::ProductHandle* handle,
                         std::vector<double>* features);

// -------------------------------------------------------------- responses

/// An error answer: header + message. Opcode 0 with id 0 is the
/// connection-level error frame (framing violation, idle reap).
void EncodeError(std::string* out, Opcode op, uint64_t id, StatusCode code,
                 std::string_view message);
/// Ping and Observe: an OK header with an empty body.
void EncodeOk(std::string* out, Opcode op, uint64_t id);
void EncodeResolved(std::string* out, uint64_t id, broker::ProductHandle handle);
void EncodeQuote(std::string* out, uint64_t id, const broker::Quote& quote);
void EncodeInterval(std::string* out, uint64_t id, const ValueInterval& interval);
void EncodeMetrics(std::string* out, uint64_t id, std::string_view dump);
/// Batch results carry the batch Status, a count and per-item results
/// whatever the status; a body that did not decode answers with count 0.
void EncodePostPricesResult(std::string* out, uint64_t id, const Status& status,
                            std::span<const broker::Quote> quotes);
void EncodeObservesResult(std::string* out, uint64_t id, const Status& status,
                          std::span<const StatusCode> codes);

/// One decoded response frame (union-style: the fields that matter depend
/// on `op`; `status` is always meaningful).
struct Response {
  Opcode op = Opcode::kPing;
  uint64_t id = 0;
  Status status;
  broker::Quote quote;                 ///< kPostPrice
  broker::ProductHandle handle;        ///< kResolve
  ValueInterval interval;              ///< kEstimateValue
  std::vector<broker::Quote> quotes;   ///< kPostPrices
  std::vector<StatusCode> codes;       ///< kObserves
  metrics::MetricsDump metrics;        ///< kGetMetrics
};

/// Decodes one response payload. `out->status` carries the op's outcome;
/// the returned Status is FailedPrecondition for a truncated or malformed
/// payload, and the frame's own status ("server error frame: ...") for a
/// connection-level error frame (opcode 0).
Status DecodeResponse(std::string_view payload, Response* out);

}  // namespace pdm::server

#endif  // PDM_SERVER_WIRE_H_
