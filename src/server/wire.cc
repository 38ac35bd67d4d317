#include "server/wire.h"

namespace pdm::server {
namespace {

using broker::FeedbackRequest;
using broker::HandleRequest;
using broker::ProductHandle;
using broker::Quote;

/// Fixed request header: u8 opcode + u64 request id.
constexpr size_t kHeaderBytes = 1 + 8;

/// Appends one whole frame whose payload `body` writes.
template <typename Body>
void Frame(std::string* out, Body&& body) {
  WireWriter w(out);
  const size_t frame = w.BeginFrame();
  body(w);
  w.EndFrame(frame);
}

// Item codecs: each layout below is written and read in exactly one place.

void PutHandle(WireWriter* w, ProductHandle handle) {
  w->PutU32(handle.index);
  w->PutU32(handle.generation);
}

bool GetHandle(WireReader* r, ProductHandle* handle) {
  return r->GetU32(&handle->index) && r->GetU32(&handle->generation);
}

/// The u32 count prefix of a batch (or of a feature vector). A count the
/// rest of the body cannot hold at `min_item_bytes` per item is rejected
/// before any allocation, so a hostile count costs nothing.
void PutCount(WireWriter* w, size_t count) { w->PutU32(static_cast<uint32_t>(count)); }

bool GetCount(WireReader* r, size_t min_item_bytes, uint32_t* count) {
  return r->GetU32(count) && *count <= r->remaining() / min_item_bytes;
}

/// Features: a count, then that many f64s (read by GetPriceItem and
/// DecodeEstimateValue, which copy them into their own buffers).
void PutFeatures(WireWriter* w, std::span<const double> features) {
  PutCount(w, features.size());
  for (double v : features) w->PutF64(v);
}

/// Price request item: handle, f64 reserve, features (at least 20 bytes).
void PutPriceItem(WireWriter* w, const HandleRequest& request) {
  PutHandle(w, request.handle);
  w->PutF64(request.reserve);
  PutFeatures(w, request.features);
}

bool GetPriceItem(WireReader* r, PriceRequests* out) {
  HandleRequest request;
  uint32_t n;
  if (!GetHandle(r, &request.handle) || !r->GetF64(&request.reserve) ||
      !GetCount(r, sizeof(double), &n)) {
    return false;
  }
  std::vector<double>& features = out->features;
  const size_t at = features.size();
  const bool moves = at + n > features.capacity();
  features.resize(at + n);
  for (uint32_t i = 0; i < n; ++i) r->GetF64(&features[at + i]);
  if (moves) {
    // The buffer moved: re-point the earlier items, which sit back to back.
    size_t offset = 0;
    for (HandleRequest& earlier : out->requests) {
      earlier.features = {features.data() + offset, earlier.features.size()};
      offset += earlier.features.size();
    }
  }
  request.features = {features.data() + at, n};
  out->requests.push_back(request);
  return true;
}

/// Feedback item: u64 ticket, u8 accepted (9 bytes).
void PutFeedbackItem(WireWriter* w, const FeedbackRequest& feedback) {
  w->PutU64(feedback.ticket);
  w->PutU8(feedback.accepted ? 1 : 0);
}

bool GetFeedbackItem(WireReader* r, FeedbackRequest* out) {
  uint8_t accepted;
  if (!r->GetU64(&out->ticket) || !r->GetU8(&accepted)) return false;
  out->accepted = accepted != 0;
  return true;
}

/// Quote: u64 ticket, f64 price, u8 flags (17 bytes).
void PutQuote(WireWriter* w, const Quote& quote) {
  w->PutU64(quote.ticket);
  w->PutF64(quote.price);
  w->PutU8(static_cast<uint8_t>((quote.exploratory ? kQuoteExploratory : 0) |
                                (quote.certain_no_sale ? kQuoteCertainNoSale : 0)));
}

bool GetQuote(WireReader* r, Quote* quote) {
  uint8_t flags;
  if (!r->GetU64(&quote->ticket) || !r->GetF64(&quote->price) || !r->GetU8(&flags)) {
    return false;
  }
  quote->exploratory = (flags & kQuoteExploratory) != 0;
  quote->certain_no_sale = (flags & kQuoteCertainNoSale) != 0;
  return true;
}

/// Runs `decode`, which appends to `out`; on failure drops what it appended.
/// Truncation never moves the features buffer, so earlier spans stay valid.
template <typename Decode>
bool AppendOrRollBack(PriceRequests* out, Decode&& decode) {
  const size_t requests = out->requests.size();
  const size_t features = out->features.size();
  if (decode()) return true;
  out->requests.resize(requests);
  out->features.resize(features);
  return false;
}

}  // namespace

bool ValidOpcode(uint8_t code) {
  return code >= static_cast<uint8_t>(Opcode::kResolve) &&
         code <= static_cast<uint8_t>(Opcode::kGetMetrics);
}

uint8_t StatusCodeToWire(StatusCode code) { return static_cast<uint8_t>(code); }

StatusCode StatusCodeFromWire(uint8_t wire) {
  if (wire > static_cast<uint8_t>(StatusCode::kDataLoss)) {
    return StatusCode::kInvalidArgument;
  }
  return static_cast<StatusCode>(wire);
}

FrameResult NextFrame(std::string_view buffer, size_t offset,
                      std::string_view* payload, size_t* next_offset) {
  if (buffer.size() - offset < kFrameHeaderBytes) return FrameResult::kNeedMore;
  uint32_t size;
  std::memcpy(&size, buffer.data() + offset, sizeof size);
  if (size > kMaxFramePayloadBytes) return FrameResult::kMalformed;
  if (buffer.size() - offset - kFrameHeaderBytes < size) return FrameResult::kNeedMore;
  *payload = buffer.substr(offset + kFrameHeaderBytes, size);
  *next_offset = offset + kFrameHeaderBytes + size;
  return FrameResult::kFrame;
}

void CompactConsumed(std::string* buffer, size_t* offset) {
  if (*offset == buffer->size()) {
    buffer->clear();
    *offset = 0;
  } else if (*offset > kCompactThreshold) {
    buffer->erase(0, *offset);
    *offset = 0;
  }
}

// --------------------------------------------------------------- requests

void EncodeRequest(std::string* out, Opcode op, uint64_t id) {
  Frame(out, [&](WireWriter& w) { w.PutRequestHeader(op, id); });
}

void EncodeResolve(std::string* out, uint64_t id, std::string_view product) {
  Frame(out, [&](WireWriter& w) {
    w.PutRequestHeader(Opcode::kResolve, id);
    w.PutString(product);
  });
}

void EncodePostPrice(std::string* out, uint64_t id, const HandleRequest& request) {
  Frame(out, [&](WireWriter& w) {
    w.PutRequestHeader(Opcode::kPostPrice, id);
    PutPriceItem(&w, request);
  });
}

void EncodeObserve(std::string* out, uint64_t id, const FeedbackRequest& feedback) {
  Frame(out, [&](WireWriter& w) {
    w.PutRequestHeader(Opcode::kObserve, id);
    PutFeedbackItem(&w, feedback);
  });
}

void EncodeEstimateValue(std::string* out, uint64_t id, ProductHandle handle,
                         std::span<const double> features) {
  Frame(out, [&](WireWriter& w) {
    w.PutRequestHeader(Opcode::kEstimateValue, id);
    PutHandle(&w, handle);
    PutFeatures(&w, features);
  });
}

void EncodePostPrices(std::string* out, uint64_t id, std::span<const HandleRequest> requests) {
  Frame(out, [&](WireWriter& w) {
    w.PutRequestHeader(Opcode::kPostPrices, id);
    PutCount(&w, requests.size());
    for (const HandleRequest& request : requests) PutPriceItem(&w, request);
  });
}

void EncodeObserves(std::string* out, uint64_t id, std::span<const FeedbackRequest> feedback) {
  Frame(out, [&](WireWriter& w) {
    w.PutRequestHeader(Opcode::kObserves, id);
    PutCount(&w, feedback.size());
    for (const FeedbackRequest& item : feedback) PutFeedbackItem(&w, item);
  });
}

bool DecodeRequestHeader(std::string_view payload, RequestFrame* out) {
  WireReader r(payload);
  if (!r.GetU8(&out->op) || !r.GetU64(&out->id)) return false;
  out->body = payload.substr(kHeaderBytes);
  return true;
}

bool DecodeResolve(std::string_view body, std::string_view* product) {
  WireReader r(body);
  std::string_view name;
  if (!r.GetString(&name) || !r.AtEnd()) return false;
  *product = name;
  return true;
}

bool DecodePostPrice(std::string_view body, PriceRequests* out) {
  WireReader r(body);
  return AppendOrRollBack(out, [&] { return GetPriceItem(&r, out) && r.AtEnd(); });
}

bool DecodePostPrices(std::string_view body, PriceRequests* out) {
  WireReader r(body);
  uint32_t count;
  return AppendOrRollBack(out, [&] {
    if (!GetCount(&r, /*min_item_bytes=*/20, &count)) return false;
    for (uint32_t i = 0; i < count; ++i) {
      if (!GetPriceItem(&r, out)) return false;
    }
    return r.AtEnd();
  });
}

bool DecodeObserve(std::string_view body, std::vector<FeedbackRequest>* out) {
  WireReader r(body);
  FeedbackRequest feedback;
  if (!GetFeedbackItem(&r, &feedback) || !r.AtEnd()) return false;
  out->push_back(feedback);
  return true;
}

bool DecodeObserves(std::string_view body, std::vector<FeedbackRequest>* out) {
  WireReader r(body);
  uint32_t count;
  if (!GetCount(&r, /*min_item_bytes=*/9, &count) || r.remaining() != size_t{count} * 9) {
    return false;
  }
  const size_t at = out->size();
  out->resize(at + count);
  for (uint32_t i = 0; i < count; ++i) GetFeedbackItem(&r, &(*out)[at + i]);
  return true;
}

bool DecodeEstimateValue(std::string_view body, ProductHandle* handle,
                         std::vector<double>* features) {
  WireReader r(body);
  ProductHandle decoded;
  uint32_t n;
  if (!GetHandle(&r, &decoded) || !GetCount(&r, sizeof(double), &n) ||
      r.remaining() != size_t{n} * sizeof(double)) {
    return false;
  }
  *handle = decoded;
  features->resize(n);
  for (double& v : *features) r.GetF64(&v);
  return true;
}

// -------------------------------------------------------------- responses

void EncodeError(std::string* out, Opcode op, uint64_t id, StatusCode code,
                 std::string_view message) {
  Frame(out, [&](WireWriter& w) {
    w.PutResponseHeader(op, id, code);
    w.PutString(message);
  });
}

void EncodeOk(std::string* out, Opcode op, uint64_t id) {
  Frame(out, [&](WireWriter& w) { w.PutResponseHeader(op, id, StatusCode::kOk); });
}

void EncodeResolved(std::string* out, uint64_t id, ProductHandle handle) {
  Frame(out, [&](WireWriter& w) {
    w.PutResponseHeader(Opcode::kResolve, id, StatusCode::kOk);
    PutHandle(&w, handle);
  });
}

void EncodeQuote(std::string* out, uint64_t id, const Quote& quote) {
  Frame(out, [&](WireWriter& w) {
    w.PutResponseHeader(Opcode::kPostPrice, id, StatusCode::kOk);
    PutQuote(&w, quote);
  });
}

void EncodeInterval(std::string* out, uint64_t id, const ValueInterval& interval) {
  Frame(out, [&](WireWriter& w) {
    w.PutResponseHeader(Opcode::kEstimateValue, id, StatusCode::kOk);
    w.PutF64(interval.lower);
    w.PutF64(interval.upper);
  });
}

void EncodeMetrics(std::string* out, uint64_t id, std::string_view dump) {
  Frame(out, [&](WireWriter& w) {
    w.PutResponseHeader(Opcode::kGetMetrics, id, StatusCode::kOk);
    w.PutString(dump);
  });
}

void EncodePostPricesResult(std::string* out, uint64_t id, const Status& status,
                            std::span<const Quote> quotes) {
  Frame(out, [&](WireWriter& w) {
    w.PutResponseHeader(Opcode::kPostPrices, id, status.code());
    w.PutString(status.message());
    PutCount(&w, quotes.size());
    for (const Quote& quote : quotes) {
      PutQuote(&w, quote);
      w.PutU8(StatusCodeToWire(quote.status));
    }
  });
}

void EncodeObservesResult(std::string* out, uint64_t id, const Status& status,
                          std::span<const StatusCode> codes) {
  Frame(out, [&](WireWriter& w) {
    w.PutResponseHeader(Opcode::kObserves, id, status.code());
    w.PutString(status.message());
    PutCount(&w, codes.size());
    for (StatusCode code : codes) w.PutU8(StatusCodeToWire(code));
  });
}

Status DecodeResponse(std::string_view payload, Response* out) {
  WireReader r(payload);
  uint8_t op_byte, code_byte;
  uint64_t id;
  if (!r.GetU8(&op_byte) || !r.GetU64(&id) || !r.GetU8(&code_byte)) {
    return Status::FailedPrecondition("truncated response header");
  }
  out->op = static_cast<Opcode>(op_byte);
  out->id = id;
  const StatusCode code = StatusCodeFromWire(code_byte);
  out->quotes.clear();
  out->codes.clear();
  auto malformed = [] { return Status::FailedPrecondition("malformed response body"); };

  // Error responses carry a message; batch results carry one whatever the
  // status, followed by their items. A connection-level error frame
  // (opcode 0) answers no request, so its status is the return value.
  const bool batch = out->op == Opcode::kPostPrices || out->op == Opcode::kObserves;
  const bool has_message = batch || code != StatusCode::kOk || op_byte == 0;
  std::string_view message;
  if (has_message && !r.GetString(&message)) return malformed();
  if (op_byte == 0) {
    if (!r.AtEnd()) return malformed();
    return Status(code, "server error frame: " + std::string(message));
  }
  out->status = code == StatusCode::kOk ? Status::Ok() : Status(code, std::string(message));
  if (code != StatusCode::kOk && !batch) return r.AtEnd() ? Status::Ok() : malformed();

  uint32_t count;
  uint8_t item_code = 0;
  switch (out->op) {
    case Opcode::kPing:
    case Opcode::kObserve:
      break;
    case Opcode::kGetMetrics: {
      std::string_view dump;
      if (!r.GetString(&dump) || !r.AtEnd()) return malformed();
      return metrics::DecodeMetricsDump(dump, &out->metrics);
    }
    case Opcode::kResolve:
      if (!GetHandle(&r, &out->handle)) return malformed();
      break;
    case Opcode::kPostPrice:
      if (!GetQuote(&r, &out->quote)) return malformed();
      out->quote.status = StatusCode::kOk;
      break;
    case Opcode::kEstimateValue:
      if (!r.GetF64(&out->interval.lower) || !r.GetF64(&out->interval.upper)) {
        return malformed();
      }
      break;
    case Opcode::kPostPrices:
      // Item: quote + u8 status (18 bytes).
      if (!GetCount(&r, 18, &count)) return malformed();
      out->quotes.resize(count);
      for (Quote& quote : out->quotes) {
        if (!GetQuote(&r, &quote) || !r.GetU8(&item_code)) return malformed();
        quote.status = StatusCodeFromWire(item_code);
      }
      break;
    case Opcode::kObserves:
      if (!GetCount(&r, 1, &count)) return malformed();
      out->codes.resize(count);
      for (StatusCode& item : out->codes) {
        r.GetU8(&item_code);
        item = StatusCodeFromWire(item_code);
      }
      break;
    default:
      return malformed();
  }
  return r.AtEnd() ? Status::Ok() : malformed();
}

}  // namespace pdm::server
