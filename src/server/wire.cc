#include "server/wire.h"

namespace pdm::server {

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

}  // namespace pdm::server
