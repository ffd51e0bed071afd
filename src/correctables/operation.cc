#include "src/correctables/operation.h"

#include <sstream>
#include <utility>

namespace icg {

const char* OpTypeName(OpType type) {
  switch (type) {
    case OpType::kGet:
      return "GET";
    case OpType::kMultiGet:
      return "MULTIGET";
    case OpType::kPut:
      return "PUT";
    case OpType::kMultiPut:
      return "MULTIPUT";
    case OpType::kEnqueue:
      return "ENQUEUE";
    case OpType::kDequeue:
      return "DEQUEUE";
    case OpType::kPeek:
      return "PEEK";
  }
  return "?";
}

namespace {

Operation MakeOp(OpType type, std::string key, std::string value = {}) {
  Operation op;
  op.type = type;
  op.key = std::move(key);
  op.value = std::move(value);
  return op;
}

}  // namespace

Operation Operation::Get(std::string key) { return MakeOp(OpType::kGet, std::move(key)); }
Operation Operation::MultiGet(std::vector<std::string> keys) {
  Operation op;
  op.type = OpType::kMultiGet;
  op.keys = std::move(keys);
  return op;
}
Operation Operation::Put(std::string key, std::string value) {
  return MakeOp(OpType::kPut, std::move(key), std::move(value));
}
Operation Operation::MultiPut(std::vector<std::string> keys, std::vector<std::string> values) {
  Operation op;
  op.type = OpType::kMultiPut;
  op.keys = std::move(keys);
  op.values = std::move(values);
  return op;
}
Operation Operation::Enqueue(std::string queue, std::string element) {
  return MakeOp(OpType::kEnqueue, std::move(queue), std::move(element));
}
Operation Operation::Dequeue(std::string queue) {
  return MakeOp(OpType::kDequeue, std::move(queue));
}
Operation Operation::Peek(std::string queue) { return MakeOp(OpType::kPeek, std::move(queue)); }

int64_t Operation::WireBytes() const {
  int64_t bytes = kRequestHeaderBytes + static_cast<int64_t>(key.size()) +
                  static_cast<int64_t>(value.size());
  for (const auto& k : keys) {
    bytes += static_cast<int64_t>(k.size()) + 2;
  }
  for (const auto& v : values) {
    bytes += static_cast<int64_t>(v.size()) + 2;
  }
  // Client-assigned LWW stamps ride the wire too (8 bytes each).
  if (timestamp != 0) {
    bytes += 8;
  }
  bytes += static_cast<int64_t>(timestamps.size()) * 8;
  return bytes;
}

std::string JoinMultiValue(const std::vector<std::string>& parts) {
  std::string joined;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) {
      joined += kMultiValueSeparator;
    }
    joined += parts[i];
  }
  return joined;
}

ReadRequest ReadRequest::Get(std::string key) {
  ReadRequest request;
  request.keys.push_back(std::move(key));
  return request;
}

ReadRequest ReadRequest::MultiGet(const std::vector<std::string>& keys) {
  ReadRequest request;
  request.keys = SmallVec<std::string, 1>(keys.begin(), keys.end());
  request.shape = WireShape::kBatch;
  return request;
}

ReadRequest ReadRequest::Of(const Operation& op) {
  return op.type == OpType::kMultiGet ? MultiGet(op.keys) : Get(op.key);
}

int64_t ReadRequest::WireBytes() const {
  if (shape == WireShape::kSingle) {
    return kRequestHeaderBytes + static_cast<int64_t>(keys[0].size());
  }
  int64_t bytes = kRequestHeaderBytes;
  for (const auto& key : keys) {
    bytes += static_cast<int64_t>(key.size()) + 2;
  }
  return bytes;
}

WriteRequest WriteRequest::Put(std::string key, std::string value, SimTime timestamp) {
  WriteRequest request;
  request.writes.push_back(KeyWrite{std::move(key), std::move(value), Version{timestamp}});
  return request;
}

WriteRequest WriteRequest::MultiPut(const std::vector<std::string>& keys,
                                    const std::vector<std::string>& values,
                                    const std::vector<SimTime>& timestamps) {
  WriteRequest request;
  request.shape = WireShape::kBatch;
  if (keys.size() != values.size() || (!timestamps.empty() && timestamps.size() != keys.size())) {
    return request;
  }
  request.writes.reserve(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    const SimTime stamp = timestamps.empty() ? 0 : timestamps[i];
    request.writes.push_back(KeyWrite{keys[i], values[i], Version{stamp}});
  }
  return request;
}

WriteRequest WriteRequest::Of(const Operation& op) {
  return op.type == OpType::kMultiPut ? MultiPut(op.keys, op.values, op.timestamps)
                                      : Put(op.key, op.value, op.timestamp);
}

int64_t WriteRequest::WireBytes() const {
  int64_t bytes = kRequestHeaderBytes;
  const int64_t separator = shape == WireShape::kBatch ? 2 : 0;  // after each key and value
  for (const KeyWrite& write : writes) {
    bytes += static_cast<int64_t>(write.key.size()) + separator +
             static_cast<int64_t>(write.value.size()) + separator;
  }
  return bytes;
}

OpResult PackRead(WireShape shape, size_t count,
                  const std::function<std::optional<OpResult>(size_t)>& part) {
  if (shape == WireShape::kSingle) {
    std::optional<OpResult> hit = part(0);
    return hit.has_value() ? std::move(*hit) : OpResult{};
  }
  OpResult joined;
  joined.found = true;
  joined.seqno = 0;
  joined.key_found.reserve(count);
  joined.key_versions.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    if (i > 0) {
      joined.value += kMultiValueSeparator;
    }
    const std::optional<OpResult> hit = part(i);
    if (!hit.has_value() || !hit->found) {
      joined.found = false;
      joined.key_found.push_back(false);
      joined.key_versions.push_back(Version{});
      continue;
    }
    joined.value += hit->value;
    joined.key_found.push_back(true);
    joined.key_versions.push_back(hit->version);
    joined.seqno++;
    if (joined.version < hit->version) {
      joined.version = hit->version;
    }
  }
  return joined;
}

OpResult PackWriteAck(WireShape shape, const SmallVec<KeyWrite, 1>& writes) {
  OpResult ack;
  ack.found = true;
  ack.version = writes.back().version;
  if (shape == WireShape::kBatch) {
    ack.seqno = static_cast<int64_t>(writes.size());
    ack.key_found.assign(writes.size(), true);
    ack.key_versions.reserve(writes.size());
    for (const KeyWrite& write : writes) {
      ack.key_versions.push_back(write.version);
    }
  }
  return ack;
}

std::vector<std::string> SplitMultiValue(const std::string& value, size_t count) {
  std::vector<std::string> parts;
  parts.reserve(count);
  size_t start = 0;
  while (parts.size() + 1 < count) {
    const size_t sep = value.find(kMultiValueSeparator, start);
    if (sep == std::string::npos) {
      break;
    }
    parts.push_back(value.substr(start, sep - start));
    start = sep + 1;
  }
  if (count > 0) {
    parts.push_back(value.substr(start));
  }
  parts.resize(count);
  return parts;
}

std::string Operation::ToString() const {
  std::ostringstream os;
  os << OpTypeName(type) << "(" << key;
  if (!value.empty()) {
    os << ", " << value.size() << "B";
  }
  os << ")";
  return os.str();
}

int64_t OpResult::WireBytes() const {
  return kResponseHeaderBytes + static_cast<int64_t>(value.size());
}

std::string OpResult::ToString() const {
  std::ostringstream os;
  if (!found) {
    return "(not found)";
  }
  os << "{" << value.size() << "B";
  if (seqno >= 0) {
    os << " seq=" << seqno;
  }
  os << " " << icg::ToString(version) << "}";
  return os.str();
}

}  // namespace icg
