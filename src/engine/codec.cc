#include "engine/codec.h"

#include <cstring>

namespace mope::engine {

void PutU32(std::string* out, uint32_t v) {
  char word[4];
  StoreU32(word, v);
  out->append(word, 4);
}

void PutU64(std::string* out, uint64_t v) {
  char word[8];
  StoreU64(word, v);
  out->append(word, 8);
}

void PutString(std::string* out, const std::string& s) {
  PutU64(out, s.size());
  out->append(s);
}

void PutValue(std::string* out, const Value& v) {
  const size_t at = out->size();
  out->resize(at + EncodedSize(v));
  StoreValue(out->data() + at, v);
}

Result<uint8_t> ByteReader::Byte() {
  if (pos_ >= bytes_.size()) return Truncated();
  return static_cast<uint8_t>(bytes_[pos_++]);
}

Result<uint32_t> ByteReader::U32() {
  if (pos_ + 4 > bytes_.size()) return Truncated();
  const uint32_t v = LoadU32(bytes_.data() + pos_);
  pos_ += 4;
  return v;
}

Result<uint64_t> ByteReader::U64() {
  if (pos_ + 8 > bytes_.size()) return Truncated();
  const uint64_t v = LoadU64(bytes_.data() + pos_);
  pos_ += 8;
  return v;
}

Result<std::string> ByteReader::String() {
  MOPE_ASSIGN_OR_RETURN(uint64_t len, U64());
  if (len > bytes_.size() - pos_) {
    return Status::Corruption(std::string(context_) +
                              " string length out of bounds");
  }
  std::string s(bytes_.substr(pos_, len));
  pos_ += len;
  return s;
}

Result<Value> ByteReader::ReadValue() {
  MOPE_ASSIGN_OR_RETURN(uint8_t tag, Byte());
  Value out;
  switch (tag) {
    case 0: {
      MOPE_ASSIGN_OR_RETURN(uint64_t bits, U64());
      out = static_cast<int64_t>(bits);
      break;
    }
    case 1: {
      MOPE_ASSIGN_OR_RETURN(uint64_t bits, U64());
      double d;
      std::memcpy(&d, &bits, 8);
      out = d;
      break;
    }
    case 2: {
      MOPE_ASSIGN_OR_RETURN(std::string s, String());
      out = std::move(s);
      break;
    }
    default:
      return Status::Corruption(std::string("unknown value tag in ") +
                                context_);
  }
  return out;
}

}  // namespace mope::engine
