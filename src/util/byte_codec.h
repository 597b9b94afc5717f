// Little-endian encoding shared by the on-flash formats (the zone file system's journal, the
// KV store's WAL and manifest, SSTables): appenders and a bounds-checked reader.

#ifndef BLOCKHEAD_SRC_UTIL_BYTE_CODEC_H_
#define BLOCKHEAD_SRC_UTIL_BYTE_CODEC_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace blockhead {

inline void PutU8(std::vector<std::uint8_t>& out, std::uint8_t v) { out.push_back(v); }
inline void PutU16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
}
inline void PutU32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}
inline void PutU64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

// Reads fields in order. A read past the end returns zero (or an empty string) and clears
// ok() for good.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> data) : data_(data) {}

  bool ok() const { return ok_; }
  std::size_t remaining() const { return data_.size() - pos_; }

  std::uint8_t U8() { return static_cast<std::uint8_t>(Bytes(1)); }
  std::uint16_t U16() { return static_cast<std::uint16_t>(Bytes(2)); }
  std::uint32_t U32() { return static_cast<std::uint32_t>(Bytes(4)); }
  std::uint64_t U64() { return Bytes(8); }

  std::string String(std::size_t len) {
    if (!ok_ || remaining() < len) {
      ok_ = false;
      return {};
    }
    std::string s(reinterpret_cast<const char*>(data_.data() + pos_), len);
    pos_ += len;
    return s;
  }

 private:
  std::uint64_t Bytes(int n) {
    if (!ok_ || remaining() < static_cast<std::size_t>(n)) {
      ok_ = false;
      return 0;
    }
    std::uint64_t v = 0;
    for (int i = 0; i < n; ++i) {
      v |= static_cast<std::uint64_t>(data_[pos_ + i]) << (8 * i);
    }
    pos_ += static_cast<std::size_t>(n);
    return v;
  }

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace blockhead

#endif  // BLOCKHEAD_SRC_UTIL_BYTE_CODEC_H_
