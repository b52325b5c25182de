// Byte- and bit-level serialization helpers shared by every SONIC module.
//
// All multi-byte integers on the wire are little-endian. BitWriter/BitReader
// pack MSB-first within each byte, which matches the convention used by the
// convolutional and Reed-Solomon coders in sonic_fec.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

namespace sonic::util {

using Bytes = std::vector<std::uint8_t>;

// Append-only little-endian byte serializer.
class ByteWriter {
 public:
  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u16(std::uint16_t v);
  void u32(std::uint32_t v);
  void raw(std::span<const std::uint8_t> data);
  void str(const std::string& s);  // u32 length prefix + bytes

  const Bytes& bytes() const { return buf_; }
  Bytes take() { return std::move(buf_); }
  std::size_t size() const { return buf_.size(); }

 private:
  Bytes buf_;
};

// Bounds-checked little-endian byte deserializer. Reads past the end set
// ok() to false and return zeros; callers check ok() once at the end.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> data) : data_(data) {}

  std::uint8_t u8();
  std::uint16_t u16();
  std::uint32_t u32();
  Bytes raw(std::size_t n);
  std::string str();

  bool ok() const { return ok_; }
  std::size_t remaining() const { return data_.size() - pos_; }
  std::size_t pos() const { return pos_; }

 private:
  bool take(std::size_t n);
  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

// MSB-first bit packer with a 64-bit accumulator. Each write stores the
// bytes it completes with one unconditional 8-byte big-endian store, so the
// number of bytes a code finishes costs no branch; the buffer keeps 8 bytes
// of slack past the written bytes for that store, and is kept from take()
// to take().
class BitWriter {
 public:
  // Makes room for `bytes` bytes plus the store's slack; bits() grows the
  // buffer past that when it must.
  void reserve(std::size_t bytes) {
    if (bytes + 16 > buf_.size()) buf_.resize(bytes + 16);
  }

  // Appends the low `count` bits of `value`, MSB first; count <= 56 and
  // value < 2^count.
  void bits(std::uint64_t value, int count) {
    if (bytes_ + 16 > buf_.size()) buf_.resize(2 * buf_.size() + 16);
    acc_ = acc_ << count | value;
    fill_ += count;
    std::uint64_t top = acc_ << (63 - fill_) << 1;
    if constexpr (std::endian::native == std::endian::little) top = __builtin_bswap64(top);
    std::memcpy(buf_.data() + bytes_, &top, 8);
    bytes_ += static_cast<std::size_t>(fill_ >> 3);
    fill_ &= 7;
  }
  void bit(int b) { bits(b != 0 ? 1 : 0, 1); }

  std::size_t bit_count() const { return bytes_ * 8 + static_cast<std::size_t>(fill_); }
  // The bytes written so far, the last one zero-padded; valid until the
  // next write.
  std::span<const std::uint8_t> bytes() const { return {buf_.data(), bytes_ + (fill_ > 0 ? 1 : 0)}; }
  // Returns a copy of bytes(), leaving the writer empty.
  Bytes take() {
    const auto written = bytes();
    Bytes out(written.begin(), written.end());
    bytes_ = 0;
    fill_ = 0;
    return out;
  }

 private:
  Bytes buf_;
  std::size_t bytes_ = 0;  // whole bytes written
  std::uint64_t acc_ = 0;  // the last bits written; the low fill_ are pending
  int fill_ = 0;           // bits of the last, partial byte
};

// MSB-first bit unpacker. Past the end, reads return 0 and clear ok().
class BitReader {
 public:
  explicit BitReader(std::span<const std::uint8_t> data)
      : data_(data.data()), size_(data.size()), bits_(data.size() * 8) {}

  bool ok() const { return ok_; }

  int bit() {
    if (pos_ >= bits_) {
      ok_ = false;
      return 0;
    }
    const int b = (data_[pos_ >> 3] >> (7 - (pos_ & 7))) & 1;
    ++pos_;
    return b;
  }

  // The next `count` bits, MSB first; count <= 32.
  std::uint32_t bits(int count) {
    std::uint32_t v = 0;
    for (int i = 0; i < count; ++i) v = (v << 1) | static_cast<std::uint32_t>(bit());
    return v;
  }

  // The 64 bits from the read position, zero-padded past the end; skip()
  // consumes those a caller decodes from it.
  std::uint64_t window() const {
    const std::size_t byte = pos_ >> 3;
    std::uint64_t w = 0;
    if (byte + 8 <= size_) {
      std::memcpy(&w, data_ + byte, 8);
      if constexpr (std::endian::native == std::endian::little) w = __builtin_bswap64(w);
    } else {
      for (std::size_t i = 0; byte + i < size_; ++i) w |= std::uint64_t{data_[byte + i]} << (56 - 8 * i);
    }
    return w << (pos_ & 7);
  }
  std::size_t bits_left() const { return bits_ - pos_; }
  void skip(std::size_t count) { pos_ += count; }  // count <= bits_left()

 private:
  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t bits_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace sonic::util
