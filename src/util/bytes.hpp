// Byte- and bit-level serialization helpers shared by every SONIC module.
//
// All multi-byte integers on the wire are little-endian. BitWriter/BitReader
// pack MSB-first within each byte, which matches the convention used by the
// convolutional and Reed-Solomon coders in sonic_fec.
#pragma once

#include <cstdint>
#include <cstddef>
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
  void u64(std::uint64_t v);
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
  std::uint64_t u64();
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

// MSB-first bit packer.
class BitWriter {
 public:
  void bit(int b);
  void bits(std::uint32_t value, int count);  // MSB of `value` range first
  void align();                               // pad current byte with zeros
  const Bytes& bytes() const { return buf_; }
  Bytes take();
  std::size_t bit_count() const { return buf_.size() * 8 - (fill_ ? 8 - fill_ : 0); }

 private:
  Bytes buf_;
  int fill_ = 0;  // bits used in the last byte (0 == byte boundary)
};

// MSB-first bit unpacker.
class BitReader {
 public:
  explicit BitReader(std::span<const std::uint8_t> data) : data_(data) {}
  int bit();                        // returns 0/1, or 0 past the end
  std::uint32_t bits(int count);
  bool ok() const { return ok_; }

 private:
  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace sonic::util
