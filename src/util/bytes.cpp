#include "util/bytes.hpp"

namespace sonic::util {

void ByteWriter::u16(std::uint16_t v) {
  buf_.push_back(static_cast<std::uint8_t>(v));
  buf_.push_back(static_cast<std::uint8_t>(v >> 8));
}

void ByteWriter::u32(std::uint32_t v) {
  for (int i = 0; i < 4; ++i) buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void ByteWriter::u64(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void ByteWriter::raw(std::span<const std::uint8_t> data) {
  buf_.insert(buf_.end(), data.begin(), data.end());
}

void ByteWriter::str(const std::string& s) {
  u32(static_cast<std::uint32_t>(s.size()));
  buf_.insert(buf_.end(), s.begin(), s.end());
}

bool ByteReader::take(std::size_t n) {
  if (pos_ + n > data_.size()) {
    ok_ = false;
    return false;
  }
  return true;
}

std::uint8_t ByteReader::u8() {
  if (!take(1)) return 0;
  return data_[pos_++];
}

std::uint16_t ByteReader::u16() {
  if (!take(2)) return 0;
  std::uint16_t v = static_cast<std::uint16_t>(data_[pos_] | (data_[pos_ + 1] << 8));
  pos_ += 2;
  return v;
}

std::uint32_t ByteReader::u32() {
  if (!take(4)) return 0;
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(data_[pos_ + i]) << (8 * i);
  pos_ += 4;
  return v;
}

std::uint64_t ByteReader::u64() {
  if (!take(8)) return 0;
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(data_[pos_ + i]) << (8 * i);
  pos_ += 8;
  return v;
}

Bytes ByteReader::raw(std::size_t n) {
  if (!take(n)) return {};
  Bytes out(data_.begin() + pos_, data_.begin() + pos_ + n);
  pos_ += n;
  return out;
}

std::string ByteReader::str() {
  std::uint32_t n = u32();
  if (!take(n)) return {};
  std::string out(data_.begin() + pos_, data_.begin() + pos_ + n);
  pos_ += n;
  return out;
}

void BitWriter::bit(int b) {
  if (fill_ == 0) buf_.push_back(0);
  if (b) buf_.back() |= static_cast<std::uint8_t>(1u << (7 - fill_));
  fill_ = (fill_ + 1) % 8;
}

void BitWriter::bits(std::uint32_t value, int count) {
  for (int i = count - 1; i >= 0; --i) bit(static_cast<int>((value >> i) & 1u));
}

void BitWriter::align() { fill_ = 0; }

Bytes BitWriter::take() {
  fill_ = 0;
  return std::move(buf_);
}

int BitReader::bit() {
  if (pos_ >= data_.size() * 8) {
    ok_ = false;
    return 0;
  }
  int b = (data_[pos_ / 8] >> (7 - pos_ % 8)) & 1;
  ++pos_;
  return b;
}

std::uint32_t BitReader::bits(int count) {
  std::uint32_t v = 0;
  for (int i = 0; i < count; ++i) v = (v << 1) | static_cast<std::uint32_t>(bit());
  return v;
}

}  // namespace sonic::util
