#include "util/wav.hpp"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <stdexcept>

namespace sonic::util {
namespace {

void put_u32(std::FILE* f, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) std::fputc(static_cast<int>((v >> (8 * i)) & 0xff), f);
}

void put_u16(std::FILE* f, std::uint16_t v) {
  std::fputc(v & 0xff, f);
  std::fputc((v >> 8) & 0xff, f);
}

std::uint32_t get_u32(std::FILE* f) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(std::fgetc(f) & 0xff) << (8 * i);
  return v;
}

std::uint16_t get_u16(std::FILE* f) {
  std::uint16_t v = static_cast<std::uint16_t>(std::fgetc(f) & 0xff);
  v |= static_cast<std::uint16_t>((std::fgetc(f) & 0xff) << 8);
  return v;
}

}  // namespace

void write_wav(const std::string& path, const std::vector<float>& samples, int sample_rate_hz) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (!f) throw std::runtime_error("cannot open " + path);
  const std::uint32_t data_bytes = static_cast<std::uint32_t>(samples.size() * 2);
  std::fwrite("RIFF", 1, 4, f);
  put_u32(f, 36 + data_bytes);
  std::fwrite("WAVEfmt ", 1, 8, f);
  put_u32(f, 16);                       // fmt chunk size
  put_u16(f, 1);                        // PCM
  put_u16(f, 1);                        // mono
  put_u32(f, static_cast<std::uint32_t>(sample_rate_hz));
  put_u32(f, static_cast<std::uint32_t>(sample_rate_hz * 2));  // byte rate
  put_u16(f, 2);                        // block align
  put_u16(f, 16);                       // bits per sample
  std::fwrite("data", 1, 4, f);
  put_u32(f, data_bytes);
  for (float s : samples) {
    const int v = static_cast<int>(std::clamp(s, -1.0f, 1.0f) * 32767.0f);
    put_u16(f, static_cast<std::uint16_t>(static_cast<std::int16_t>(v)));
  }
  std::fclose(f);
}

WavData read_wav(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (!f) throw std::runtime_error("cannot open " + path);
  char tag[5] = {0};
  auto fail = [&](const char* why) {
    std::fclose(f);
    throw std::runtime_error(std::string(why) + ": " + path);
  };
  // Chunk lengths are untrusted: they are checked against the bytes left in
  // the file, so a forged length can neither size an allocation nor walk
  // past the end.
  long file_bytes = -1;
  if (std::fseek(f, 0, SEEK_END) == 0) file_bytes = std::ftell(f);
  if (file_bytes < 0 || std::fseek(f, 0, SEEK_SET) != 0) fail("not a seekable file");
  auto bytes_left = [&] { return static_cast<std::uint64_t>(file_bytes - std::ftell(f)); };
  auto skip = [&](std::uint32_t n) {
    if (n > bytes_left()) fail("chunk runs past end of file");
    std::fseek(f, static_cast<long>(n), SEEK_CUR);
  };
  if (std::fread(tag, 1, 4, f) != 4 || std::string(tag) != "RIFF") fail("not a RIFF file");
  get_u32(f);  // riff size
  if (std::fread(tag, 1, 4, f) != 4 || std::string(tag) != "WAVE") fail("not a WAVE file");

  WavData out;
  int channels = 0;
  int bits = 0;
  // Chunk walk.
  while (std::fread(tag, 1, 4, f) == 4) {
    const std::uint32_t size = get_u32(f);
    if (std::string(tag) == "fmt ") {
      const std::uint16_t format = get_u16(f);
      channels = get_u16(f);
      out.sample_rate_hz = static_cast<int>(get_u32(f));
      get_u32(f);  // byte rate
      get_u16(f);  // block align
      bits = get_u16(f);
      if (format != 1 || bits != 16 || channels < 1 || channels > 2) fail("unsupported wav format");
      if (size > 16) skip(size - 16);
    } else if (std::string(tag) == "data") {
      if (channels == 0) fail("data before fmt");
      // A truncated recording keeps the whole frames actually present.
      const std::size_t frame_bytes = 2 * static_cast<std::size_t>(channels);
      std::vector<std::uint8_t> raw(std::min<std::uint64_t>(size, bytes_left()) / frame_bytes * frame_bytes);
      const std::size_t frames = std::fread(raw.data(), 1, raw.size(), f) / frame_bytes;
      std::fclose(f);
      out.samples.resize(frames);
      for (std::size_t i = 0; i < frames; ++i) {
        float acc = 0;
        for (int c = 0; c < channels; ++c) {
          const std::uint8_t* b = raw.data() + i * frame_bytes + 2 * static_cast<std::size_t>(c);
          const auto v = static_cast<std::int16_t>(static_cast<std::uint16_t>(b[0] | (b[1] << 8)));
          acc += static_cast<float>(v) / 32768.0f;
        }
        out.samples[i] = acc / static_cast<float>(channels);
      }
      return out;
    } else {
      skip(size);
    }
  }
  fail("no data chunk");
  return out;  // unreachable
}

}  // namespace sonic::util
