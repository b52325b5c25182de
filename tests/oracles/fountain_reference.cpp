#include "oracles/fountain_reference.hpp"

#include <algorithm>

#include "fec/fountain.hpp"
#include "util/rng.hpp"

namespace sonic::oracles {
namespace {

constexpr std::uint64_t kFountainSalt = 0x464f554e5441494eull;  // "FOUNTAIN"

}  // namespace

std::vector<std::uint32_t> fountain_neighbors_reference(std::uint32_t page_id,
                                                        std::uint32_t repair_seq, std::size_t k) {
  if (k == 0) return {};
  util::Rng rng = util::Rng(kFountainSalt ^ page_id).fork(repair_seq);
  const std::size_t degree = std::clamp<std::size_t>(k / 2 + rng.uniform_int(2), 1, k);
  std::vector<std::uint32_t> picked{static_cast<std::uint32_t>(repair_seq % k)};
  std::vector<std::uint8_t> used(k, 0);
  used[picked.front()] = 1;
  while (picked.size() < degree) {
    const auto candidate = static_cast<std::uint32_t>(rng.uniform_int(k));
    if (!used[candidate]) {
      used[candidate] = 1;
      picked.push_back(candidate);
    }
  }
  std::sort(picked.begin(), picked.end());
  return picked;
}

std::vector<std::uint32_t> fountain_neighbors(std::uint32_t page_id, std::uint32_t repair_seq,
                                              std::size_t k) {
  std::vector<std::uint8_t> mask(k, 0);
  const std::size_t degree = fec::NeighborDraw(k).draw(page_id, repair_seq, mask.data());
  std::vector<std::uint32_t> picked(degree + 1);
  std::size_t n = 0;
  for (std::size_t i = 0; i < k; ++i) {
    picked[n] = static_cast<std::uint32_t>(i);
    n += mask[i];
  }
  picked.resize(n);
  return picked;
}

LtEncoderReference::LtEncoderReference(std::uint32_t page_id, std::vector<util::Bytes> blocks)
    : page_id_(page_id), blocks_(std::move(blocks)) {}

util::Bytes LtEncoderReference::repair_symbol(std::uint32_t repair_seq) const {
  util::Bytes out(blocks_.front().size(), 0);
  for (std::uint32_t n : fountain_neighbors_reference(page_id_, repair_seq, blocks_.size())) {
    fec::xor_into(out, blocks_[n]);
  }
  return out;
}

}  // namespace sonic::oracles
