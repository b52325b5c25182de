// A one-deviate-at-a-time util::ZigguratNormal, kept as its test oracle and
// as the RF channel oracle's noise source. It builds its own layer table
// and follows the documented contract literally: draw m of the main stream
// gives candidates 2m (low half) and 2m + 1 (high half); a candidate
// outside its layer's inner rectangle is resolved on the spot from the
// side stream rng.fork(ZigguratNormal::kSideStream).
#pragma once

#include <cstdint>

#include "util/rng.hpp"

namespace sonic::oracles {

class ZigguratReference {
 public:
  explicit ZigguratReference(util::Rng rng);
  float next();

 private:
  float deviate(std::uint32_t candidate);

  util::Rng main_;
  util::Rng side_;
  std::uint32_t high_ = 0;
  bool have_high_ = false;
  double x_[257];  // layer edges: x_[0] = V / f(R), x_[1] = R, ..., x_[256] = 0
};

}  // namespace sonic::oracles
