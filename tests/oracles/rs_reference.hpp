// Reference Reed-Solomon syndromes and decoder, kept as the test oracle and
// the before-case of bench/micro_dsp_fec: fec::ReedSolomon::decode as it
// was before its syndromes went table-driven, one Horner chain per root of
// general GF256::mul calls into a heap vector. It lives in the
// sonic_oracles library, which only tests and benches link.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

namespace sonic::oracles {

// S_i = r(alpha^i) for i < nroots; byte j of `block` is the coefficient of
// x^(n-1-j) in the (shortened) codeword polynomial.
std::vector<std::uint8_t> rs_syndromes_reference(int nroots, std::span<const std::uint8_t> block);

// ReedSolomon(nroots).decode(block, erasures) on those syndromes:
// Berlekamp-Massey seeded with the erasure locator, Chien search, Forney,
// and a final syndrome check. Corrects `block` in place.
std::optional<int> rs_decode_reference(int nroots, std::span<std::uint8_t> block,
                                       std::span<const int> erasures = {});

}  // namespace sonic::oracles
