// Reference Reed-Solomon encoder, syndromes and decoder, kept as the test
// oracles and the before-cases of bench/micro_dsp_fec: fec::ReedSolomon as
// it was before its encoder and syndromes went table-driven, general
// GF256::mul calls into heap vectors. They live in the sonic_oracles
// library, which only tests and benches link.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

namespace sonic::oracles {

// ReedSolomon(nroots).encode(data): data followed by the nroots parity
// bytes of the LFSR over g(x) = prod_{i<nroots} (x - alpha^i), one byte
// shift and nroots GF256::mul calls per data byte.
std::vector<std::uint8_t> rs_encode_reference(int nroots, std::span<const std::uint8_t> data);

// S_i = r(alpha^i) for i < nroots; byte j of `block` is the coefficient of
// x^(n-1-j) in the (shortened) codeword polynomial.
std::vector<std::uint8_t> rs_syndromes_reference(int nroots, std::span<const std::uint8_t> block);

// ReedSolomon(nroots).decode(block, erasures) on those syndromes:
// Berlekamp-Massey seeded with the erasure locator, Chien search, Forney,
// and a final syndrome check. Corrects `block` in place.
std::optional<int> rs_decode_reference(int nroots, std::span<std::uint8_t> block,
                                       std::span<const int> erasures = {});

}  // namespace sonic::oracles
