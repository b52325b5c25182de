#include "fec/reed_solomon.hpp"

#include <algorithm>
#include <array>
#include <stdexcept>
#include <utility>

namespace sonic::fec {

GF256::GF256() {
  // Generate exp/log tables for alpha = 2, primitive polynomial 0x11d.
  int x = 1;
  for (int i = 0; i < 255; ++i) {
    exp_[i] = static_cast<std::uint8_t>(x);
    log_[x] = i;
    x <<= 1;
    if (x & 0x100) x ^= 0x11d;
  }
  for (int i = 255; i < 512; ++i) exp_[i] = exp_[i - 255];
  log_[0] = -1;
  for (int i = 0; i < kTimesAlphaRows; ++i) {
    for (int x = 0; x < 256; ++x) times_alpha_[i][x] = mul(static_cast<std::uint8_t>(x), exp(i));
  }
}

const GF256& GF256::instance() {
  static const GF256 gf;
  return gf;
}

std::uint8_t GF256::mul(std::uint8_t a, std::uint8_t b) const {
  if (a == 0 || b == 0) return 0;
  return exp_[log_[a] + log_[b]];
}

std::uint8_t GF256::div(std::uint8_t a, std::uint8_t b) const {
  if (a == 0) return 0;
  return exp_[log_[a] - log_[b] + 255];
}

std::uint8_t GF256::inv(std::uint8_t a) const { return exp_[255 - log_[a]]; }

ReedSolomon::ReedSolomon(int nroots) : nroots_(nroots) {
  if (nroots < 2 || nroots > kMaxRoots) throw std::invalid_argument("rs nroots out of range");
  const GF256& gf = GF256::instance();
  // g(x) = prod_{i=0}^{nroots-1} (x - alpha^i), fcr = 0, ascending powers
  // (genpoly[nroots] == 1).
  const std::size_t n = static_cast<std::size_t>(nroots);
  std::vector<std::uint8_t> genpoly(n + 1, 0);
  genpoly[0] = 1;
  for (int i = 0; i < nroots; ++i) {
    const std::uint8_t root = gf.exp(i);
    // Multiply genpoly by (x + root); in GF(2), -root == root.
    for (std::size_t j = static_cast<std::size_t>(i) + 1; j > 0; --j) {
      genpoly[j] = static_cast<std::uint8_t>(genpoly[j - 1] ^ gf.mul(genpoly[j], root));
    }
    genpoly[0] = gf.mul(genpoly[0], root);
  }
  // Row f: f times g's coefficients of x^(nroots-1) down to x^0, byte j
  // of the row in bits 8 (j % 8) of word j / 8, the words past nroots
  // bytes zero.
  const std::size_t words = (n + 7) / 8;
  rows_.assign(256 * words, 0);
  for (std::size_t f = 0; f < 256; ++f) {
    for (std::size_t j = 0; j < n; ++j) {
      rows_[f * words + j / 8] |= std::uint64_t{gf.mul(static_cast<std::uint8_t>(f), genpoly[n - 1 - j])} << (8 * (j % 8));
    }
  }
}

namespace {

// The LFSR over W words of remainder, byte j in bits 8 (j % 8) of word
// j / 8: per data byte, the feedback is the byte XOR remainder byte 0, the
// remainder shifts down a byte (zeros enter at the top) and takes the
// feedback's row.
template <std::size_t W>
void lfsr_parity(const std::uint64_t* rows, std::span<const std::uint8_t> data, std::span<std::uint8_t> out) {
  std::uint64_t rem[W] = {};
  for (const std::uint8_t byte : data) {
    const std::uint64_t* row = rows + (byte ^ (rem[0] & 0xffu)) * W;
    for (std::size_t k = 0; k + 1 < W; ++k) rem[k] = ((rem[k] >> 8) | (rem[k + 1] << 56)) ^ row[k];
    rem[W - 1] = (rem[W - 1] >> 8) ^ row[W - 1];
  }
  for (std::size_t j = 0; j < out.size(); ++j) out[j] = static_cast<std::uint8_t>(rem[j / 8] >> (8 * (j % 8)));
}

}  // namespace

void ReedSolomon::parity(std::span<const std::uint8_t> data, std::span<std::uint8_t> out) const {
  if (static_cast<int>(data.size()) > max_data()) throw std::invalid_argument("rs payload too large");
  if (out.size() != static_cast<std::size_t>(nroots_)) throw std::invalid_argument("rs parity size mismatch");
  // Systematic encode: parity = (data * x^nroots) mod g(x). One instance
  // per remainder width, 1 to kMaxRoots / 8 words.
  const std::size_t words = (out.size() + 7) / 8;
  [&]<std::size_t... W>(std::index_sequence<W...>) {
    ((words == W + 1 ? lfsr_parity<W + 1>(rows_.data(), data, out) : void()), ...);
  }(std::make_index_sequence<kMaxRoots / 8>{});
}

util::Bytes ReedSolomon::encode(std::span<const std::uint8_t> data) const {
  util::Bytes out(data.size() + static_cast<std::size_t>(nroots_));
  std::copy(data.begin(), data.end(), out.begin());
  parity(data, std::span(out).subspan(data.size()));
  return out;
}

bool ReedSolomon::syndromes(std::span<const std::uint8_t> block,
                            std::span<std::uint8_t, kMaxRoots> synd) const {
  const GF256& gf = GF256::instance();
  const std::size_t nroots = static_cast<std::size_t>(nroots_);
  std::fill_n(synd.begin(), nroots, std::uint8_t{0});
  // Four bytes per visit to each root: its chain takes four table steps in
  // a register between a load and a store of synd[i].
  std::size_t j = 0;
  for (; j + 4 <= block.size(); j += 4) {
    const std::uint8_t b0 = block[j], b1 = block[j + 1], b2 = block[j + 2], b3 = block[j + 3];
    for (std::size_t i = 0; i < nroots; ++i) {
      const std::uint8_t* t = gf.times_alpha(static_cast<int>(i));
      synd[i] = static_cast<std::uint8_t>(t[t[t[t[synd[i]] ^ b0] ^ b1] ^ b2] ^ b3);
    }
  }
  for (; j < block.size(); ++j) {
    for (std::size_t i = 0; i < nroots; ++i) {
      synd[i] = static_cast<std::uint8_t>(gf.times_alpha(static_cast<int>(i))[synd[i]] ^ block[j]);
    }
  }
  std::uint8_t any = 0;
  for (std::size_t i = 0; i < nroots; ++i) any = static_cast<std::uint8_t>(any | synd[i]);
  return any != 0;
}

namespace {

// Chien search: the positions p < n (byte n-1-p of the block) where
// Lambda(alpha^-p) = 0, into root_p in descending p, stopping at the
// deg-th (a polynomial of degree deg has no more roots). Lambda's constant
// term is 1; term t of the others, lambda_j alpha^(-p j), is alpha to the
// log l[t] + j q at position p - q, l[t] kept below 255 and moved by 4j
// (mod 255) per four positions, so every index stays below 510, within
// exp_table. A compile-time Terms keeps the logs in registers; 0 takes
// `terms` at run time.
template <std::size_t Terms>
int chien(const GF256& gf, const int* log_start, const int* pow, std::size_t terms, int n, int deg, int* root_p) {
  constexpr std::size_t kCap = Terms > 0 ? Terms : ReedSolomon::kMaxRoots;
  const std::size_t count = Terms > 0 ? Terms : terms;
  const std::uint8_t* exp = gf.exp_table();
  std::array<int, kCap> l, step, jump;
  for (std::size_t t = 0; t < count; ++t) {
    l[t] = log_start[t];
    step[t] = pow[t];
    jump[t] = 4 * pow[t] % 255;
  }
  int roots = 0;
  int p = n - 1;
  for (; p >= 0 && roots < deg; p -= 4) {
    const int positions = std::min(p + 1, 4);
    for (int q = 0; q < positions; ++q) {
      std::uint8_t sum = 1;
      for (std::size_t t = 0; t < count; ++t) sum = static_cast<std::uint8_t>(sum ^ exp[l[t] + q * step[t]]);
      if (sum == 0) root_p[roots++] = p - q;
    }
    for (std::size_t t = 0; t < count; ++t) {
      l[t] += jump[t];
      if (l[t] >= 255) l[t] -= 255;
    }
  }
  return roots;
}

}  // namespace

std::optional<int> ReedSolomon::decode(std::span<std::uint8_t> block,
                                       std::span<const int> erasures) const {
  const GF256& gf = GF256::instance();
  const int n = static_cast<int>(block.size());
  if (n <= nroots_ || n > 255) return std::nullopt;
  if (static_cast<int>(erasures.size()) > nroots_) return std::nullopt;

  // Byte j of the block is the coefficient of x^(n-1-j) in the
  // (shortened) codeword polynomial.
  std::array<std::uint8_t, kMaxRoots> synd;
  if (!syndromes(block, synd)) return 0;

  // Polynomials in stack arrays of kMaxRoots + 1 coefficients, ascending
  // powers, zero past their used size: Lambda has at most i + 2 after BM
  // step i (the previous locator has at most i' + 1 when stored at step i',
  // and is shifted by m = i - i'), so nroots + 1 at the end.
  using Poly = std::array<std::uint8_t, kMaxRoots + 1>;

  // Erasure locator Gamma(x) = prod (1 - X_e x), X_e = alpha^(n-1-j),
  // multiplied in place, high coefficients first.
  Poly gamma{};
  gamma[0] = 1;
  std::size_t gamma_size = 1;
  for (int j : erasures) {
    if (j < 0 || j >= n) return std::nullopt;
    const std::uint8_t xe = gf.exp(n - 1 - j);
    for (std::size_t t = gamma_size; t-- > 0;) gamma[t + 1] = static_cast<std::uint8_t>(gamma[t + 1] ^ gf.mul(gamma[t], xe));
    ++gamma_size;
  }

  // Berlekamp-Massey seeded with the erasure locator (Blahut's variant):
  // find the errata locator Lambda with deg <= nroots.
  Poly lambda = gamma, prev = gamma;
  std::size_t lambda_size = gamma_size, prev_size = gamma_size;
  const int num_erasures = static_cast<int>(erasures.size());
  int big_l = num_erasures;
  std::size_t m = 1;
  std::uint8_t b = 1;
  for (int i = num_erasures; i < nroots_; ++i) {
    // Discrepancy.
    std::uint8_t delta = 0;
    for (std::size_t j = 0; j < lambda_size && j <= static_cast<std::size_t>(i); ++j) {
      delta = static_cast<std::uint8_t>(delta ^ gf.mul(lambda[j], synd[static_cast<std::size_t>(i) - j]));
    }
    if (delta == 0) {
      ++m;
      continue;
    }
    const Poly before = lambda;
    const std::size_t before_size = lambda_size;
    // lambda -= (delta / b) * x^m * prev
    const std::uint8_t coef = gf.div(delta, b);
    lambda_size = std::max(lambda_size, prev_size + m);
    for (std::size_t j = 0; j < prev_size; ++j) {
      lambda[j + m] = static_cast<std::uint8_t>(lambda[j + m] ^ gf.mul(coef, prev[j]));
    }
    if (2 * big_l <= i + num_erasures) {
      big_l = i + num_erasures + 1 - big_l;
      prev = before;
      prev_size = before_size;
      b = delta;
      m = 1;
    } else {
      ++m;
    }
  }
  while (lambda_size > 0 && lambda[lambda_size - 1] == 0) --lambda_size;
  const int deg_lambda = static_cast<int>(lambda_size) - 1;
  if (deg_lambda < 0 || deg_lambda > nroots_) return std::nullopt;

  // Chien search over the nonzero terms j >= 1 (lambda_0 is 1).
  std::array<int, kMaxRoots> term_log, term_pow;
  std::size_t terms = 0;
  for (std::size_t j = 1; j < lambda_size; ++j) {
    if (lambda[j] == 0) continue;
    const int pow = static_cast<int>(j);
    term_log[terms] = ((gf.log(lambda[j]) - (n - 1) * pow) % 255 + 255) % 255;
    term_pow[terms] = pow;
    ++terms;
  }
  std::array<int, kMaxRoots> root_p;
  int roots = 0;
  switch (terms) {
    case 1: roots = chien<1>(gf, term_log.data(), term_pow.data(), terms, n, deg_lambda, root_p.data()); break;
    case 2: roots = chien<2>(gf, term_log.data(), term_pow.data(), terms, n, deg_lambda, root_p.data()); break;
    case 3: roots = chien<3>(gf, term_log.data(), term_pow.data(), terms, n, deg_lambda, root_p.data()); break;
    case 4: roots = chien<4>(gf, term_log.data(), term_pow.data(), terms, n, deg_lambda, root_p.data()); break;
    default: roots = chien<0>(gf, term_log.data(), term_pow.data(), terms, n, deg_lambda, root_p.data()); break;
  }
  if (roots != deg_lambda) return std::nullopt;

  const std::uint8_t* exp = gf.exp_table();

  // Errata evaluator Omega(x) = S(x) * Lambda(x) mod x^nroots.
  Poly omega{};
  for (int i = 0; i < nroots_; ++i) {
    std::uint8_t acc = 0;
    for (std::size_t j = 0; j <= static_cast<std::size_t>(i) && j < lambda_size; ++j) {
      acc = static_cast<std::uint8_t>(acc ^ gf.mul(lambda[j], synd[static_cast<std::size_t>(i) - j]));
    }
    omega[static_cast<std::size_t>(i)] = acc;
  }

  // Forney (fcr = 0): e = X * Omega(X^-1) / Lambda'(X^-1) with X = alpha^p,
  // and Lambda'(X^-1) = X * odd, odd the sum of Lambda's odd terms at X^-1,
  // so e = Omega(X^-1) / odd. Positions are corrected in ascending p,
  // stopping at the first with odd = 0, and each correction moves the
  // syndromes by S_i += e * alpha^(i p), so the final check needs no second
  // pass over the block.
  for (int r = roots; r-- > 0;) {
    const int p = root_p[static_cast<std::size_t>(r)];
    std::uint8_t odd = 0;
    for (std::size_t j = 1; j < lambda_size; j += 2) {
      odd = static_cast<std::uint8_t>(odd ^ gf.mul(lambda[j], gf.exp(-p * static_cast<int>(j))));
    }
    if (odd == 0) return std::nullopt;
    // Omega(X^-1) term by term in the log domain: omega_j * alpha^(j k),
    // k = log X^-1, each exponent below 510 (exp_table's reach).
    const int k = (255 - p) % 255;
    std::uint8_t om = 0;
    for (int j = 0, e = 0; j < nroots_; ++j, e = e + k >= 255 ? e + k - 255 : e + k) {
      const std::uint8_t w = omega[static_cast<std::size_t>(j)];
      if (w != 0) om = static_cast<std::uint8_t>(om ^ exp[gf.log(w) + e]);
    }
    const std::uint8_t magnitude = gf.div(om, odd);
    const std::size_t idx = static_cast<std::size_t>(n - 1 - p);
    block[idx] = static_cast<std::uint8_t>(block[idx] ^ magnitude);
    if (magnitude == 0) continue;
    const int log_magnitude = gf.log(magnitude);
    for (int i = 0, e = 0; i < nroots_; ++i, e = e + p >= 255 ? e + p - 255 : e + p) {
      synd[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(synd[static_cast<std::size_t>(i)] ^ exp[log_magnitude + e]);
    }
  }

  // Verify: all syndromes must now vanish.
  for (std::size_t i = 0; i < static_cast<std::size_t>(nroots_); ++i) {
    if (synd[i] != 0) return std::nullopt;
  }
  return deg_lambda;
}

}  // namespace sonic::fec
