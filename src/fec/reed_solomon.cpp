#include "fec/reed_solomon.hpp"

#include <algorithm>
#include <array>
#include <stdexcept>

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
  // g(x) = prod_{i=0}^{nroots-1} (x - alpha^i), fcr = 0.
  genpoly_.assign(static_cast<std::size_t>(nroots) + 1, 0);
  genpoly_[0] = 1;
  for (int i = 0; i < nroots; ++i) {
    const std::uint8_t root = gf.exp(i);
    // Multiply genpoly by (x + root); in GF(2), -root == root.
    for (int j = i + 1; j > 0; --j) {
      genpoly_[static_cast<std::size_t>(j)] = static_cast<std::uint8_t>(
          genpoly_[static_cast<std::size_t>(j - 1)] ^
          gf.mul(genpoly_[static_cast<std::size_t>(j)], root));
    }
    genpoly_[0] = gf.mul(genpoly_[0], root);
  }
}

util::Bytes ReedSolomon::encode(std::span<const std::uint8_t> data) const {
  if (static_cast<int>(data.size()) > max_data())
    throw std::invalid_argument("rs payload too large");
  const GF256& gf = GF256::instance();
  // Systematic encode: parity = (data * x^nroots) mod genpoly, via LFSR.
  std::vector<std::uint8_t> parity(static_cast<std::size_t>(nroots_), 0);
  for (std::uint8_t byte : data) {
    const std::uint8_t feedback = static_cast<std::uint8_t>(byte ^ parity[0]);
    std::copy(parity.begin() + 1, parity.end(), parity.begin());
    parity.back() = 0;
    if (feedback != 0) {
      for (int j = 0; j < nroots_; ++j) {
        parity[static_cast<std::size_t>(j)] = static_cast<std::uint8_t>(
            parity[static_cast<std::size_t>(j)] ^
            gf.mul(feedback, genpoly_[static_cast<std::size_t>(nroots_ - 1 - j)]));
      }
    }
  }
  util::Bytes out(data.begin(), data.end());
  out.insert(out.end(), parity.begin(), parity.end());
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

  // Erasure locator Gamma(x) = prod (1 - X_e x), X_e = alpha^(n-1-j).
  std::vector<std::uint8_t> gamma{1};
  for (int j : erasures) {
    if (j < 0 || j >= n) return std::nullopt;
    const std::uint8_t xe = gf.exp(n - 1 - j);
    std::vector<std::uint8_t> next(gamma.size() + 1, 0);
    for (std::size_t t = 0; t < gamma.size(); ++t) {
      next[t] = static_cast<std::uint8_t>(next[t] ^ gamma[t]);
      next[t + 1] = static_cast<std::uint8_t>(next[t + 1] ^ gf.mul(gamma[t], xe));
    }
    gamma = std::move(next);
  }

  // Berlekamp-Massey seeded with the erasure locator (Blahut's variant):
  // find the errata locator Lambda with deg <= nroots.
  std::vector<std::uint8_t> lambda = gamma;
  std::vector<std::uint8_t> prev = gamma;
  int num_erasures = static_cast<int>(erasures.size());
  int big_l = num_erasures;
  int m = 1;
  std::uint8_t b = 1;
  for (int i = num_erasures; i < nroots_; ++i) {
    // Discrepancy.
    std::uint8_t delta = 0;
    for (std::size_t j = 0; j < lambda.size() && j <= static_cast<std::size_t>(i); ++j) {
      delta = static_cast<std::uint8_t>(delta ^ gf.mul(lambda[j], synd[static_cast<std::size_t>(i) - j]));
    }
    if (delta == 0) {
      ++m;
      continue;
    }
    if (2 * big_l <= i + num_erasures) {
      std::vector<std::uint8_t> t = lambda;
      const std::uint8_t coef = gf.div(delta, b);
      // lambda -= coef * x^m * prev
      if (lambda.size() < prev.size() + static_cast<std::size_t>(m)) lambda.resize(prev.size() + static_cast<std::size_t>(m), 0);
      for (std::size_t j = 0; j < prev.size(); ++j) {
        lambda[j + static_cast<std::size_t>(m)] =
            static_cast<std::uint8_t>(lambda[j + static_cast<std::size_t>(m)] ^ gf.mul(coef, prev[j]));
      }
      big_l = i + num_erasures + 1 - big_l;
      prev = std::move(t);
      b = delta;
      m = 1;
    } else {
      const std::uint8_t coef = gf.div(delta, b);
      if (lambda.size() < prev.size() + static_cast<std::size_t>(m)) lambda.resize(prev.size() + static_cast<std::size_t>(m), 0);
      for (std::size_t j = 0; j < prev.size(); ++j) {
        lambda[j + static_cast<std::size_t>(m)] =
            static_cast<std::uint8_t>(lambda[j + static_cast<std::size_t>(m)] ^ gf.mul(coef, prev[j]));
      }
      ++m;
    }
  }
  while (!lambda.empty() && lambda.back() == 0) lambda.pop_back();
  const int deg_lambda = static_cast<int>(lambda.size()) - 1;
  if (deg_lambda < 0 || deg_lambda > nroots_) return std::nullopt;

  // Chien search: roots of Lambda give error positions.
  std::vector<int> error_pos;  // byte indexes into block
  for (int p = 0; p < n; ++p) {
    // Candidate locator X = alpha^p corresponds to byte index n-1-p;
    // test Lambda(X^{-1}) == 0.
    std::uint8_t sum = 0;
    for (std::size_t j = 0; j < lambda.size(); ++j) {
      sum = static_cast<std::uint8_t>(sum ^ gf.mul(lambda[j], gf.exp(static_cast<int>((255 - p) % 255) * static_cast<int>(j))));
    }
    if (sum == 0) error_pos.push_back(n - 1 - p);
  }
  if (static_cast<int>(error_pos.size()) != deg_lambda) return std::nullopt;

  // Errata evaluator Omega(x) = S(x) * Lambda(x) mod x^nroots.
  std::vector<std::uint8_t> omega(static_cast<std::size_t>(nroots_), 0);
  for (int i = 0; i < nroots_; ++i) {
    std::uint8_t acc = 0;
    for (std::size_t j = 0; j <= static_cast<std::size_t>(i) && j < lambda.size(); ++j) {
      acc = static_cast<std::uint8_t>(acc ^ gf.mul(lambda[j], synd[static_cast<std::size_t>(i) - j]));
    }
    omega[static_cast<std::size_t>(i)] = acc;
  }

  // Forney: e_k = X_k * Omega(X_k^{-1}) / Lambda'(X_k^{-1})   (fcr = 0).
  for (int idx : error_pos) {
    const int p = n - 1 - idx;                 // power of the position
    const int inv_log = (255 - p) % 255;       // log of X^{-1}
    std::uint8_t om = 0;
    for (std::size_t j = 0; j < omega.size(); ++j) {
      om = static_cast<std::uint8_t>(om ^ gf.mul(omega[j], gf.exp(inv_log * static_cast<int>(j))));
    }
    // Lambda'(x): formal derivative keeps odd-power terms shifted down.
    std::uint8_t lp = 0;
    for (std::size_t j = 1; j < lambda.size(); j += 2) {
      lp = static_cast<std::uint8_t>(lp ^ gf.mul(lambda[j], gf.exp(inv_log * static_cast<int>(j - 1))));
    }
    if (lp == 0) return std::nullopt;
    const std::uint8_t magnitude = gf.mul(gf.exp(p), gf.div(om, lp));
    block[static_cast<std::size_t>(idx)] = static_cast<std::uint8_t>(block[static_cast<std::size_t>(idx)] ^ magnitude);
  }

  // Verify: all syndromes must now vanish.
  if (syndromes(block, synd)) return std::nullopt;
  return deg_lambda;
}

}  // namespace sonic::fec
