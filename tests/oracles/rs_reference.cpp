#include "oracles/rs_reference.hpp"

#include <algorithm>

#include "fec/reed_solomon.hpp"

namespace sonic::oracles {

std::vector<std::uint8_t> rs_encode_reference(int nroots, std::span<const std::uint8_t> data) {
  const fec::GF256& gf = fec::GF256::instance();
  // g(x) = prod_{i=0}^{nroots-1} (x - alpha^i), ascending powers.
  std::vector<std::uint8_t> genpoly(static_cast<std::size_t>(nroots) + 1, 0);
  genpoly[0] = 1;
  for (int i = 0; i < nroots; ++i) {
    const std::uint8_t root = gf.exp(i);
    for (int j = i + 1; j > 0; --j) {
      genpoly[static_cast<std::size_t>(j)] = static_cast<std::uint8_t>(
          genpoly[static_cast<std::size_t>(j - 1)] ^ gf.mul(genpoly[static_cast<std::size_t>(j)], root));
    }
    genpoly[0] = gf.mul(genpoly[0], root);
  }
  std::vector<std::uint8_t> parity(static_cast<std::size_t>(nroots), 0);
  for (std::uint8_t byte : data) {
    const std::uint8_t feedback = static_cast<std::uint8_t>(byte ^ parity[0]);
    std::copy(parity.begin() + 1, parity.end(), parity.begin());
    parity.back() = 0;
    if (feedback != 0) {
      for (int j = 0; j < nroots; ++j) {
        parity[static_cast<std::size_t>(j)] = static_cast<std::uint8_t>(
            parity[static_cast<std::size_t>(j)] ^ gf.mul(feedback, genpoly[static_cast<std::size_t>(nroots - 1 - j)]));
      }
    }
  }
  std::vector<std::uint8_t> out(data.begin(), data.end());
  out.insert(out.end(), parity.begin(), parity.end());
  return out;
}

std::vector<std::uint8_t> rs_syndromes_reference(int nroots, std::span<const std::uint8_t> block) {
  const fec::GF256& gf = fec::GF256::instance();
  const int n = static_cast<int>(block.size());
  std::vector<std::uint8_t> synd(static_cast<std::size_t>(nroots), 0);
  for (int i = 0; i < nroots; ++i) {
    std::uint8_t s = 0;
    const std::uint8_t a = gf.exp(i);
    for (int j = 0; j < n; ++j) s = static_cast<std::uint8_t>(gf.mul(s, a) ^ block[static_cast<std::size_t>(j)]);
    synd[static_cast<std::size_t>(i)] = s;
  }
  return synd;
}

std::optional<int> rs_decode_reference(int nroots, std::span<std::uint8_t> block,
                                       std::span<const int> erasures) {
  const fec::GF256& gf = fec::GF256::instance();
  const int n = static_cast<int>(block.size());
  if (n <= nroots || n > 255) return std::nullopt;
  if (static_cast<int>(erasures.size()) > nroots) return std::nullopt;

  const std::vector<std::uint8_t> synd = rs_syndromes_reference(nroots, block);
  const bool all_zero = std::all_of(synd.begin(), synd.end(), [](std::uint8_t s) { return s == 0; });
  if (all_zero) return 0;

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
  for (int i = num_erasures; i < nroots; ++i) {
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
  if (deg_lambda < 0 || deg_lambda > nroots) return std::nullopt;

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
  std::vector<std::uint8_t> omega(static_cast<std::size_t>(nroots), 0);
  for (int i = 0; i < nroots; ++i) {
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
  for (std::uint8_t s : rs_syndromes_reference(nroots, block)) {
    if (s != 0) return std::nullopt;
  }
  return deg_lambda;
}

}  // namespace sonic::oracles
