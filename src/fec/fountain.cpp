#include "fec/fountain.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <deque>
#include <stdexcept>

#include "fec/reed_solomon.hpp"
#include "util/lanes.hpp"
#include "util/rng.hpp"

namespace sonic::fec {
namespace {

constexpr std::uint64_t kFountainSalt = 0x464f554e5441494eull;  // "FOUNTAIN"

// Sanity bound on repair_seq so a corrupt value cannot make the dedup
// bitmap allocate unbounded memory. The wire carries a u16 anyway.
constexpr std::uint32_t kMaxRepairSeq = 1u << 20;

std::size_t mds_repair_points(std::size_t k) { return 255 - k; }

// L2 budget for one Four-Russians batch's membership bytes and
// accumulators; the Gray-code table (256 entries) stays in L1.
constexpr std::size_t kBatchBytes = std::size_t{1} << 20;

// 16 bytes as one vector register (SSE2/NEON width); loads and stores go
// through memcpy, so any alignment is fine.
using Vec16 = util::Lanes4::Q;

// dst ^= src over n bytes, n a multiple of 16 (the packed block stride).
void xor_block(std::uint8_t* __restrict dst, const std::uint8_t* __restrict src, std::size_t n) {
  for (std::size_t i = 0; i < n; i += 16) {
    Vec16 a, b;
    std::memcpy(&a, dst + i, 16);
    std::memcpy(&b, src + i, 16);
    a ^= b;
    std::memcpy(dst + i, &a, 16);
  }
}

// dst = a ^ b over n bytes, n a multiple of 16.
void xor_blocks(std::uint8_t* __restrict dst, const std::uint8_t* a, const std::uint8_t* b,
                std::size_t n) {
  for (std::size_t i = 0; i < n; i += 16) {
    Vec16 x, y;
    std::memcpy(&x, a + i, 16);
    std::memcpy(&y, b + i, 16);
    x ^= y;
    std::memcpy(dst + i, &x, 16);
  }
}

}  // namespace

void xor_into(util::Bytes& dst, std::span<const std::uint8_t> src) {
  std::uint8_t* d = dst.data();
  const std::uint8_t* s = src.data();
  const std::size_t n = dst.size();
  // memcpy-based uint64 loads/stores: well-defined at any alignment, and the
  // compiler lowers the loop to full-width vector XORs.
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    std::uint64_t a, b;
    std::memcpy(&a, d + i, 8);
    std::memcpy(&b, s + i, 8);
    a ^= b;
    std::memcpy(d + i, &a, 8);
  }
  for (; i < n; ++i) d[i] ^= s[i];
}

NeighborDraw::NeighborDraw(std::size_t k)
    : k_(k),
      limit_(~0ull - (~0ull % std::max<std::size_t>(k, 1))),
      mod_k_(std::max<std::size_t>(k, 1)) {}

std::size_t NeighborDraw::draw(std::uint32_t page_id, std::uint32_t repair_seq,
                               std::uint8_t* mask) const {
  if (k_ == 0) return 0;
  util::Rng rng = util::Rng(kFountainSalt ^ page_id).fork(repair_seq);

  // Dense (degree ~ k/2): each dense equation among the excess symbols
  // halves the residual system's null space, so rank failures decay
  // geometrically with overhead at any loss rate.
  const std::size_t degree = std::clamp<std::size_t>(k_ / 2 + rng.uniform_int(2), 1, k_);

  // The forced member repair_seq % k is the cyclic coverage walk: any k
  // consecutive repair symbols touch every source block, so no loss pattern
  // can leave a block outside every received equation for long.
  mask[repair_seq % k_] = 1;
  std::size_t picked = 1;
  // Locals, so the byte stores into mask cannot alias them and they stay in
  // registers.
  const std::uint64_t limit = limit_;
  const ExactRemainder mod_k = mod_k_;
  while (picked < degree) {
    // Rng::uniform_int(k), step for step; a draw already in the set is
    // skipped without a branch.
    const std::uint64_t v = rng.next();
    if (v >= limit) continue;
    const std::uint64_t candidate = mod_k(v);
    picked += mask[candidate] ^ 1u;
    mask[candidate] = 1;
  }
  return degree;
}

FountainEncoder::FountainEncoder(std::uint32_t page_id, std::vector<util::Bytes> blocks)
    : page_id_(page_id), k_(blocks.size()), draw_(blocks.size()) {
  if (blocks.empty()) throw std::invalid_argument("FountainEncoder needs at least one block");
  block_size_ = blocks.front().size();
  stride_ = (block_size_ + 15) / 16 * 16;
  packed_.assign((k_ + 7) / 8 * 8 * stride_, 0);
  batch_ = std::max(kFourRussiansMinBatch, kBatchBytes / ((k_ + 7) / 8 + stride_));
  for (std::size_t i = 0; i < k_; ++i) {
    if (blocks[i].size() != block_size_) {
      throw std::invalid_argument("FountainEncoder blocks must all be the same size");
    }
    std::copy(blocks[i].begin(), blocks[i].end(), packed_.begin() + i * stride_);
  }
  if (mds_mode()) {
    // Lagrange denominators over the source points 0..k-1:
    // D_i = prod_{j != i} (i - j), with subtraction = XOR in GF(2^8).
    const GF256& gf = GF256::instance();
    lagrange_denom_.resize(k_, 1);
    for (std::size_t i = 0; i < k_; ++i) {
      std::uint8_t d = 1;
      for (std::size_t j = 0; j < k_; ++j) {
        if (j != i) d = gf.mul(d, static_cast<std::uint8_t>(i ^ j));
      }
      lagrange_denom_[i] = d;
    }
  }
}

util::Bytes FountainEncoder::repair_symbol(std::uint32_t repair_seq) const {
  return std::move(repair_symbols(std::span(&repair_seq, 1)).front());
}

std::vector<util::Bytes> FountainEncoder::repair_symbols(
    std::span<const std::uint32_t> repair_seqs) const {
  std::vector<util::Bytes> out(repair_seqs.size(), util::Bytes(block_size_, 0));
  if (mds_mode()) {
    for (std::size_t i = 0; i < repair_seqs.size(); ++i) mds_symbol(repair_seqs[i], out[i].data());
  } else if (repair_seqs.size() < kFourRussiansMinBatch) {
    direct_symbols(repair_seqs, out.data());
  } else {
    four_russians_symbols(repair_seqs, out.data());
  }
  return out;
}

void FountainEncoder::mds_symbol(std::uint32_t repair_seq, std::uint8_t* out) const {
  // Evaluate the interpolating polynomial (degree < k through the source
  // blocks at points 0..k-1) at repair point p — bytewise, one polynomial
  // per byte column, but the Lagrange coefficients are shared:
  //   L_i(p) = N(p) / ((p - i) * D_i),  N(p) = prod_j (p - j).
  const GF256& gf = GF256::instance();
  const auto p = static_cast<std::uint8_t>(k_ + repair_seq % mds_repair_points(k_));
  std::uint8_t numer = 1;
  for (std::size_t j = 0; j < k_; ++j) numer = gf.mul(numer, static_cast<std::uint8_t>(p ^ j));
  for (std::size_t i = 0; i < k_; ++i) {
    const std::uint8_t coeff =
        gf.div(gf.div(numer, static_cast<std::uint8_t>(p ^ i)), lagrange_denom_[i]);
    const std::uint8_t* src = block_ptr(i);
    for (std::size_t b = 0; b < block_size_; ++b) out[b] ^= gf.mul(coeff, src[b]);
  }
}

void FountainEncoder::direct_symbols(std::span<const std::uint32_t> seqs, util::Bytes* out) const {
  std::vector<std::uint8_t> acc(stride_);
  std::vector<std::uint8_t> mask(k_);
  for (std::size_t s = 0; s < seqs.size(); ++s) {
    std::fill(acc.begin(), acc.end(), 0);
    std::fill(mask.begin(), mask.end(), 0);
    draw_.draw(page_id_, seqs[s], mask.data());
    for (std::size_t i = 0; i < k_; ++i) {
      if (mask[i]) xor_block(acc.data(), block_ptr(i), stride_);
    }
    std::copy_n(acc.begin(), block_size_, out[s].begin());
  }
}

void FountainEncoder::four_russians_symbols(std::span<const std::uint32_t> seqs,
                                            util::Bytes* out) const {
  // Method of Four Russians over GF(2): a symbol is the product of its
  // membership row with the block matrix. Per chunk of 8 blocks, all 256
  // XOR combinations go into a table, and each symbol of the batch takes
  // the one entry its membership byte names — one block XOR per symbol per
  // chunk instead of ~4, plus 255 table XORs shared by the batch.
  const std::size_t chunks = (k_ + 7) / 8;
  const std::size_t batch = std::min(seqs.size(), batch_);
  std::vector<std::uint8_t> mask(chunks * 8, 0);
  std::vector<std::uint8_t> member(chunks * batch);  // chunk-major membership bytes
  std::vector<std::uint8_t> acc(batch * stride_);
  std::vector<std::uint8_t> table(256 * stride_, 0);  // entry 0 stays zero
  for (std::size_t first = 0; first < seqs.size(); first += batch) {
    const std::size_t n = std::min(batch, seqs.size() - first);
    for (std::size_t s = 0; s < n; ++s) {
      draw_.draw(page_id_, seqs[first + s], mask.data());
      for (std::size_t c = 0; c < chunks; ++c) {
        std::uint64_t bytes;
        std::memcpy(&bytes, mask.data() + 8 * c, 8);
        // Gathers the 0/1 mask bytes into one byte: bit j = block 8c + j
        // (byte j of a little-endian load sits at bit 8j).
        static_assert(std::endian::native == std::endian::little);
        member[c * batch + s] = static_cast<std::uint8_t>((bytes * 0x0102040810204080ull) >> 56);
      }
      std::fill(mask.begin(), mask.end(), 0);
    }
    std::fill(acc.begin(), acc.begin() + static_cast<std::ptrdiff_t>(n * stride_), 0);
    for (std::size_t c = 0; c < chunks; ++c) {
      // Gray-code order: entry gray(g) differs from entry gray(g - 1) by
      // block ctz(g), so each entry costs one block XOR.
      const std::uint8_t* blocks = block_ptr(8 * c);
      for (unsigned g = 1; g < 256; ++g) {
        const unsigned cur = g ^ (g >> 1);
        const unsigned prev = (g - 1) ^ ((g - 1) >> 1);
        xor_blocks(table.data() + cur * stride_, table.data() + prev * stride_,
                   blocks + static_cast<std::size_t>(std::countr_zero(g)) * stride_, stride_);
      }
      const std::uint8_t* row = member.data() + c * batch;
      for (std::size_t s = 0; s < n; ++s) {
        if (row[s]) xor_block(acc.data() + s * stride_, table.data() + row[s] * stride_, stride_);
      }
    }
    for (std::size_t s = 0; s < n; ++s) {
      std::copy_n(acc.begin() + static_cast<std::ptrdiff_t>(s * stride_), block_size_,
                  out[first + s].begin());
    }
  }
}

FountainDecoder::FountainDecoder(std::uint32_t page_id, std::size_t k, std::size_t block_size)
    : page_id_(page_id), k_(k), block_size_(block_size), blocks_(k), known_(k, 0), draw_(k) {
  if (mds_mode()) {
    point_known_.assign(255, 0);
    point_value_.resize(255);
  } else {
    by_unknown_.resize(k);
    member_mask_.assign(k, 0);
  }
}

bool FountainDecoder::has_block(std::size_t index) const {
  return index < k_ && known_[index] != 0;
}

void FountainDecoder::learn(std::size_t index, util::Bytes value) {
  // Worklist cascade: committing one block can release degree-1 equations,
  // whose blocks release more. Kept iterative so a long ripple on a
  // 400-frame page cannot overflow the stack.
  std::deque<std::pair<std::size_t, util::Bytes>> pending;
  pending.emplace_back(index, std::move(value));
  while (!pending.empty()) {
    auto [i, v] = std::move(pending.front());
    pending.pop_front();
    if (known_[i]) continue;
    known_[i] = 1;
    blocks_[i] = std::move(v);
    ++decoded_count_;
    for (std::uint32_t id : by_unknown_[i]) {
      Equation& eq = equations_[id];
      if (eq.spent) continue;
      const auto it = std::lower_bound(eq.unknowns.begin(), eq.unknowns.end(),
                                       static_cast<std::uint32_t>(i));
      if (it == eq.unknowns.end() || *it != i) continue;
      eq.unknowns.erase(it);
      xor_into(eq.value, blocks_[i]);
      if (eq.unknowns.size() == 1) {
        eq.spent = true;
        pending.emplace_back(eq.unknowns.front(), std::move(eq.value));
      } else if (eq.unknowns.empty()) {
        eq.spent = true;
      }
    }
    by_unknown_[i].clear();
  }
}

bool FountainDecoder::add_source(std::size_t index, std::span<const std::uint8_t> block) {
  if (index >= k_ || block.size() != block_size_ || known_[index]) return false;
  ++sources_received_;
  if (mds_mode()) {
    point_known_[index] = 1;
    point_value_[index] = util::Bytes(block.begin(), block.end());
    point_order_.push_back(static_cast<std::uint8_t>(index));
    blocks_[index] = point_value_[index];
    known_[index] = 1;
    ++decoded_count_;
    if (!decoded() && point_order_.size() >= k_) mds_interpolate();
    return true;
  }
  learn(index, util::Bytes(block.begin(), block.end()));
  return true;
}

bool FountainDecoder::add_repair(std::uint32_t repair_seq, std::span<const std::uint8_t> symbol) {
  if (symbol.size() != block_size_ || repair_seq >= kMaxRepairSeq || k_ == 0) return false;
  if (mds_mode()) {
    // Dedup by evaluation point: wrapped repair seqs carry identical bytes.
    const std::size_t p = k_ + repair_seq % mds_repair_points(k_);
    if (point_known_[p]) return false;
    point_known_[p] = 1;
    point_value_[p] = util::Bytes(symbol.begin(), symbol.end());
    point_order_.push_back(static_cast<std::uint8_t>(p));
    ++repairs_received_;
    if (!decoded() && point_order_.size() >= k_) mds_interpolate();
    return true;
  }
  if (repair_seq < seen_repair_.size() && seen_repair_[repair_seq]) return false;
  if (repair_seq >= seen_repair_.size()) seen_repair_.resize(repair_seq + 1, 0);
  seen_repair_[repair_seq] = 1;
  ++repairs_received_;

  util::Bytes value(symbol.begin(), symbol.end());
  const std::size_t degree = draw_.draw(page_id_, repair_seq, member_mask_.data());
  // Branch-free compaction of the members in index order: the known ones
  // are XORed out of the value, the rest become the equation's unknowns.
  std::vector<std::uint32_t> unknowns(degree + 1);
  std::vector<std::uint32_t> knowns(degree + 1);
  std::size_t num_unknown = 0;
  std::size_t num_known = 0;
  for (std::size_t i = 0; i < k_; ++i) {
    const std::uint8_t member = member_mask_[i];
    const std::uint8_t known = known_[i];
    unknowns[num_unknown] = static_cast<std::uint32_t>(i);
    knowns[num_known] = static_cast<std::uint32_t>(i);
    num_unknown += member & (known ^ 1u);
    num_known += member & known;
    member_mask_[i] = 0;
  }
  unknowns.resize(num_unknown);
  for (std::size_t j = 0; j < num_known; ++j) xor_into(value, blocks_[knowns[j]]);
  if (unknowns.empty()) return true;  // redundant, but a valid new symbol
  if (unknowns.size() == 1) {
    learn(unknowns.front(), std::move(value));
    return true;
  }
  const auto id = static_cast<std::uint32_t>(equations_.size());
  for (std::uint32_t n : unknowns) by_unknown_[n].push_back(id);
  equations_.push_back(Equation{std::move(unknowns), std::move(value), false});
  return true;
}

void FountainDecoder::mds_interpolate() {
  // Any k distinct points determine the degree-<k polynomial; recover each
  // missing source point m by Lagrange interpolation over the first k
  // received points S: block[m] = sum_{j in S} L_j^S(m) * value[j].
  const GF256& gf = GF256::instance();
  std::span<const std::uint8_t> s(point_order_.data(), k_);

  // D_j = prod_{s in S, s != j} (j - s), shared across every missing m.
  std::vector<std::uint8_t> denom(k_, 1);
  for (std::size_t a = 0; a < k_; ++a) {
    std::uint8_t d = 1;
    for (std::size_t b = 0; b < k_; ++b) {
      if (b != a) d = gf.mul(d, static_cast<std::uint8_t>(s[a] ^ s[b]));
    }
    denom[a] = d;
  }

  for (std::size_t m = 0; m < k_; ++m) {
    if (known_[m]) continue;
    // m is not in S (it was never received), so every factor is nonzero.
    std::uint8_t numer = 1;
    for (std::size_t a = 0; a < k_; ++a) {
      numer = gf.mul(numer, static_cast<std::uint8_t>(m ^ s[a]));
    }
    util::Bytes out(block_size_, 0);
    for (std::size_t a = 0; a < k_; ++a) {
      const std::uint8_t coeff =
          gf.div(gf.div(numer, static_cast<std::uint8_t>(m ^ s[a])), denom[a]);
      const util::Bytes& src = point_value_[s[a]];
      for (std::size_t b = 0; b < block_size_; ++b) out[b] ^= gf.mul(coeff, src[b]);
    }
    blocks_[m] = std::move(out);
    known_[m] = 1;
    ++decoded_count_;
  }
}

bool FountainDecoder::complete() {
  if (decoded()) return true;
  if (mds_mode()) return false;  // MDS decodes eagerly on the k-th symbol
  gaussian_fallback();
  return decoded();
}

bool FountainDecoder::gaussian_fallback() {
  const std::size_t u = k_ - decoded_count_;
  if (u == 0) return true;
  if (u > FountainParams::max_ge_unknowns) return false;

  // Map unknown source index -> dense column.
  std::vector<std::uint32_t> unknown_of_col;
  std::vector<std::int32_t> col_of(k_, -1);
  for (std::size_t i = 0; i < k_; ++i) {
    if (!known_[i]) {
      col_of[i] = static_cast<std::int32_t>(unknown_of_col.size());
      unknown_of_col.push_back(static_cast<std::uint32_t>(i));
    }
  }

  struct Row {
    std::vector<std::uint64_t> bits;
    util::Bytes value;
  };
  const std::size_t words = (u + 63) / 64;
  std::vector<Row> rows;
  for (const Equation& eq : equations_) {
    if (eq.spent || eq.unknowns.empty()) continue;
    Row row{std::vector<std::uint64_t>(words, 0), eq.value};
    for (std::uint32_t n : eq.unknowns) {
      const auto col = static_cast<std::size_t>(col_of[n]);
      row.bits[col / 64] |= 1ull << (col % 64);
    }
    rows.push_back(std::move(row));
  }
  if (rows.empty()) return false;

  // Gauss-Jordan over GF(2): after full reduction, any row with exactly one
  // remaining bit pins down one source block.
  std::size_t pivot_row = 0;
  for (std::size_t col = 0; col < u && pivot_row < rows.size(); ++col) {
    const std::size_t word = col / 64;
    const std::uint64_t mask = 1ull << (col % 64);
    std::size_t found = rows.size();
    for (std::size_t r = pivot_row; r < rows.size(); ++r) {
      if (rows[r].bits[word] & mask) {
        found = r;
        break;
      }
    }
    if (found == rows.size()) continue;
    std::swap(rows[pivot_row], rows[found]);
    for (std::size_t r = 0; r < rows.size(); ++r) {
      if (r == pivot_row || !(rows[r].bits[word] & mask)) continue;
      for (std::size_t w = 0; w < words; ++w) rows[r].bits[w] ^= rows[pivot_row].bits[w];
      xor_into(rows[r].value, rows[pivot_row].value);
    }
    ++pivot_row;
  }

  bool progress = false;
  for (Row& row : rows) {
    int popcount = 0;
    std::size_t col = 0;
    for (std::size_t w = 0; w < words && popcount <= 1; ++w) {
      std::uint64_t bits = row.bits[w];
      while (bits) {
        const int bit = std::countr_zero(bits);
        bits &= bits - 1;
        col = w * 64 + static_cast<std::size_t>(bit);
        ++popcount;
        if (popcount > 1) break;
      }
    }
    if (popcount != 1) continue;
    const std::uint32_t source = unknown_of_col[col];
    if (known_[source]) continue;  // solved earlier in this loop via cascade
    learn(source, std::move(row.value));
    progress = true;
  }
  return progress;
}

}  // namespace sonic::fec
