#include "common/bitvec.hpp"

#include <bit>

#include "common/rng.hpp"

namespace bpim {

void BitVector::randomize(Rng& rng) {
  for (auto& w : words()) w = rng.next_u64();
  trim();
}

std::size_t BitVector::popcount() const {
  std::size_t n = 0;
  for (const auto w : words()) n += static_cast<std::size_t>(std::popcount(w));
  return n;
}

std::string BitVector::to_string() const {
  std::string s;
  s.reserve(size_);
  for (std::size_t i = size_; i-- > 0;) s.push_back(get(i) ? '1' : '0');
  return s;
}

}  // namespace bpim
