#include "array/sram_array.hpp"

namespace bpim::array {

SramArray::SramArray(const ArrayGeometry& g) : geom_(g) {
  BPIM_REQUIRE(g.rows > 0 && g.cols > 0, "array must be non-empty");
  BPIM_REQUIRE(g.interleave > 0 && g.cols % g.interleave == 0,
               "columns must be a multiple of the interleave factor");
  main_.assign(g.rows, BitVector(g.cols));
  dummy_.assign(g.dummy_rows, BitVector(g.cols));
}

void SramArray::write_row(RowRef r, const BitVector& data) {
  BPIM_REQUIRE(data.size() == geom_.cols, "row width mismatch");
  row_mut(r) = data;
}

void SramArray::set(RowRef r, std::size_t col, bool v) {
  BPIM_REQUIRE(col < geom_.cols, "column out of range");
  row_mut(r).set(col, v);
}

std::uint64_t SramArray::extract_bits(RowRef r, std::size_t col, std::size_t len) const {
  BPIM_REQUIRE(len <= 64 && col + len <= geom_.cols, "column range out of range");
  return row(r).extract_bits(col, len);
}

void SramArray::deposit_bits(RowRef r, std::size_t col, std::size_t len, std::uint64_t value) {
  BPIM_REQUIRE(len <= 64 && col + len <= geom_.cols, "column range out of range");
  row_mut(r).deposit_bits(col, len, value);
}

void SramArray::compute_dual(RowRef a, RowRef b, BlReadout& out) const {
  BPIM_REQUIRE(!(a == b), "dual-WL compute needs two distinct rows");
  if (separated_) {
    BPIM_REQUIRE(a.is_dummy() == b.is_dummy(),
                 "cross-segment dual-WL access while BL separator is open");
  }
  sense(row(a), row(b), out);
}

void SramArray::read_single(RowRef r, BlReadout& out) const {
  const BitVector& data = row(r);
  sense(data, data, out);  // one cell per column: AND = A, NOR = NOT A
}

void SramArray::sense(const BitVector& ra, const BitVector& rb, BlReadout& out) {
  // Both SA outputs in one pass over the words, straight into the latch.
  out.bl_and.reset(ra.size());
  out.bl_nor.reset(ra.size());
  for (std::size_t k = 0, n = ra.word_count(); k < n; ++k) {
    out.bl_and.set_word(k, ra.word(k) & rb.word(k));
    out.bl_nor.set_word(k, ~(ra.word(k) | rb.word(k)));
  }
}

std::size_t SramArray::toggle_count(RowRef r, const BitVector& incoming) const {
  return (row(r) ^ incoming).popcount();
}

}  // namespace bpim::array
