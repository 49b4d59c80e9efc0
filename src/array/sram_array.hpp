#pragma once
// Functional model of the 6T SRAM cell array with the IMC extensions of the
// paper's Fig 3: a main array (rows x cols), three dummy rows below the BL
// separator, and the bit-line compute primitives.
//
// Bit-line compute semantics (precharged BLT/BLB pair, then WL activation):
//   dual WL (rows A and B):   SA(BLT) = A AND B      SA(BLB) = NOR(A, B)
//   single WL (row A):        SA(BLT) = A            SA(BLB) = NOT A
// BLT stays high only if no accessed cell stores 0; BLB stays high only if
// no accessed cell stores 1.
//
// The BL separator is a pass-gate in every column between the main segment
// and the dummy segment. When open (separated), accesses restricted to the
// dummy rows see only the short segment -- the energy and write-back-delay
// win the paper attributes to the separator. The functional results are
// identical either way; the state is tracked so the energy ledger and the
// sequencer can price accesses correctly and so illegal cross-segment
// accesses while separated are caught.

#include <cstddef>
#include <utility>
#include <vector>

#include "common/bitvec.hpp"
#include "common/require.hpp"

namespace bpim::macro {
class ImcMacro;
}  // namespace bpim::macro

namespace bpim::array {

struct ArrayGeometry {
  std::size_t rows = 128;
  std::size_t cols = 128;
  std::size_t dummy_rows = 3;
  /// Column interleaving of the peripheral units (addressing/layout only;
  /// compute engages all columns -- see DESIGN.md).
  std::size_t interleave = 4;
  friend bool operator==(const ArrayGeometry&, const ArrayGeometry&) = default;
};

/// Addresses either a main-array row or a dummy row.
struct RowRef {
  enum class Kind { Main, Dummy } kind = Kind::Main;
  std::size_t index = 0;

  static RowRef main(std::size_t r) { return {Kind::Main, r}; }
  static RowRef dummy(std::size_t d) { return {Kind::Dummy, d}; }
  [[nodiscard]] bool is_dummy() const { return kind == Kind::Dummy; }
  friend bool operator==(const RowRef&, const RowRef&) = default;
};

/// Sense-amplifier outputs of one BL compute across all columns.
struct BlReadout {
  BitVector bl_and;  ///< SA(BLT): AND of the accessed cells per column
  BitVector bl_nor;  ///< SA(BLB): NOR of the accessed cells per column
};

class SramArray {
 public:
  explicit SramArray(const ArrayGeometry& g);

  [[nodiscard]] const ArrayGeometry& geometry() const { return geom_; }

  // ---- plain storage access --------------------------------------------
  [[nodiscard]] const BitVector& row(RowRef r) const {
    const auto& rows = r.kind == RowRef::Kind::Main ? main_ : dummy_;
    BPIM_REQUIRE(r.index < rows.size(), "row out of range");
    return rows[r.index];
  }
  void write_row(RowRef r, const BitVector& data);
  [[nodiscard]] bool get(RowRef r, std::size_t col) const { return row(r).get(col); }
  void set(RowRef r, std::size_t col, bool v);
  /// Columns [col, col+len) of a row as a u64 (len <= 64).
  [[nodiscard]] std::uint64_t extract_bits(RowRef r, std::size_t col, std::size_t len) const;
  /// Overwrite columns [col, col+len) of a row with the low len bits of
  /// `value` (uncharged -- the macro's poke path).
  void deposit_bits(RowRef r, std::size_t col, std::size_t len, std::uint64_t value);

  // ---- BL separator -----------------------------------------------------
  /// Separated = dummy segment disconnected from the main-array BLs.
  void set_separated(bool s) { separated_ = s; }
  [[nodiscard]] bool separated() const { return separated_; }

  // ---- bit-line compute primitives ---------------------------------------
  /// Dual-WL compute into `out`, the caller's SA latch (its storage is
  /// reused). Both rows must be on the same (connected) segment: while
  /// separated, main+dummy combinations are rejected.
  void compute_dual(RowRef a, RowRef b, BlReadout& out) const;
  /// Single-WL read of one row into `out`.
  void read_single(RowRef r, BlReadout& out) const;

  /// Number of bits that differ from the currently stored row -- the
  /// write-back switching activity used by the energy ledger.
  [[nodiscard]] std::size_t toggle_count(RowRef r, const BitVector& incoming) const;

 private:
  /// The macro's closed-form MULT writes its products straight into D2's
  /// storage through row_mut(), word by word as its product pass runs.
  friend class macro::ImcMacro;

  BitVector& row_mut(RowRef r) { return const_cast<BitVector&>(std::as_const(*this).row(r)); }
  /// SA outputs of the cells ra and rb sharing every column's BL pair.
  static void sense(const BitVector& ra, const BitVector& rb, BlReadout& out);

  ArrayGeometry geom_;
  std::vector<BitVector> main_;
  std::vector<BitVector> dummy_;
  bool separated_ = false;
};

}  // namespace bpim::array
