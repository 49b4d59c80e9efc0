// SRAM array storage, dummy rows, BL compute semantics, separator rules.

#include <gtest/gtest.h>

#include "array/sram_array.hpp"

namespace bpim::array {
namespace {

ArrayGeometry small() { return ArrayGeometry{8, 16, 3, 4}; }

TEST(SramArray, GeometryValidated) {
  EXPECT_THROW(SramArray(ArrayGeometry{0, 16, 3, 4}), std::invalid_argument);
  EXPECT_THROW(SramArray(ArrayGeometry{8, 15, 3, 4}), std::invalid_argument);  // 15 % 4
}

TEST(SramArray, RowsStartZeroed) {
  SramArray a(small());
  EXPECT_EQ(a.row(RowRef::main(0)).popcount(), 0u);
  EXPECT_EQ(a.row(RowRef::dummy(2)).popcount(), 0u);
}

TEST(SramArray, WriteAndReadBackMainAndDummy) {
  SramArray a(small());
  BitVector d(16, 0xBEEF);
  a.write_row(RowRef::main(3), d);
  EXPECT_EQ(a.row(RowRef::main(3)), d);
  a.write_row(RowRef::dummy(1), d);
  EXPECT_EQ(a.row(RowRef::dummy(1)), d);
}

TEST(SramArray, RowBoundsChecked) {
  SramArray a(small());
  EXPECT_THROW((void)a.row(RowRef::main(8)), std::invalid_argument);
  EXPECT_THROW((void)a.row(RowRef::dummy(3)), std::invalid_argument);
  EXPECT_THROW(a.write_row(RowRef::main(0), BitVector(15)), std::invalid_argument);
}

TEST(SramArray, CellLevelSetGet) {
  SramArray a(small());
  a.set(RowRef::main(2), 7, true);
  EXPECT_TRUE(a.get(RowRef::main(2), 7));
  EXPECT_FALSE(a.get(RowRef::main(2), 6));
  EXPECT_THROW(a.set(RowRef::main(2), 16, true), std::invalid_argument);
}

TEST(SramArray, DualWlComputesAndAndNor) {
  // The core BL-compute identity: BLT -> A AND B, BLB -> NOR(A, B).
  SramArray a(small());
  a.write_row(RowRef::main(0), BitVector(16, 0b1100));
  a.write_row(RowRef::main(1), BitVector(16, 0b1010));
  BlReadout r;
  a.compute_dual(RowRef::main(0), RowRef::main(1), r);
  EXPECT_EQ(r.bl_and.to_u64(), 0b1000u);
  // NOR over 16 columns: complement of OR.
  EXPECT_EQ(r.bl_nor.to_u64(), (~0b1110ull) & 0xFFFFull);
}

TEST(SramArray, DualWlNeedsDistinctRows) {
  SramArray a(small());
  BlReadout r;
  EXPECT_THROW(a.compute_dual(RowRef::main(1), RowRef::main(1), r), std::invalid_argument);
}

TEST(SramArray, SingleWlReadsRowAndComplement) {
  SramArray a(small());
  a.write_row(RowRef::main(5), BitVector(16, 0x00F0));
  BlReadout r;
  a.read_single(RowRef::main(5), r);
  EXPECT_EQ(r.bl_and.to_u64(), 0x00F0u);
  EXPECT_EQ(r.bl_nor.to_u64(), 0xFF0Fu);
}

TEST(SramArray, MainDummyPairSharesBitlines) {
  SramArray a(small());
  a.write_row(RowRef::main(0), BitVector(16, 0b0110));
  a.write_row(RowRef::dummy(0), BitVector(16, 0b0011));
  BlReadout r;
  a.compute_dual(RowRef::main(0), RowRef::dummy(0), r);
  EXPECT_EQ(r.bl_and.to_u64(), 0b0010u);
}

TEST(SramArray, SeparatorBlocksCrossSegmentDual) {
  SramArray a(small());
  BlReadout r;
  a.set_separated(true);
  EXPECT_THROW(a.compute_dual(RowRef::main(0), RowRef::dummy(0), r), std::invalid_argument);
  // Same-segment pairs remain legal.
  EXPECT_NO_THROW(a.compute_dual(RowRef::dummy(0), RowRef::dummy(1), r));
  EXPECT_NO_THROW(a.compute_dual(RowRef::main(0), RowRef::main(1), r));
  a.set_separated(false);
  EXPECT_NO_THROW(a.compute_dual(RowRef::main(0), RowRef::dummy(0), r));
}

TEST(SramArray, ToggleCountCountsHammingDistance) {
  SramArray a(small());
  a.write_row(RowRef::dummy(2), BitVector(16, 0b1111));
  EXPECT_EQ(a.toggle_count(RowRef::dummy(2), BitVector(16, 0b1001)), 2u);
}

TEST(SramArray, DefaultGeometryMatchesPaperMacro) {
  const ArrayGeometry g;
  EXPECT_EQ(g.rows, 128u);
  EXPECT_EQ(g.cols, 128u);
  EXPECT_EQ(g.dummy_rows, 3u);   // Fig 3: "Dummy Array (3 rows)"
  EXPECT_EQ(g.interleave, 4u);   // 4:1 interleaved column periphery
}

}  // namespace
}  // namespace bpim::array
