#pragma once
// Static verifier for macro::Program -- the compile-time contract of the
// row-level ISA. The verifier checks a whole program against an array
// geometry *before* any state is touched and returns every fault it finds
// as a list of errors (kind, instruction index, message), so a macro
// compiler can report every fault of an emitted program at once and tests
// can assert on diagnostic kinds instead of string-matching exception text.
//
// A program that passed is sealed as a VerifiedProgram: the verification
// travels with the program, and MacroController runs it without verifying
// it again. The compilers (macro/compiler.hpp) seal theirs through
// VerifiedProgram::verify, the same check a raw run makes.
//
// There is no residency map: the verifier never learns which main rows hold
// pinned operands. It needs none, because no program the engine dispatches
// writes a main row -- ADD/SUB/logic drive their result out, ADD-Shift
// retires into D2, NOT into D1, and MULT (single or fused) into D1/D2 --
// which test_residency checks on every op kind with resident operands.
//
// Every check is per instruction; nothing is carried between instructions:
//   * row bounds against the geometry (main rows and dummy rows);
//   * role rules of the sequencer's scratch rows: dual-WL ops need two
//     distinct rows; MULT must not source D1/D2 (it zero-inits D2 and
//     stages the multiplicand in D1 before reading its operands); SUB must
//     not source `a` from D1 (cycle 2 senses a against ~b staged there);
//   * destination discipline: NOT/COPY/SHIFT/ADD-Shift require a dest,
//     SUB/MULT/logic take none (SUB drives its result out, MULT leaves it
//     in D2);
//   * precision: supported width, and the operand field span (2N for MULT)
//     must fit (FieldOverflow) and divide (WidthMismatch) the row width.
//
// A program is accepted when it draws no diagnostic: report.ok().

#include <string>
#include <utility>
#include <vector>

#include "array/sram_array.hpp"
#include "macro/program.hpp"

namespace bpim::macro {

enum class DiagKind {
  RowOutOfRange,  ///< row index beyond the geometry's main/dummy rows
  IdenticalRows,  ///< dual-WL op sensing the same row twice
  RoleViolation,  ///< operand overlaps the op's implicit scratch rows
  MissingDest,    ///< NOT/COPY/SHIFT/ADD-Shift without a destination
  DestIgnored,    ///< dest on an op that discards it (SUB/MULT/logic)
  BadPrecision,   ///< unsupported operand width
  FieldOverflow,  ///< operand field span wider than the row
  WidthMismatch,  ///< field span does not divide the row width
};

[[nodiscard]] const char* to_string(DiagKind k);

/// One error: the instruction cannot be executed faithfully as written.
struct Diagnostic {
  DiagKind kind = DiagKind::RowOutOfRange;
  std::size_t instruction = 0;  ///< index into Program::instructions()
  std::string message;
};

struct VerifyReport {
  std::vector<Diagnostic> diagnostics;  ///< program order

  /// Accepted: no diagnostics.
  [[nodiscard]] bool ok() const { return diagnostics.empty(); }
  /// One line per diagnostic ("error[kind] @#i: message").
  [[nodiscard]] std::string to_string() const;
  /// Program::dump() with each instruction's diagnostics interleaved under
  /// it -- the debuggable form of a rejected fused program.
  [[nodiscard]] std::string annotate(const Program& p) const;
  /// Unless ok(), count the rejection (macro.verify.rejected) and throw
  /// std::invalid_argument with the errors and the annotated listing of
  /// `p`, the program this report covers.
  void require_ok(const Program& p) const;
};

/// Verify `p` against an array geometry (no macro instance needed -- a
/// compiler can check emitted programs before the target array exists).
[[nodiscard]] VerifyReport verify_program(const Program& p, const array::ArrayGeometry& g);

/// An immutable Program that passed verify_program against one array
/// geometry, which it records. Only VerifiedProgram::verify makes one (the
/// compilers seal through it), so holding one is proof the check ran;
/// MacroController::run then only compares geometries; sealing also fixes
/// its MULT runs (run_end) and seal id. It reads as a const Program, but
/// exposes none of Program's mutators. The one change a sealed program
/// admits is RelocatableForward::bind (macro/compiler.hpp), which moves a
/// fused forward's weight rows under the checks the verifier would make of
/// them: only multiplier rows, so the runs and the seal id survive.
class VerifiedProgram {
 public:
  /// Verify `p` against `g` and seal it. Throws std::invalid_argument, with
  /// the errors and the annotated listing, unless the report is ok().
  [[nodiscard]] static VerifiedProgram verify(Program p, const array::ArrayGeometry& g);

  operator const Program&() const { return program_; }
  [[nodiscard]] const Program& program() const { return program_; }
  [[nodiscard]] const array::ArrayGeometry& geometry() const { return geometry_; }
  [[nodiscard]] std::size_t size() const { return program_.size(); }
  /// One past the MULT run from instruction k (k + 1 for any other op).
  [[nodiscard]] std::size_t run_end(std::size_t k) const { return run_ends_[k]; }
  /// Distinct per sealing, shared by copies of it.
  [[nodiscard]] std::uint64_t seal_id() const { return seal_id_; }

 private:
  friend class RelocatableForward;
  VerifiedProgram(Program p, const array::ArrayGeometry& g);

  Program program_;
  array::ArrayGeometry geometry_;
  std::vector<std::size_t> run_ends_;
  std::uint64_t seal_id_;
};

}  // namespace bpim::macro
