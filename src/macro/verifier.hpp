#pragma once
// Static verifier for macro::Program -- the compile-time contract of the
// row-level ISA. The verifier checks a whole program against an array
// geometry *before* any state is touched and returns a structured
// diagnostics list (severity, instruction index, message), so a macro
// compiler can report every fault of an emitted program at once and tests
// can assert on diagnostic kinds instead of string-matching exception text.
//
// A program that passed is sealed as a VerifiedProgram: the verification
// travels with the program, and MacroController runs it without verifying
// it again.
//
// Checked, per instruction:
//   * row bounds against the geometry (main rows and dummy rows);
//   * role rules of the sequencer's scratch rows: dual-WL ops need two
//     distinct rows; MULT must not source D1/D2 (it zero-inits D2 and
//     stages the multiplicand in D1 before reading its operands); SUB must
//     not source `a` from D1 (cycle 2 senses a against ~b staged there);
//   * destination discipline: NOT/COPY/SHIFT/ADD-Shift require a dest,
//     SUB/MULT/logic ignore one (warning -- SUB drives its result out,
//     MULT leaves it in D2);
//   * precision: supported width, and the operand field span (2N for MULT)
//     must fit (FieldOverflow) and divide (WidthMismatch) the row width;
//   * data hazards across instructions sharing rows: WAW (an explicit
//     dest overwritten before anything read it) and RAW (reading a row
//     whose explicit definition was clobbered by a later instruction's
//     implicit scratch-row traffic), plus precision reinterpretation
//     (a row written as N-bit fields read back at a different width);
//   * whole-program budgets: Table-1 static cycles and instruction count
//     against caller-supplied limits.
//
// Hazard diagnostics are Warnings (the program still executes exactly as
// written -- these flag *suspect* schedules for the compiler); everything
// the hardware cannot execute faithfully is an Error. A program with no
// Errors is accepted: report.ok().

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "array/sram_array.hpp"
#include "macro/program.hpp"

namespace bpim::macro {

enum class Severity { Warning, Error };

enum class DiagKind {
  RowOutOfRange,      ///< row index beyond the geometry's main/dummy rows
  IdenticalRows,      ///< dual-WL op sensing the same row twice
  RoleViolation,      ///< operand overlaps the op's implicit scratch rows
  MissingDest,        ///< NOT/COPY/SHIFT/ADD-Shift without a destination
  DestIgnored,        ///< dest on an op that discards it (SUB/MULT/logic)
  BadPrecision,       ///< unsupported operand width
  FieldOverflow,      ///< operand field span wider than the row
  WidthMismatch,      ///< field span does not divide the row width
  RawHazard,          ///< read of a row clobbered by implicit scratch traffic
  WawHazard,          ///< explicit dest overwritten before any read
  PrecisionMismatch,  ///< field-structured read at a different width than the write
  CycleBudget,        ///< static cycles exceed VerifyLimits::max_cycles
  InstructionBudget,  ///< instruction count exceeds VerifyLimits::max_instructions
  ResidentClobber,    ///< explicit write into a row the residency map pins
};

[[nodiscard]] const char* to_string(Severity s);
[[nodiscard]] const char* to_string(DiagKind k);

struct Diagnostic {
  Severity severity = Severity::Error;
  DiagKind kind = DiagKind::RowOutOfRange;
  std::size_t instruction = 0;  ///< index into Program::instructions()
  std::string message;
};

/// Whole-program static budgets; 0 means unlimited.
struct VerifyLimits {
  std::uint64_t max_cycles = 0;       ///< Table-1 static cycle budget
  std::size_t max_instructions = 0;   ///< program length budget
};

/// One interval of main rows the ResidencyManager has pinned (weights kept
/// materialized across calls). A program may *read* these rows -- that is
/// the whole point of residency -- but an explicit write-back into one is an
/// Error (ResidentClobber): it would silently corrupt a pinned operand.
struct PinnedRows {
  std::size_t first_row = 0;  ///< first main-row index of the interval
  std::size_t row_count = 0;  ///< rows covered (contiguous)
};

struct VerifyReport {
  std::vector<Diagnostic> diagnostics;  ///< program order, then budgets
  std::uint64_t static_cycles = 0;      ///< Table-1 total (malformed ops priced 0)
  std::size_t errors = 0;
  std::size_t warnings = 0;

  /// Accepted: free of Errors (Warnings allowed).
  [[nodiscard]] bool ok() const { return errors == 0; }
  /// One line per diagnostic ("error[kind] @#i: message").
  [[nodiscard]] std::string to_string() const;
  /// Like to_string() but Errors only -- the verify-first rejection text.
  [[nodiscard]] std::string error_summary() const;
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
[[nodiscard]] VerifyReport verify_program(const Program& p, const array::ArrayGeometry& g,
                                          const VerifyLimits& limits = {});

/// Residency-aware verify: additionally flags explicit main-row writes that
/// land inside any pinned interval (ResidentClobber, Error).
[[nodiscard]] VerifyReport verify_program(const Program& p, const array::ArrayGeometry& g,
                                          std::span<const PinnedRows> pinned,
                                          const VerifyLimits& limits = {});

/// Convenience: verify against a live macro's geometry.
[[nodiscard]] VerifyReport verify_program(const Program& p, const ImcMacro& m,
                                          const VerifyLimits& limits = {});

/// An immutable Program that passed verify_program against one array
/// geometry, which it records. Only VerifiedProgram::verify, OpCompiler and
/// FusionCompiler make one, so holding one is proof the check ran;
/// MacroController::run then only compares geometries. It reads as a const
/// Program, but exposes none of Program's mutators. The one change a
/// sealed program admits is RelocatableForward::bind (macro/compiler.hpp),
/// which moves a fused forward's weight rows under the checks the verifier
/// would make of them.
class VerifiedProgram {
 public:
  /// Verify `p` against `g` (and the pinned map) and seal it. Throws
  /// std::invalid_argument, with the errors and the annotated listing, when
  /// the report has Errors; Warnings pass.
  [[nodiscard]] static VerifiedProgram verify(Program p, const array::ArrayGeometry& g,
                                              std::span<const PinnedRows> pinned = {},
                                              const VerifyLimits& limits = {});

  operator const Program&() const { return program_; }
  [[nodiscard]] const Program& program() const { return program_; }
  [[nodiscard]] const array::ArrayGeometry& geometry() const { return geometry_; }
  [[nodiscard]] std::size_t size() const { return program_.size(); }

 private:
  friend class OpCompiler;
  friend class FusionCompiler;
  friend class RelocatableForward;
  VerifiedProgram(Program p, const array::ArrayGeometry& g)
      : program_(std::move(p)), geometry_(g) {}

  Program program_;
  array::ArrayGeometry geometry_;
};

}  // namespace bpim::macro
