#include "macro/verifier.hpp"

#include <sstream>
#include <stdexcept>
#include <unordered_map>

#include "obs/metrics.hpp"

namespace bpim::macro {

namespace {

constexpr std::size_t kD1 = ImcMacro::kDummyOperand;
constexpr std::size_t kD2 = ImcMacro::kDummyAccum;

bool is_dual_logic(Op op) {
  switch (op) {
    case Op::Nand:
    case Op::And:
    case Op::Nor:
    case Op::Or:
    case Op::Xnor:
    case Op::Xor:
      return true;
    default:
      return false;
  }
}

bool needs_dest(Op op) {
  return op == Op::Not || op == Op::Copy || op == Op::Shift || op == Op::AddShift;
}

/// Ops whose sense path interprets rows as precision fields (as opposed to
/// the bitwise logic/NOT/COPY paths).
bool field_structured_read(Op op) {
  return op == Op::Add || op == Op::AddShift || op == Op::Sub || op == Op::Shift;
}

std::string row_name(const array::RowRef& r) {
  std::string name(r.is_dummy() ? "D" : "R");
  return name += std::to_string(r.index);
}

/// What the verifier remembers about one row between instructions.
struct RowState {
  std::size_t last_def = 0;     ///< instruction index of the live explicit def
  unsigned write_bits = 0;      ///< field width of that def (0 = untyped/bitwise)
  bool has_explicit_def = false;
  bool read_since_def = false;
  bool clobbered = false;  ///< explicit def destroyed by implicit scratch traffic
  std::size_t clobberer = 0;  ///< instruction whose implicit write did it
};

class Checker {
 public:
  Checker(const Program& p, const array::ArrayGeometry& g) : prog_(p), geom_(g) {}

  VerifyReport run() {
    const auto& insts = prog_.instructions();
    for (std::size_t k = 0; k < insts.size(); ++k) check_instruction(k, insts[k]);
    return std::move(report_);
  }

 private:
  void diag(Severity sev, DiagKind kind, std::size_t inst, std::string msg) {
    report_.diagnostics.push_back(Diagnostic{sev, kind, inst, std::move(msg)});
    if (sev == Severity::Error)
      ++report_.errors;
    else
      ++report_.warnings;
  }

  /// Flat row key; dummy rows follow the main rows.
  [[nodiscard]] std::size_t key(const array::RowRef& r) const {
    return r.is_dummy() ? geom_.rows + r.index : r.index;
  }

  [[nodiscard]] bool in_range(const array::RowRef& r) const {
    return r.index < (r.is_dummy() ? geom_.dummy_rows : geom_.rows);
  }

  bool check_bounds(std::size_t k, const array::RowRef& r, const char* role) {
    if (in_range(r)) return true;
    std::ostringstream os;
    os << role << " row " << row_name(r) << " out of range ("
       << (r.is_dummy() ? geom_.dummy_rows : geom_.rows) << " "
       << (r.is_dummy() ? "dummy" : "main") << " rows)";
    diag(Severity::Error, DiagKind::RowOutOfRange, k, os.str());
    return false;
  }

  /// Operand sense: RAW (clobbered definitions) and field reinterpretation.
  void note_read(std::size_t k, const array::RowRef& r, unsigned read_bits) {
    if (!in_range(r)) return;
    RowState& st = rows_[key(r)];
    if (st.clobbered) {
      std::ostringstream os;
      os << "reads " << row_name(r) << ", whose value from instruction " << st.last_def
         << " was clobbered by implicit scratch traffic of instruction " << st.clobberer;
      diag(Severity::Warning, DiagKind::RawHazard, k, os.str());
      st.clobbered = false;  // one report per lost definition
    }
    if (read_bits != 0 && st.write_bits != 0 && st.write_bits != read_bits) {
      std::ostringstream os;
      os << "reads " << row_name(r) << " as " << read_bits << "-bit fields, but instruction "
         << st.last_def << " wrote it as " << st.write_bits << "-bit fields";
      diag(Severity::Warning, DiagKind::PrecisionMismatch, k, os.str());
    }
    st.read_since_def = true;
  }

  /// Explicit write-back to `dest`: WAW against an unread explicit def.
  void note_write(std::size_t k, const array::RowRef& r, unsigned write_bits) {
    if (!in_range(r)) return;
    RowState& st = rows_[key(r)];
    if (st.has_explicit_def && !st.read_since_def && !st.clobbered) {
      std::ostringstream os;
      os << "overwrites " << row_name(r) << " before the value written by instruction "
         << st.last_def << " was read";
      diag(Severity::Warning, DiagKind::WawHazard, k, os.str());
    }
    st = RowState{};
    st.last_def = k;
    st.write_bits = write_bits;
    st.has_explicit_def = true;
  }

  /// Implicit scratch-row write (SUB -> D1; MULT -> D1 and D2). Scratch
  /// churn over scratch is the sequencer's normal business -- only an
  /// explicit definition that was never read turns this into a pending RAW.
  /// A consumed definition is dead by then: accumulating into D2 and letting
  /// the next MULT reclaim it is the ISA's intended MAC-chain idiom.
  void note_implicit_write(std::size_t k, std::size_t dummy_index) {
    const array::RowRef r = array::RowRef::dummy(dummy_index);
    if (!in_range(r)) return;
    RowState& st = rows_[key(r)];
    if (st.has_explicit_def && !st.read_since_def) {
      st.clobbered = true;
      st.clobberer = k;
    }
    st.has_explicit_def = false;
    st.write_bits = 0;
  }

  void check_instruction(std::size_t k, const Instruction& i) {
    const bool dual = is_dual_wl(i.op);

    // Row bounds first; out-of-range rows are excluded from hazard state.
    check_bounds(k, i.a, "operand");
    if (dual) {
      check_bounds(k, i.b, "operand");
      if (i.a == i.b)
        diag(Severity::Error, DiagKind::IdenticalRows, k,
             "dual-WL op senses " + row_name(i.a) + " against itself");
    }
    if (i.dest) check_bounds(k, *i.dest, "destination");

    // Scratch-row role rules of the sequencer (imc_macro.cpp):
    //  * MULT zero-inits D2 and stages the multiplicand in D1 before its
    //    operand senses, so neither operand may live there;
    //  * SUB stages ~b in D1 during cycle 1 and senses `a` against it in
    //    cycle 2, so `a` must not be D1 (b == D1 is senseless-but-sound:
    //    cycle 1 reads b before overwriting it).
    if (i.op == Op::Mult) {
      for (const auto* r : {&i.a, &i.b}) {
        if (r->is_dummy() && (r->index == kD1 || r->index == kD2))
          diag(Severity::Error, DiagKind::RoleViolation, k,
               "MULT operand " + row_name(*r) + " overlaps the op's scratch rows (D1/D2)");
      }
    }
    if (i.op == Op::Sub && i.a.is_dummy() && i.a.index == kD1)
      diag(Severity::Error, DiagKind::RoleViolation, k,
           "SUB minuend D1 is overwritten with ~b before it is sensed");

    // Destination discipline.
    if (needs_dest(i.op) && !i.dest)
      diag(Severity::Error, DiagKind::MissingDest, k,
           std::string(to_string(i.op)) + " requires a destination row");
    if (i.dest && (i.op == Op::Sub || i.op == Op::Mult || is_dual_logic(i.op))) {
      const char* where = i.op == Op::Mult ? "the result lands in D2"
                          : i.op == Op::Sub ? "the result is driven out"
                                            : "logic results are driven out";
      diag(Severity::Warning, DiagKind::DestIgnored, k,
           std::string(to_string(i.op)) + " ignores its destination (" + where + ")");
    }

    // Precision: dual-WL logic is bitwise and width-free; everything else
    // senses precision fields that must tile the row.
    const bool precision_checked = !is_dual_logic(i.op);
    if (precision_checked) {
      if (!is_supported_precision(i.bits)) {
        diag(Severity::Error, DiagKind::BadPrecision, k,
             "unsupported precision " + std::to_string(i.bits));
      } else {
        const std::size_t span = i.op == Op::Mult ? 2 * std::size_t{i.bits} : i.bits;
        if (span > geom_.cols) {
          std::ostringstream os;
          os << "operand field spans " << span << " columns, row is " << geom_.cols << " wide";
          diag(Severity::Error, DiagKind::FieldOverflow, k, os.str());
        } else if (geom_.cols % span != 0) {
          std::ostringstream os;
          os << "field span " << span << " does not divide the " << geom_.cols
             << "-column row width";
          diag(Severity::Error, DiagKind::WidthMismatch, k, os.str());
        }
      }
    }

    // Dataflow: senses first, then the op's implicit scratch writes, then
    // the explicit write-back -- the order the sequencer performs them.
    // MULT reads its operands as packed 2N-bit units, not plain fields, so
    // its reads carry no field tag.
    const unsigned read_bits =
        field_structured_read(i.op) && i.op != Op::Mult ? i.bits : 0;
    note_read(k, i.a, read_bits);
    if (dual) note_read(k, i.b, read_bits);
    if (i.op == Op::Sub) note_implicit_write(k, kD1);
    if (i.op == Op::Mult) {
      note_implicit_write(k, kD1);
      note_implicit_write(k, kD2);
    }
    if (i.dest && !(i.op == Op::Sub || i.op == Op::Mult || is_dual_logic(i.op))) {
      // NOT/COPY write bitwise images; SHIFT/ADD/ADD-Shift write N-bit fields.
      const unsigned wb = (i.op == Op::Not || i.op == Op::Copy) ? 0 : i.bits;
      note_write(k, *i.dest, wb);
    }

    // Cycle account (Table 1). op_cycles rejects degenerate widths, so only
    // price instructions a real sequencer could issue.
    if (i.bits >= 1) report_.static_cycles += op_cycles(i.op, i.bits);
  }

  const Program& prog_;
  const array::ArrayGeometry& geom_;
  VerifyReport report_;
  std::unordered_map<std::size_t, RowState> rows_;
};

}  // namespace

const char* to_string(Severity s) { return s == Severity::Error ? "error" : "warning"; }

const char* to_string(DiagKind k) {
  switch (k) {
    case DiagKind::RowOutOfRange: return "row-out-of-range";
    case DiagKind::IdenticalRows: return "identical-rows";
    case DiagKind::RoleViolation: return "role-violation";
    case DiagKind::MissingDest: return "missing-dest";
    case DiagKind::DestIgnored: return "dest-ignored";
    case DiagKind::BadPrecision: return "bad-precision";
    case DiagKind::FieldOverflow: return "field-overflow";
    case DiagKind::WidthMismatch: return "width-mismatch";
    case DiagKind::RawHazard: return "raw-hazard";
    case DiagKind::WawHazard: return "waw-hazard";
    case DiagKind::PrecisionMismatch: return "precision-mismatch";
  }
  return "unknown";
}

namespace {
void format_diag(std::ostringstream& os, const Diagnostic& d) {
  os << to_string(d.severity) << "[" << to_string(d.kind) << "] @#" << d.instruction << ": "
     << d.message << "\n";
}
}  // namespace

std::string VerifyReport::to_string() const {
  std::ostringstream os;
  for (const auto& d : diagnostics) format_diag(os, d);
  return os.str();
}

std::string VerifyReport::error_summary() const {
  std::ostringstream os;
  os << errors << " error(s):\n";
  for (const auto& d : diagnostics)
    if (d.severity == Severity::Error) format_diag(os, d);
  return os.str();
}

std::string VerifyReport::annotate(const Program& p) const {
  std::ostringstream os;
  std::istringstream lines(p.dump());
  std::string line;
  for (std::size_t k = 0; std::getline(lines, line); ++k) {
    os << line << "\n";
    for (const auto& d : diagnostics)
      if (d.instruction == k) {
        os << "    ^ ";
        format_diag(os, d);
      }
  }
  return os.str();
}

void VerifyReport::require_ok(const Program& p) const {
  if (ok()) return;
  static obs::Counter& rejected = obs::MetricsRegistry::global().counter(
      "macro.verify.rejected", "programs rejected before execution (VerifyFirst or compile)");
  rejected.add();
  throw std::invalid_argument("program rejected by verifier: " + error_summary() + "\n" +
                              annotate(p));
}

VerifyReport verify_program(const Program& p, const array::ArrayGeometry& g) {
  return Checker(p, g).run();
}

VerifiedProgram VerifiedProgram::verify(Program p, const array::ArrayGeometry& g) {
  verify_program(p, g).require_ok(p);
  return VerifiedProgram(std::move(p), g);
}

}  // namespace bpim::macro
