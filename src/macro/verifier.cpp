#include "macro/verifier.hpp"

#include <atomic>
#include <sstream>
#include <stdexcept>

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

std::string row_name(const array::RowRef& r) {
  std::string name(r.is_dummy() ? "D" : "R");
  return name += std::to_string(r.index);
}

/// Append instruction k's diagnostics to `out`.
void check_instruction(const array::ArrayGeometry& g, std::size_t k, const Instruction& i,
                       std::vector<Diagnostic>& out) {
  const auto diag = [&](DiagKind kind, std::string msg) {
    out.push_back(Diagnostic{kind, k, std::move(msg)});
  };
  const auto check_bounds = [&](const array::RowRef& r, const char* role) {
    const std::size_t rows = r.is_dummy() ? g.dummy_rows : g.rows;
    if (r.index < rows) return;
    std::ostringstream os;
    os << role << " row " << row_name(r) << " out of range (" << rows << " "
       << (r.is_dummy() ? "dummy" : "main") << " rows)";
    diag(DiagKind::RowOutOfRange, os.str());
  };

  check_bounds(i.a, "operand");
  if (is_dual_wl(i.op)) {
    check_bounds(i.b, "operand");
    if (i.a == i.b)
      diag(DiagKind::IdenticalRows, "dual-WL op senses " + row_name(i.a) + " against itself");
  }
  if (i.dest) check_bounds(*i.dest, "destination");

  // Scratch-row role rules of the sequencer (imc_macro.cpp):
  //  * MULT zero-inits D2 and stages the multiplicand in D1 before its
  //    operand senses, so neither operand may live there;
  //  * SUB stages ~b in D1 during cycle 1 and senses `a` against it in
  //    cycle 2, so `a` must not be D1 (b == D1 is senseless-but-sound:
  //    cycle 1 reads b before overwriting it).
  if (i.op == Op::Mult) {
    for (const auto* r : {&i.a, &i.b}) {
      if (r->is_dummy() && (r->index == kD1 || r->index == kD2))
        diag(DiagKind::RoleViolation,
             "MULT operand " + row_name(*r) + " overlaps the op's scratch rows (D1/D2)");
    }
  }
  if (i.op == Op::Sub && i.a.is_dummy() && i.a.index == kD1)
    diag(DiagKind::RoleViolation, "SUB minuend D1 is overwritten with ~b before it is sensed");

  // Destination discipline.
  if (needs_dest(i.op) && !i.dest)
    diag(DiagKind::MissingDest, std::string(to_string(i.op)) + " requires a destination row");
  if (i.dest && (i.op == Op::Sub || i.op == Op::Mult || is_dual_logic(i.op))) {
    const char* where = i.op == Op::Mult ? "the result lands in D2"
                        : i.op == Op::Sub ? "the result is driven out"
                                          : "logic results are driven out";
    diag(DiagKind::DestIgnored,
         std::string(to_string(i.op)) + " ignores its destination (" + where + ")");
  }

  // Precision: dual-WL logic is bitwise and width-free; everything else
  // senses precision fields that must tile the row.
  if (is_dual_logic(i.op)) return;
  if (!is_supported_precision(i.bits)) {
    diag(DiagKind::BadPrecision, "unsupported precision " + std::to_string(i.bits));
    return;
  }
  const std::size_t span = i.op == Op::Mult ? 2 * std::size_t{i.bits} : i.bits;
  if (span > g.cols) {
    std::ostringstream os;
    os << "operand field spans " << span << " columns, row is " << g.cols << " wide";
    diag(DiagKind::FieldOverflow, os.str());
  } else if (g.cols % span != 0) {
    std::ostringstream os;
    os << "field span " << span << " does not divide the " << g.cols << "-column row width";
    diag(DiagKind::WidthMismatch, os.str());
  }
}

void format_diag(std::ostringstream& os, const Diagnostic& d) {
  os << "error[" << to_string(d.kind) << "] @#" << d.instruction << ": " << d.message << "\n";
}

}  // namespace

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
  }
  return "unknown";
}

std::string VerifyReport::to_string() const {
  std::ostringstream os;
  for (const auto& d : diagnostics) format_diag(os, d);
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
  throw std::invalid_argument("program rejected by verifier: " +
                              std::to_string(diagnostics.size()) + " error(s):\n" + to_string() +
                              "\n" + annotate(p));
}

VerifyReport verify_program(const Program& p, const array::ArrayGeometry& g) {
  VerifyReport rep;
  const auto& insts = p.instructions();
  for (std::size_t k = 0; k < insts.size(); ++k) check_instruction(g, k, insts[k], rep.diagnostics);
  return rep;
}

VerifiedProgram::VerifiedProgram(Program p, const array::ArrayGeometry& g)
    : program_(std::move(p)), geometry_(g), run_ends_(program_.size()) {
  static std::atomic<std::uint64_t> seals{0};
  seal_id_ = seals.fetch_add(1, std::memory_order_relaxed);
  // Back to front: a MULT joins a next MULT's run at its bits and row a.
  const std::vector<Instruction>& i = program_.instructions();
  for (std::size_t k = i.size(); k-- > 0;)
    run_ends_[k] = k + 1 < i.size() && i[k].op == Op::Mult && i[k + 1].op == Op::Mult &&
                           i[k + 1].bits == i[k].bits && i[k + 1].a == i[k].a
                       ? run_ends_[k + 1]
                       : k + 1;
}

VerifiedProgram VerifiedProgram::verify(Program p, const array::ArrayGeometry& g) {
  verify_program(p, g).require_ok(p);
  return VerifiedProgram(std::move(p), g);
}

}  // namespace bpim::macro
