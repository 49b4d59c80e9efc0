#include "macro/isa.hpp"

namespace bpim::macro {

const char* to_string(Op op) {
  switch (op) {
    case Op::Nand: return "NAND";
    case Op::And: return "AND";
    case Op::Nor: return "NOR";
    case Op::Or: return "OR";
    case Op::Xnor: return "XNOR";
    case Op::Xor: return "XOR";
    case Op::Not: return "NOT";
    case Op::Shift: return "SHIFT";
    case Op::Copy: return "COPY";
    case Op::Add: return "ADD";
    case Op::AddShift: return "ADD-Shift";
    case Op::Sub: return "SUB";
    case Op::Mult: return "MULT";
  }
  return "??";
}

bool is_dual_wl(Op op) {
  switch (op) {
    case Op::Not:
    case Op::Shift:
    case Op::Copy:
      return false;
    default:
      return true;
  }
}

const char* to_string(WlScheme s) {
  switch (s) {
    case WlScheme::ShortPulseBoost: return "Short WL + BL Boost";
    case WlScheme::Wlud: return "WLUD";
    case WlScheme::FullSwingLong: return "Full-swing long WL (unprotected)";
  }
  return "??";
}

}  // namespace bpim::macro
