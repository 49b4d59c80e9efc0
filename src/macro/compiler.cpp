#include "macro/compiler.hpp"

#include <algorithm>

#include "common/require.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace bpim::macro {

using array::RowRef;

namespace {

obs::Counter& programs_compiled_counter() {
  static obs::Counter& c = obs::MetricsRegistry::global().counter(
      "macro.programs.compiled", "macro ISA programs emitted and verified");
  return c;
}

obs::Counter& program_cache_hits_counter() {
  static obs::Counter& c = obs::MetricsRegistry::global().counter(
      "macro.programs.cache_hits", "single-op programs served from the OpCompiler cache");
  return c;
}

obs::Counter& compile_rejected_counter() {
  static obs::Counter& c = obs::MetricsRegistry::global().counter(
      "macro.verify.rejected", "programs rejected before execution (VerifyFirst or compile)");
  return c;
}

}  // namespace

VerifiedProgram FusionCompiler::compile_mac_forward(const MacForwardSpec& spec) const {
  BPIM_REQUIRE(!spec.steps.empty(), "fused forward needs at least one MAC");
  BPIM_REQUIRE(is_supported_precision(spec.bits), "unsupported MAC precision");
  Program p;
  for (const MacStep& s : spec.steps) {
    BPIM_REQUIRE(s.a_row != s.b_row, "MAC needs two distinct rows");
    p.mult(RowRef::main(s.a_row), RowRef::main(s.b_row), spec.bits);
  }
  return seal(std::move(p), "compile_mac_forward");
}

RelocatableForward FusionCompiler::compile_relocatable_forward(unsigned bits,
                                                              std::size_t weights,
                                                              std::size_t layers) const {
  BPIM_REQUIRE(weights > 0 && layers > 0, "fused forward needs at least one MAC");
  std::vector<std::size_t> bases(weights);
  for (std::size_t j = 0; j < weights; ++j) bases[j] = (j + 1) * layers;
  MacForwardSpec spec;
  spec.bits = bits;
  for (std::size_t l = 0; l < layers; ++l)
    for (const std::size_t base : bases) spec.steps.push_back(MacStep{2 * l, 2 * (base + l)});
  return RelocatableForward(compile_mac_forward(spec), std::move(bases));
}

const VerifiedProgram& RelocatableForward::bind(std::span<const std::size_t> bases) {
  BPIM_REQUIRE(bases.size() == bases_.size(), "relocation needs one base per weight");
  if (std::ranges::equal(bases, bases_)) return program_;
  std::vector<Instruction>& insts = program_.program_.instructions_;
  const std::size_t weights = bases.size();
  const std::size_t rows = program_.geometry().rows;
  // Check every instruction before rewriting any, so a rejected binding
  // leaves the sealed program as it was.
  for (std::size_t k = 0; k < insts.size(); ++k) {
    const std::size_t base = bases[k % weights];
    BPIM_REQUIRE(base < rows && 2 * (base + k / weights) < rows,
                 "relocated weight row lies outside the array");
    BPIM_REQUIRE(2 * (base + k / weights) != insts[k].a.index,
                 "relocated weight row is the activation row");
  }
  for (std::size_t k = 0; k < insts.size(); ++k)
    insts[k].b = RowRef::main(2 * (bases[k % weights] + k / weights));
  std::ranges::copy(bases, bases_.begin());
  return program_;
}

VerifiedProgram FusionCompiler::compile_chain(const ChainSpec& spec) const {
  BPIM_REQUIRE(!spec.layers.empty(), "chain needs at least one layer");
  BPIM_REQUIRE(is_supported_precision(spec.bits), "unsupported chain head precision");
  BPIM_REQUIRE(is_supported_precision(2 * spec.bits),
               "chain links run at 2x the head precision, which the ISA lacks here");
  const RowRef d2 = RowRef::dummy(ImcMacro::kDummyAccum);
  Program p;
  for (const ChainLayerSpec& layer : spec.layers) {
    BPIM_REQUIRE(!layer.links.empty(), "chain layer needs at least one link");
    BPIM_REQUIRE(layer.a_row != layer.b_row, "chain head needs two distinct rows");
    p.mult(RowRef::main(layer.a_row), RowRef::main(layer.b_row), spec.bits);
    for (std::size_t j = 0; j < layer.links.size(); ++j) {
      const auto& [kind, operand_row] = layer.links[j];
      const RowRef rb = RowRef::main(operand_row);
      const bool last = j + 1 == layer.links.size();
      if (kind == ChainLinkKind::Add) {
        // Intermediate sums accumulate back into D2; the final sum is
        // driven out for the trace to capture.
        p.add(d2, rb, 2 * spec.bits, last ? std::nullopt : std::optional<RowRef>(d2));
      } else {
        // ADD-Shift must write back. Intermediates stay in D2; the final
        // value retires into the layer's own activation row -- dead since
        // the head MULT consumed it, and never pinned.
        p.add_shift(d2, rb, 2 * spec.bits, last ? RowRef::main(layer.a_row) : d2);
      }
    }
  }
  return seal(std::move(p), "compile_chain");
}

std::uint64_t FusionCompiler::fused_static_cycles(const Program& p) {
  std::uint64_t c = 0;
  const Instruction* prev = nullptr;
  for (const Instruction& i : p.instructions()) {
    std::uint64_t cost = op_cycles(i.op, i.bits);
    if (i.op == Op::Mult && prev != nullptr && prev->op == Op::Mult && prev->bits == i.bits) {
      --cost;                          // FF load pipelined behind prior write-back
      if (prev->a == i.a) --cost;      // D1 already staged with this multiplicand
    }
    c += cost;
    prev = &i;
  }
  return c;
}

VerifiedProgram FusionCompiler::seal(Program p, const char* what) const {
  const VerifyReport rep = verify_program(p, geom_, pinned_);
  if (rep.errors == 0 && rep.warnings == 0) {
    programs_compiled_counter().add();
    BPIM_TRACE_INSTANT("macro.program.compile", 0,
                       obs::EventArgs{{"instructions", static_cast<double>(p.size())},
                                      {"fused", 1.0}});
    return VerifiedProgram(std::move(p), geom_);
  }
  compile_rejected_counter().add();
  throw std::invalid_argument(std::string(what) +
                              ": emitted program drew verifier diagnostics:\n" +
                              rep.annotate(p));
}

namespace {

/// Row encoding for the cache key: the dummy bit rides above any plausible
/// row index; absent operands get a sentinel no RowRef can produce.
constexpr std::uint64_t kNoRow = ~0ull;

std::uint64_t encode_row(RowRef r) {
  return (r.is_dummy() ? (1ull << 63) : 0ull) | static_cast<std::uint64_t>(r.index);
}

}  // namespace

std::size_t OpCompiler::KeyHash::operator()(const Key& k) const {
  // FNV-1a over the key fields, same recipe the engine's fused-program cache
  // uses for its layer keys.
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  mix(k.op);
  mix(k.fn);
  mix(k.bits);
  mix(k.a);
  mix(k.b);
  mix(k.dest);
  return static_cast<std::size_t>(h);
}

const VerifiedProgram& OpCompiler::single(const Instruction& inst) {
  Key key;
  key.op = static_cast<std::uint8_t>(inst.op);
  key.fn = static_cast<std::uint8_t>(inst.logic_fn);
  key.bits = inst.bits;
  key.a = encode_row(inst.a);
  key.b = is_dual_wl(inst.op) ? encode_row(inst.b) : kNoRow;
  key.dest = inst.dest ? encode_row(*inst.dest) : kNoRow;

  MutexLock lock(mutex_);
  if (const auto it = cache_.find(key); it != cache_.end()) {
    ++stats_.hits;
    program_cache_hits_counter().add();
    return it->second;
  }
  Program p;
  p.push(inst);
  const VerifyReport rep = verify_program(p, geom_, pinned_);
  if (rep.errors + rep.warnings != 0) {
    compile_rejected_counter().add();
    throw std::invalid_argument(
        "OpCompiler: single-op program drew verifier diagnostics:\n" + rep.annotate(p));
  }
  ++stats_.compiled;
  programs_compiled_counter().add();
  BPIM_TRACE_INSTANT("macro.program.compile", 0,
                     obs::EventArgs{{"instructions", 1.0}, {"fused", 0.0}});
  // unordered_map references are stable under rehash and nothing is ever
  // erased outside set_pinned(), so the mapped program can be handed out.
  return cache_.emplace(key, VerifiedProgram(std::move(p), geom_)).first->second;
}

const VerifiedProgram& OpCompiler::add(RowRef a, RowRef b, unsigned bits) {
  return single({.op = Op::Add, .a = a, .b = b, .bits = bits});
}

const VerifiedProgram& OpCompiler::sub(RowRef a, RowRef b, unsigned bits) {
  return single({.op = Op::Sub, .a = a, .b = b, .bits = bits});
}

const VerifiedProgram& OpCompiler::mult(RowRef a, RowRef b, unsigned bits) {
  return single({.op = Op::Mult, .a = a, .b = b, .bits = bits});
}

const VerifiedProgram& OpCompiler::add_shift(RowRef a, RowRef b, unsigned bits, RowRef dest) {
  return single({.op = Op::AddShift, .a = a, .b = b, .dest = dest, .bits = bits});
}

const VerifiedProgram& OpCompiler::unary(Op op, RowRef src, RowRef dest, unsigned bits) {
  BPIM_REQUIRE(op == Op::Not || op == Op::Copy || op == Op::Shift,
               "unary() takes NOT/COPY/SHIFT");
  return single({.op = op, .a = src, .dest = dest, .bits = bits});
}

const VerifiedProgram& OpCompiler::logic(periph::LogicFn fn, RowRef a, RowRef b) {
  BPIM_REQUIRE(fn != periph::LogicFn::PassA && fn != periph::LogicFn::NotA,
               "PassA/NotA are single-WL paths; use unary(COPY/NOT)");
  // Op::And is the representative dual-WL logic op; fn carries the function.
  return single({.op = Op::And, .logic_fn = fn, .a = a, .b = b});
}

void OpCompiler::set_pinned(std::vector<PinnedRows> pinned) {
  MutexLock lock(mutex_);
  pinned_ = std::move(pinned);
  cache_.clear();
}

OpCompiler::CacheStats OpCompiler::cache_stats() const {
  MutexLock lock(mutex_);
  return stats_;
}

}  // namespace bpim::macro
