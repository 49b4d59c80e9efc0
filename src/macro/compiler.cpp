#include "macro/compiler.hpp"

#include <algorithm>
#include <utility>

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

/// Row encoding for the cache key: the dummy bit rides above any plausible
/// row index; absent operands get a sentinel no RowRef can produce.
constexpr std::uint64_t kNoRow = ~0ull;

std::uint64_t encode_row(RowRef r) {
  return (r.is_dummy() ? (1ull << 63) : 0ull) | static_cast<std::uint64_t>(r.index);
}

/// Seal an emitted program through VerifiedProgram::verify, the one seal
/// check (it counts and throws on any diagnostic). An accepted program is
/// counted and marked on the trace timeline.
VerifiedProgram seal(Program p, const array::ArrayGeometry& g, [[maybe_unused]] bool fused) {
  VerifiedProgram v = VerifiedProgram::verify(std::move(p), g);
  programs_compiled_counter().add();
  BPIM_TRACE_INSTANT("macro.program.compile", 0,
                     obs::EventArgs{{"instructions", static_cast<double>(v.size())},
                                    {"fused", fused ? 1.0 : 0.0}});
  return v;
}

}  // namespace

RelocatableForward FusionCompiler::compile_relocatable_forward(unsigned bits,
                                                              std::size_t weights,
                                                              std::size_t layers) const {
  BPIM_REQUIRE(weights > 0 && layers > 0, "fused forward needs at least one MAC");
  std::vector<std::size_t> bases(weights);
  for (std::size_t j = 0; j < weights; ++j) bases[j] = (j + 1) * layers;
  Program p;
  for (std::size_t l = 0; l < layers; ++l)
    for (const std::size_t base : bases)
      p.mult(RowRef::main(2 * l), RowRef::main(2 * (base + l)), bits);
  return RelocatableForward(seal(std::move(p), geom_, /*fused=*/true), std::move(bases));
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

std::size_t OpCompiler::KeyHash::operator()(const Key& k) const {
  // FNV-1a over the key fields.
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
  VerifiedProgram v = seal(std::move(p), geom_, /*fused=*/false);
  ++stats_.compiled;
  // unordered_map references are stable under rehash and nothing is ever
  // erased, so the mapped program can be handed out.
  return cache_.emplace(key, std::move(v)).first->second;
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

OpCompiler::CacheStats OpCompiler::cache_stats() const {
  MutexLock lock(mutex_);
  return stats_;
}

}  // namespace bpim::macro
