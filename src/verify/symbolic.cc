#include "verify/symbolic.h"

#include <algorithm>
#include <set>

#include "util/rng.h"
#include "util/strings.h"

namespace gallium::verify {

namespace {

std::string HexConst(uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "#%llx", static_cast<unsigned long long>(v));
  return buf;
}

// Low-mask width: returns k if m == 2^k - 1 (k in 1..64), else -1.
int LowMaskBits(uint64_t m) {
  if (m == ~0ull) return 64;
  if (m == 0 || (m & (m + 1)) != 0) return -1;
  int bits = 0;
  while (m != 0) {
    ++bits;
    m >>= 1;
  }
  return bits;
}

}  // namespace

TermRef MakeConst(uint64_t v) {
  auto t = std::make_shared<Term>();
  t->kind = TermKind::kConst;
  t->value = v;
  t->is_bool = v <= 1;
  t->max_bits = LowMaskBits(v) > 0 ? LowMaskBits(v) : 64;
  if (v == 0) t->max_bits = 1;
  t->repr = HexConst(v);
  return t;
}

TermRef MakeInput(std::string name, int max_bits, bool is_bool) {
  auto t = std::make_shared<Term>();
  t->kind = TermKind::kInput;
  t->input = name;
  t->max_bits = is_bool ? 1 : max_bits;
  t->is_bool = is_bool;
  t->repr = std::move(name);
  return t;
}

TermRef MakeAlu(ir::AluOp op, TermRef a, TermRef b) {
  const bool unary = ir::AluOpIsUnary(op);
  // Constant folding at the interpreter's evaluation width (u64).
  if (a->is_const() && (unary || (b != nullptr && b->is_const()))) {
    return MakeConst(
        ir::EvalAluOp(op, a->value, unary ? 0 : b->value, ir::Width::kU64));
  }
  // And(x, low-mask) is the identity when x provably fits the mask.
  if (op == ir::AluOp::kAnd && b != nullptr && b->is_const()) {
    const int mask_bits = LowMaskBits(b->value);
    if (mask_bits > 0 && a->max_bits > 0 && a->max_bits <= mask_bits) return a;
  }
  // Ne(x, 0) is the identity on booleans and on any other one-bit term
  // (e.g. And(x, 1)).
  if (op == ir::AluOp::kNe && b != nullptr && b->is_const() && b->value == 0 &&
      (a->is_bool || a->max_bits == 1)) {
    return a;
  }
  auto t = std::make_shared<Term>();
  t->kind = TermKind::kAlu;
  t->alu = op;
  t->a = std::move(a);
  t->b = std::move(b);
  if (ir::AluOpIsComparison(op)) {
    t->is_bool = true;
    t->max_bits = 1;
  } else if (op == ir::AluOp::kAnd && t->b != nullptr) {
    const int bits = t->b->is_const() ? LowMaskBits(t->b->value) : -1;
    t->max_bits = bits > 0 ? bits : 0;
  }
  t->repr = std::string("(") + ir::AluOpName(op) + " " + t->a->repr +
            (t->b != nullptr ? " " + t->b->repr : "") + ")";
  return t;
}

TermRef Masked(TermRef t, ir::Width w) {
  return MakeAlu(ir::AluOp::kAnd, std::move(t), MakeConst(ir::WidthMask(w)));
}

TermRef Truthy(TermRef t) {
  if (t->is_bool) return t;
  return MakeAlu(ir::AluOp::kNe, std::move(t), MakeConst(0));
}

std::string ConstraintString(const Constraint& c) {
  return (c.truth ? "" : "!") + c.term->repr;
}

std::string PathConditionString(const std::vector<Constraint>& cs) {
  std::string out;
  for (const Constraint& c : cs) {
    if (!out.empty()) out += " && ";
    out += ConstraintString(c);
  }
  return out.empty() ? "true" : out;
}

uint64_t EvalTerm(const Term& t, const Assignment& inputs) {
  switch (t.kind) {
    case TermKind::kConst:
      return t.value;
    case TermKind::kInput: {
      const auto it = inputs.find(t.input);
      return it == inputs.end() ? 0 : it->second;
    }
    case TermKind::kAlu:
      return ir::EvalAluOp(t.alu, EvalTerm(*t.a, inputs),
                           t.b != nullptr ? EvalTerm(*t.b, inputs) : 0,
                           ir::Width::kU64);
  }
  return 0;
}

namespace {

void Harvest(const Term& t, std::set<std::string>* names,
             std::set<uint64_t>* consts) {
  switch (t.kind) {
    case TermKind::kConst:
      consts->insert(t.value);
      if (t.value > 0) consts->insert(t.value - 1);
      consts->insert(t.value + 1);
      break;
    case TermKind::kInput:
      names->insert(t.input);
      break;
    case TermKind::kAlu:
      Harvest(*t.a, names, consts);
      if (t.b != nullptr) Harvest(*t.b, names, consts);
      break;
  }
}

}  // namespace

bool SolveConstraints(const std::vector<Constraint>& constraints,
                      const TermRef& distinguish_a, const TermRef& distinguish_b,
                      uint64_t seed, int tries, Assignment* out) {
  std::set<std::string> names;
  std::set<uint64_t> consts{0, 1, 2, 80, 443, 0x0a000001ull};
  for (const Constraint& c : constraints) Harvest(*c.term, &names, &consts);
  if (distinguish_a != nullptr) Harvest(*distinguish_a, &names, &consts);
  if (distinguish_b != nullptr) Harvest(*distinguish_b, &names, &consts);
  const std::vector<uint64_t> pool(consts.begin(), consts.end());

  Rng rng(seed);
  for (int attempt = 0; attempt < tries; ++attempt) {
    Assignment candidate;
    for (const std::string& name : names) {
      // Bias toward constants appearing in the conditions (comparisons
      // against program literals dominate middlebox path conditions), with
      // a random tail for the rest.
      uint64_t v;
      if (!pool.empty() && rng.NextBool(0.7)) {
        v = pool[rng.NextBounded(pool.size())];
      } else if (rng.NextBool(0.5)) {
        v = rng.NextBounded(1 << 16);
      } else {
        v = rng.NextU64();
      }
      candidate[name] = v;
    }
    bool ok = true;
    for (const Constraint& c : constraints) {
      if ((EvalTerm(*c.term, candidate) != 0) != c.truth) {
        ok = false;
        break;
      }
    }
    if (ok && distinguish_a != nullptr && distinguish_b != nullptr) {
      ok = EvalTerm(*distinguish_a, candidate) !=
           EvalTerm(*distinguish_b, candidate);
    }
    if (ok) {
      if (out != nullptr) *out = std::move(candidate);
      return true;
    }
  }
  return false;
}

}  // namespace gallium::verify
