// Translation-validation tests: the validator proves the five paper
// middleboxes (plus MiniLB and the IP router) equivalent to their partition
// plans under the default and tiny RMT profiles, the Gauntlet-style mutation
// driver's seeded bug classes are each caught with a counterexample, the
// offload-safety lints fire on hand-built hazards, and the warn-level
// verifier diagnostics surface through the plan report.
#include <gtest/gtest.h>

#include <functional>

#include "core/compiler.h"
#include "ir/builder.h"
#include "ir/verifier.h"
#include "mbox/middleboxes.h"
#include "program_generator.h"
#include "p4/codegen.h"
#include "rmt/feedback.h"
#include "rmt/target.h"
#include "runtime/interpreter.h"
#include "runtime/state.h"
#include "verify/lint.h"
#include "verify/mutation.h"
#include "verify/symbolic.h"
#include "verify/validator.h"

namespace gallium {
namespace {

using ir::Imm;
using ir::R;

struct PlannedMbox {
  mbox::MiddleboxSpec spec;
  partition::PartitionPlan plan;
};

Result<partition::PartitionPlan> PlanFor(const ir::Function& fn,
                                         const rmt::RmtTargetModel& target) {
  partition::SwitchConstraints constraints;
  rmt::PlacementFailure failure;
  auto planned = rmt::PartitionAndPlace(fn, constraints, target, &failure);
  if (!planned.ok()) return planned.status();
  return std::move(planned->plan);
}

std::vector<mbox::MiddleboxSpec> AllSpecs() {
  std::vector<mbox::MiddleboxSpec> specs = mbox::BuildAllPaperMiddleboxes();
  auto minilb = mbox::BuildMiniLb();
  EXPECT_TRUE(minilb.ok()) << minilb.status().ToString();
  if (minilb.ok()) specs.push_back(std::move(*minilb));
  auto router = mbox::BuildIpRouter(
      {{0x0a000000, 8, 1, 0x1111}, {0x0b000000, 8, 2, 0x2222}});
  EXPECT_TRUE(router.ok()) << router.status().ToString();
  if (router.ok()) specs.push_back(std::move(*router));
  return specs;
}

// --- Symbolic terms ----------------------------------------------------------

TEST(Symbolic, ConstantFoldingAndNormalization) {
  using namespace verify;
  auto sum = MakeAlu(ir::AluOp::kAdd, MakeConst(3), MakeConst(4));
  EXPECT_TRUE(sum->is_const());
  EXPECT_EQ(sum->value, 7u);

  auto x = MakeInput("hdr.ip_src", 32);
  // Masking a 32-bit input to 32 bits is the identity.
  EXPECT_TRUE(SameTerm(Masked(x, ir::Width::kU32), x));
  // Truthiness of a comparison is the comparison itself.
  auto cmp = MakeAlu(ir::AluOp::kEq, x, MakeConst(5));
  EXPECT_TRUE(SameTerm(Truthy(cmp), cmp));
  // Same structure => same term; different structure => different term.
  auto cmp2 = MakeAlu(ir::AluOp::kEq, MakeInput("hdr.ip_src", 32),
                      MakeConst(5));
  EXPECT_TRUE(SameTerm(cmp, cmp2));
  EXPECT_FALSE(SameTerm(cmp, MakeAlu(ir::AluOp::kEq, x, MakeConst(6))));
}

TEST(Symbolic, NeZeroIsIdentityOnOneBitTerms) {
  using namespace verify;
  auto x = MakeInput("hdr.ip_src", 32);
  // And(x, 1) holds one bit without being a comparison: (ne (and x 1) 0)
  // is (and x 1) itself.
  auto low = MakeAlu(ir::AluOp::kAnd, x, MakeConst(1));
  ASSERT_FALSE(low->is_bool);
  ASSERT_EQ(low->max_bits, 1);
  EXPECT_TRUE(SameTerm(MakeAlu(ir::AluOp::kNe, low, MakeConst(0)), low));
  EXPECT_TRUE(SameTerm(Truthy(low), low));
  // A two-bit term keeps its comparison.
  auto two = MakeAlu(ir::AluOp::kAnd, x, MakeConst(3));
  EXPECT_FALSE(SameTerm(MakeAlu(ir::AluOp::kNe, two, MakeConst(0)), two));
}

TEST(Symbolic, SolverFindsWitnessAndRespectsConstraints) {
  using namespace verify;
  auto x = MakeInput("hdr.src_port", 16);
  auto is80 = MakeAlu(ir::AluOp::kEq, x, MakeConst(80));
  Assignment witness;
  ASSERT_TRUE(SolveConstraints({{is80, true}}, nullptr, nullptr, 1, 4000,
                               &witness));
  EXPECT_EQ(EvalTerm(*is80, witness), 1u);
  EXPECT_EQ(witness["hdr.src_port"], 80u);

  // Distinguishing pair: x+1 vs x+2 differ for any x; witness must still
  // satisfy the path condition.
  auto a = MakeAlu(ir::AluOp::kAdd, x, MakeConst(1));
  auto b = MakeAlu(ir::AluOp::kAdd, x, MakeConst(2));
  ASSERT_TRUE(SolveConstraints({{is80, false}}, a, b, 2, 4000, &witness));
  EXPECT_EQ(EvalTerm(*is80, witness), 0u);
  EXPECT_NE(EvalTerm(*a, witness), EvalTerm(*b, witness));
}

// --- Validation of real plans ------------------------------------------------

TEST(Validator, PaperMiddleboxesValidateUnderDefaultProfile) {
  partition::SwitchConstraints constraints;
  for (const mbox::MiddleboxSpec& spec : AllSpecs()) {
    auto plan = PlanFor(*spec.fn, rmt::DefaultTofinoProfile(constraints));
    ASSERT_TRUE(plan.ok()) << spec.name << ": " << plan.status().ToString();
    const verify::ValidationResult result =
        verify::ValidateTranslation(*spec.fn, *plan);
    EXPECT_TRUE(result.equivalent) << spec.name << "\n" << result.Summary();
    EXPECT_GT(result.paths_checked, 0) << spec.name;
  }
}

// Generated programs whose plans compare a composed (ne (and ... #1) #0)
// with the original (and ... #1): the same one-bit value.
TEST(Validator, NoFalseAlarmOnOneBitMaskTerms) {
  const core::Compiler compiler;
  for (uint64_t seed : {7567672623637554804ull, 3887694398031615970ull}) {
    SCOPED_TRACE(seed);
    auto spec = testing::ProgramGenerator(seed).Generate();
    ASSERT_TRUE(spec.ok()) << spec.status().ToString();
    auto compiled = compiler.Compile(*spec->fn);
    ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
    const verify::ValidationResult result =
        verify::ValidateTranslation(*spec->fn, compiled->plan);
    EXPECT_TRUE(result.equivalent) << result.Summary();
    EXPECT_GT(result.paths_checked, 0);
  }
}

TEST(Validator, PaperMiddleboxesValidateUnderTinyProfile) {
  for (const mbox::MiddleboxSpec& spec : AllSpecs()) {
    auto plan = PlanFor(*spec.fn, rmt::TinyTestProfile());
    if (!plan.ok()) continue;  // a program the tiny pipe cannot place at all
    const verify::ValidationResult result =
        verify::ValidateTranslation(*spec.fn, *plan);
    EXPECT_TRUE(result.equivalent) << spec.name << "\n" << result.Summary();
  }
}

// --- Mutation campaign -------------------------------------------------------

TEST(MutationDriver, EveryClassCaughtWithCounterexample) {
  partition::SwitchConstraints constraints;
  const auto target = rmt::DefaultTofinoProfile(constraints);

  // Aggregate across the middlebox suite: every mutation class must be
  // seedable somewhere, and every seeded mutant must be caught.
  int generated_total[verify::kNumMutationClasses] = {};
  int caught_total[verify::kNumMutationClasses] = {};
  int cex_total[verify::kNumMutationClasses] = {};
  for (const mbox::MiddleboxSpec& spec : AllSpecs()) {
    auto plan = PlanFor(*spec.fn, target);
    ASSERT_TRUE(plan.ok()) << spec.name;
    const verify::CampaignResult campaign =
        verify::RunMutationCampaign(*spec.fn, *plan);
    for (const verify::CampaignClassResult& c : campaign.classes) {
      const int idx = static_cast<int>(c.cls);
      generated_total[idx] += c.generated;
      caught_total[idx] += c.caught;
      cex_total[idx] += c.with_counterexample;
      EXPECT_EQ(c.caught, c.generated)
          << spec.name << ": " << verify::MutationClassName(c.cls)
          << " mutants escaped the validator";
    }
  }
  for (int idx = 0; idx < verify::kNumMutationClasses; ++idx) {
    const auto cls = static_cast<verify::MutationClass>(idx);
    EXPECT_GT(generated_total[idx], 0)
        << verify::MutationClassName(cls) << " was never seeded";
    EXPECT_GT(caught_total[idx], 0) << verify::MutationClassName(cls);
    EXPECT_GT(cex_total[idx], 0)
        << verify::MutationClassName(cls)
        << " was caught but never with a concrete counterexample packet";
  }
}

// --- Pass rule (partition/plan.h) ------------------------------------------
// One test per exit of the rule that the runtime's interpreter and the
// validator's composed replay both read. Plans are hand-made: every
// statement gets a part by opcode, so each test pins one behaviour.

partition::PartitionPlan HandPlan(
    const ir::Function& fn,
    const std::function<partition::Part(const ir::Instruction&)>& part_of,
    const std::function<bool(const ir::Instruction&)>& replicable = nullptr) {
  partition::PartitionPlan plan;
  plan.assignment.assign(fn.num_insts(), partition::Part::kPre);
  plan.replicable.assign(fn.num_insts(), false);
  for (const ir::BasicBlock& bb : fn.blocks()) {
    for (const ir::Instruction& inst : bb.insts) {
      plan.assignment[inst.id] = part_of(inst);
      if (replicable) plan.replicable[inst.id] = replicable(inst);
    }
  }
  return plan;
}

net::Packet RulePacket() {
  net::FiveTuple flow{net::MakeIpv4(1, 2, 3, 4), net::MakeIpv4(5, 6, 7, 8),
                      1111, 80, net::kIpProtoTcp};
  net::Packet pkt = net::MakeTcpPacket(flow, net::kTcpSyn, 32, 5);
  pkt.ip().ttl = 3;
  return pkt;
}

TEST(PassRule, PrePassRevisitingABlockOwesTheServer) {
  // head: t = ttl; t != 0 ? body : out    body: ttl = t - 1; -> head
  ir::Function fn("pre_loop");
  ir::IrBuilder b(&fn);
  const int entry = b.CreateBlock("entry");
  const int head = b.CreateBlock("head");
  const int body = b.CreateBlock("body");
  const int out = b.CreateBlock("out");
  fn.set_entry_block(entry);
  b.SetInsertPoint(entry);
  b.Jump(head);
  b.SetInsertPoint(head);
  const ir::Reg t = b.HeaderRead(ir::HeaderField::kIpTtl, "t");
  const ir::Reg more = b.Alu(ir::AluOp::kNe, R(t), Imm(0), "more");
  b.Branch(R(more), body, out);
  b.SetInsertPoint(body);
  const ir::Reg dec = b.Alu(ir::AluOp::kSub, R(t), Imm(1), "dec");
  b.HeaderWrite(ir::HeaderField::kIpTtl, R(dec));
  b.Jump(head);
  b.SetInsertPoint(out);
  b.Send(Imm(1));
  b.Ret();
  ASSERT_TRUE(ir::VerifyFunction(fn).ok());
  // The whole loop on the pre pass, which cannot loop.
  const partition::PartitionPlan plan =
      HandPlan(fn, [](const ir::Instruction&) { return partition::Part::kPre; });

  runtime::Interpreter interp(fn);
  runtime::HostStateStore state(fn);
  net::Packet pkt = RulePacket();
  const runtime::ExecResult pre = interp.RunPartition(
      pkt, state, 0, plan, partition::Part::kPre, nullptr, nullptr, nullptr);
  ASSERT_TRUE(pre.status.ok()) << pre.status.ToString();
  EXPECT_TRUE(pre.needs_server) << "re-entering head must owe the server";
  EXPECT_FALSE(pre.verdict.decided());
  EXPECT_EQ(pkt.ip().ttl, 2) << "the pre pass stops after one trip";

  // The validator replays the same rule: the second trip runs in no pass.
  // A few short paths suffice (the loop unrolls once per path).
  verify::PathLimits limits;
  limits.max_paths = 8;
  limits.max_steps_per_path = 64;
  limits.max_mismatches = 1;
  const verify::ValidationResult result =
      verify::ValidateTranslation(fn, plan, limits);
  EXPECT_FALSE(result.equivalent) << result.Summary();
}

TEST(PassRule, PrePassStopsAtABranchItCannotEvaluate) {
  // c = (ttl == 3) on the server; both arms hold (misplaced) pre work.
  ir::Function fn("pre_undefined_branch");
  ir::IrBuilder b(&fn);
  const int entry = b.CreateBlock("entry");
  const int yes = b.CreateBlock("yes");
  const int no = b.CreateBlock("no");
  fn.set_entry_block(entry);
  b.SetInsertPoint(entry);
  const ir::Reg ttl = b.HeaderRead(ir::HeaderField::kIpTtl, "ttl");
  const ir::Reg c = b.Alu(ir::AluOp::kEq, R(ttl), Imm(3), "c");
  b.Branch(R(c), yes, no);
  b.SetInsertPoint(yes);
  b.Send(Imm(1));
  b.Ret();
  b.SetInsertPoint(no);
  b.Drop();
  b.Ret();
  ASSERT_TRUE(ir::VerifyFunction(fn).ok());
  const partition::PartitionPlan plan =
      HandPlan(fn, [](const ir::Instruction& inst) {
        return inst.op == ir::Opcode::kAlu ? partition::Part::kNonOffloaded
                                           : partition::Part::kPre;
      });

  runtime::Interpreter interp(fn);
  runtime::HostStateStore state(fn);
  net::Packet pkt = RulePacket();
  const runtime::ExecResult pre = interp.RunPartition(
      pkt, state, 0, plan, partition::Part::kPre, nullptr, nullptr, nullptr);
  ASSERT_TRUE(pre.status.ok()) << pre.status.ToString();
  EXPECT_TRUE(pre.needs_server);
  EXPECT_FALSE(pre.verdict.decided())
      << "the pre pass must end at the branch, not walk either arm";
  EXPECT_EQ(pre.stats.branches, 0);
}

TEST(PassRule, ServerPassTakesTheFalseArmOnAPostOnlyCondition) {
  // ttl (replicable); k = ttl + 1 (server); flag = ttl == 3 (post);
  // flag ? dst = 7 (post) : -; src = k (server after the join); send (post)
  ir::Function fn("server_post_branch");
  ir::IrBuilder b(&fn);
  const int entry = b.CreateBlock("entry");
  const int mark = b.CreateBlock("mark");
  const int join = b.CreateBlock("join");
  fn.set_entry_block(entry);
  b.SetInsertPoint(entry);
  const ir::Reg ttl = b.HeaderRead(ir::HeaderField::kIpTtl, "ttl");
  const ir::Reg k =
      b.Alu(ir::AluOp::kAdd, R(ttl), Imm(1), ir::Width::kU32, "k");
  const ir::Reg flag = b.Alu(ir::AluOp::kEq, R(ttl), Imm(3), "flag");
  b.Branch(R(flag), mark, join);
  b.SetInsertPoint(mark);
  b.HeaderWrite(ir::HeaderField::kIpDst, Imm(7));
  b.Jump(join);
  b.SetInsertPoint(join);
  b.HeaderWrite(ir::HeaderField::kIpSrc, R(k));
  b.Send(Imm(1));
  b.Ret();
  ASSERT_TRUE(ir::VerifyFunction(fn).ok());
  auto defines = [](const ir::Instruction& inst, ir::Reg r) {
    return !inst.dsts.empty() && inst.dsts[0] == r;
  };
  const partition::PartitionPlan plan = HandPlan(
      fn,
      [&](const ir::Instruction& inst) {
        const bool server =
            defines(inst, k) || (inst.op == ir::Opcode::kHeaderWrite &&
                                 inst.field == ir::HeaderField::kIpSrc);
        return server ? partition::Part::kNonOffloaded : partition::Part::kPost;
      },
      [](const ir::Instruction& inst) {
        return inst.op == ir::Opcode::kHeaderRead;
      });

  runtime::Interpreter interp(fn);
  runtime::HostStateStore state(fn);
  net::Packet pkt = RulePacket();
  const uint32_t daddr = pkt.ip().daddr;
  const runtime::ExecResult srv =
      interp.RunPartition(pkt, state, 0, plan, partition::Part::kNonOffloaded,
                          nullptr, nullptr, nullptr);
  ASSERT_TRUE(srv.status.ok()) << srv.status.ToString();
  EXPECT_EQ(pkt.ip().saddr, 4u) << "server work after the join must run";
  EXPECT_EQ(pkt.ip().daddr, daddr) << "the post arm is not the server's";
  EXPECT_FALSE(srv.verdict.decided());

  const verify::ValidationResult result = verify::ValidateTranslation(fn, plan);
  EXPECT_TRUE(result.equivalent) << result.Summary();
}

TEST(PassRule, RecoveryPassRunsReplicableReadsButSkipsPostWork) {
  // x = ttl (replicable, assigned post); p = proto (pre);
  // y = x + p (server); dst = y (post); send (post)
  ir::Function fn("recovery");
  ir::IrBuilder b(&fn);
  const int entry = b.CreateBlock("entry");
  fn.set_entry_block(entry);
  b.SetInsertPoint(entry);
  const ir::Reg x = b.HeaderRead(ir::HeaderField::kIpTtl, "x");
  const ir::Reg p = b.HeaderRead(ir::HeaderField::kIpProto, "p");
  const ir::Reg y = b.Alu(ir::AluOp::kAdd, R(x), R(p), ir::Width::kU32, "y");
  b.HeaderWrite(ir::HeaderField::kIpDst, R(y));
  b.Send(Imm(1));
  b.Ret();
  ASSERT_TRUE(ir::VerifyFunction(fn).ok());
  auto defines = [](const ir::Instruction& inst, ir::Reg r) {
    return !inst.dsts.empty() && inst.dsts[0] == r;
  };
  const partition::PartitionPlan plan = HandPlan(
      fn,
      [&](const ir::Instruction& inst) {
        if (defines(inst, p)) return partition::Part::kPre;
        if (defines(inst, y)) return partition::Part::kNonOffloaded;
        return partition::Part::kPost;
      },
      [&](const ir::Instruction& inst) { return defines(inst, x); });
  partition::TransferSpec out;
  out.var_regs = {y};

  runtime::Interpreter interp(fn);
  runtime::HostStateStore state(fn);
  net::Packet pkt = RulePacket();
  const uint32_t daddr = pkt.ip().daddr;
  const runtime::ExecResult rec =
      interp.RunServerFull(pkt, state, 0, plan, &out, {});
  ASSERT_TRUE(rec.status.ok()) << rec.status.ToString();
  ASSERT_EQ(rec.transfer_out.var_values.size(), 1u);
  EXPECT_EQ(rec.transfer_out.var_values[0], 3u + net::kIpProtoTcp)
      << "the replicable read and the pre statement must both run";
  EXPECT_EQ(pkt.ip().daddr, daddr) << "post work is left to the switch";
  EXPECT_FALSE(rec.verdict.decided());
  EXPECT_FALSE(rec.needs_server);
}

// --- Counterexample packets --------------------------------------------------

TEST(Counterexample, PacketRealizesHeaderInputs) {
  auto spec = mbox::BuildMiniLb();
  ASSERT_TRUE(spec.ok());
  // Input names follow the validator's "hdr." + ir::HeaderFieldName scheme.
  verify::Assignment inputs{
      {std::string("hdr.") + ir::HeaderFieldName(ir::HeaderField::kIpSrc),
       0x0a0000ffull},
      {std::string("hdr.") + ir::HeaderFieldName(ir::HeaderField::kSrcPort),
       4242ull},
      {std::string("hdr.") + ir::HeaderFieldName(ir::HeaderField::kTcpFlags),
       0x12ull}};
  const net::Packet pkt = verify::PacketFromAssignment(inputs, *spec->fn);
  EXPECT_EQ(runtime::Interpreter::ReadHeaderField(pkt, ir::HeaderField::kIpSrc),
            0x0a0000ffull);
  EXPECT_EQ(
      runtime::Interpreter::ReadHeaderField(pkt, ir::HeaderField::kSrcPort),
      4242ull);
  EXPECT_EQ(
      runtime::Interpreter::ReadHeaderField(pkt, ir::HeaderField::kTcpFlags),
      0x12ull);
}

// --- Offload-safety lints ----------------------------------------------------

TEST(Lint, P4CatchesUndefinedAndUncoveredActions) {
  p4::P4Program prog;
  prog.actions.push_back({"act_hit", {}, {"meta.x = value0;"}});
  prog.actions.push_back({"act_orphan", {}, {}});
  p4::P4Table bad;
  bad.name = "tbl_bad";
  bad.actions = {"act_hit", "act_missing"};
  bad.default_action = "act_other";
  prog.tables.push_back(bad);
  p4::P4Table empty;
  empty.name = "tbl_empty";
  prog.tables.push_back(empty);

  const auto findings = verify::LintP4(prog);
  EXPECT_TRUE(verify::HasErrors(findings));
  auto has = [&](const std::string& code) {
    for (const auto& f : findings) {
      if (f.code == code) return true;
    }
    return false;
  };
  EXPECT_TRUE(has("p4-undefined-action"));
  EXPECT_TRUE(has("p4-uncovered-table"));
  EXPECT_TRUE(has("p4-dead-action"));
}

TEST(Lint, P4CatchesUninitializedMetadataRead) {
  p4::P4Program prog;
  prog.ingress.apply_body = {"if (meta.cond == 1) {", "  meta.out = 1;", "}"};
  const auto findings = verify::LintP4(prog);
  bool found = false;
  for (const auto& f : findings) {
    if (f.code == "p4-uninit-meta-read") found = true;
  }
  EXPECT_TRUE(found);
}

TEST(Lint, GeneratedP4OfPaperMiddleboxesIsClean) {
  // The emitter's own output must never trip the error-severity P4 lints.
  partition::SwitchConstraints constraints;
  for (const mbox::MiddleboxSpec& spec : AllSpecs()) {
    rmt::PlacementFailure failure;
    auto planned = rmt::PartitionAndPlace(
        *spec.fn, constraints, rmt::DefaultTofinoProfile(constraints),
        &failure);
    ASSERT_TRUE(planned.ok()) << spec.name;
    auto prog = p4::GenerateP4(*spec.fn, planned->plan, {});
    ASSERT_TRUE(prog.ok()) << spec.name;
    const auto findings = verify::LintP4(*prog);
    for (const auto& f : findings) {
      EXPECT_NE(f.severity, verify::LintSeverity::kError)
          << spec.name << ": " << f.ToString();
    }
  }
}

TEST(Lint, FlagsOutputCommitViolation) {
  // send (forced into pre) followed by a server-side map write: the verdict
  // would commit before the server finishes.
  ir::Function fn("output_commit");
  ir::MapDecl m;
  m.name = "flows";
  m.key_widths = {ir::Width::kU32};
  m.value_widths = {ir::Width::kU32};
  m.has_p4_impl = true;
  const ir::StateIndex flows = fn.AddMap(m);

  ir::IrBuilder b(&fn);
  const int entry = b.CreateBlock("entry");
  fn.set_entry_block(entry);
  b.SetInsertPoint(entry);
  const ir::Reg src = b.HeaderRead(ir::HeaderField::kIpSrc, "src");
  b.Send(Imm(1));
  const ir::Value key[] = {R(src)};
  const ir::Value val[] = {Imm(7)};
  b.MapPut(flows, key, val);
  b.Ret();
  ASSERT_TRUE(ir::VerifyFunction(fn).ok());

  partition::PartitionPlan plan;
  plan.assignment.assign(fn.num_insts(), partition::Part::kNonOffloaded);
  plan.replicable.assign(fn.num_insts(), false);
  // Hand-built plan: the send sits in pre, the map write on the server.
  for (const ir::BasicBlock& bb : fn.blocks()) {
    for (const ir::Instruction& inst : bb.insts) {
      if (inst.op == ir::Opcode::kSend) {
        plan.assignment[inst.id] = partition::Part::kPre;
      }
    }
  }
  plan.num_pre = 1;
  plan.num_post = 0;

  const auto findings = verify::LintPlan(fn, plan);
  bool found = false;
  for (const auto& f : findings) {
    if (f.code == "output-commit") {
      found = true;
      EXPECT_EQ(f.severity, verify::LintSeverity::kError);
    }
  }
  EXPECT_TRUE(found);
}

TEST(Lint, FlagsReplicatedWriteAfterReadHazard) {
  // A loop lets the switch-side read happen after the server-side write of
  // the same replicated map.
  ir::Function fn("war_hazard");
  ir::MapDecl m;
  m.name = "shared";
  m.key_widths = {ir::Width::kU32};
  m.value_widths = {ir::Width::kU32};
  m.has_p4_impl = true;
  const ir::StateIndex shared = fn.AddMap(m);

  ir::IrBuilder b(&fn);
  const int entry = b.CreateBlock("entry");
  const int loop = b.CreateBlock("loop");
  const int out = b.CreateBlock("out");
  fn.set_entry_block(entry);
  b.SetInsertPoint(entry);
  const ir::Reg src = b.HeaderRead(ir::HeaderField::kIpSrc, "src");
  b.Jump(loop);
  b.SetInsertPoint(loop);
  const ir::Value key[] = {R(src)};
  auto got = b.MapGet(shared, key, "hit");
  const ir::Value val[] = {Imm(9)};
  b.MapPut(shared, key, val);
  b.Branch(R(got.found), out, loop);
  b.SetInsertPoint(out);
  b.Ret();
  ASSERT_TRUE(ir::VerifyFunction(fn).ok());

  partition::PartitionPlan plan;
  plan.assignment.assign(fn.num_insts(), partition::Part::kNonOffloaded);
  plan.replicable.assign(fn.num_insts(), false);
  for (const ir::BasicBlock& bb : fn.blocks()) {
    for (const ir::Instruction& inst : bb.insts) {
      if (inst.op == ir::Opcode::kMapGet) {
        plan.assignment[inst.id] = partition::Part::kPre;
      }
    }
  }
  ir::StateRef ref{ir::StateRef::Kind::kMap, shared};
  plan.state_placement[ref] = partition::StatePlacement::kReplicated;
  plan.num_pre = 1;
  plan.num_post = 0;

  const auto findings = verify::LintPlan(fn, plan);
  bool found = false;
  for (const auto& f : findings) {
    if (f.code == "replicated-war-hazard") {
      found = true;
      EXPECT_EQ(f.severity, verify::LintSeverity::kError);
    }
  }
  EXPECT_TRUE(found);
}

// --- Warn-level verifier diagnostics -----------------------------------------

TEST(VerifyWarnings, UnreachableBlockAndNeverReadRegister) {
  ir::Function fn("warned");
  ir::IrBuilder b(&fn);
  const int entry = b.CreateBlock("entry");
  const int dead = b.CreateBlock("dead");
  fn.set_entry_block(entry);
  b.SetInsertPoint(entry);
  b.Assign(Imm(5), ir::Width::kU32, "unused");
  b.Ret();
  b.SetInsertPoint(dead);
  b.Ret();

  std::vector<ir::VerifyWarning> warnings;
  ASSERT_TRUE(ir::VerifyFunctionWithWarnings(fn, &warnings).ok());
  bool unreachable = false, never_read = false;
  for (const auto& w : warnings) {
    if (w.kind == ir::VerifyWarning::Kind::kUnreachableBlock &&
        w.block == dead) {
      unreachable = true;
    }
    if (w.kind == ir::VerifyWarning::Kind::kNeverReadRegister) {
      never_read = true;
    }
  }
  EXPECT_TRUE(unreachable);
  EXPECT_TRUE(never_read);
}

TEST(VerifyWarnings, SurfacedInPartitionPlanReport) {
  ir::Function fn("warned_plan");
  ir::IrBuilder b(&fn);
  const int entry = b.CreateBlock("entry");
  const int dead = b.CreateBlock("dead");
  fn.set_entry_block(entry);
  b.SetInsertPoint(entry);
  const ir::Reg port = b.HeaderRead(ir::HeaderField::kSrcPort, "p");
  b.Assign(Imm(5), ir::Width::kU32, "unused");
  b.Send(R(port));
  b.Ret();
  b.SetInsertPoint(dead);
  b.Ret();

  partition::SwitchConstraints constraints;
  rmt::PlacementFailure failure;
  auto planned = rmt::PartitionAndPlace(
      fn, constraints, rmt::DefaultTofinoProfile(constraints), &failure);
  ASSERT_TRUE(planned.ok()) << planned.status().ToString();
  EXPECT_FALSE(planned->plan.warnings.empty());
  const std::string summary = planned->plan.Summary(fn);
  EXPECT_NE(summary.find("warning:"), std::string::npos) << summary;
}

// --- Compiler gate + diagnostic contract -------------------------------------

TEST(CompilerGate, VerifyOptionValidatesPaperMiddleboxes) {
  core::CompileOptions options;
  options.verify = true;
  core::Compiler compiler(options);
  for (const auto& spec : AllSpecs()) {
    core::CompileDiagnostic diag;
    auto result = compiler.Compile(*spec.fn, &diag);
    ASSERT_TRUE(result.ok())
        << spec.name << ": " << result.status().ToString() << "\n"
        << diag.ToJson();
    EXPECT_TRUE(result->verified) << spec.name;
    EXPECT_TRUE(result->validation.equivalent)
        << spec.name << ": " << result->validation.Summary();
    EXPECT_GT(result->validation.paths_checked, 0) << spec.name;
    EXPECT_FALSE(verify::HasErrors(result->lints)) << spec.name;
  }
}

TEST(CompilerGate, DiagnosticJsonCarriesExitCodeAndFindings) {
  core::CompileDiagnostic diag;
  diag.phase = "verification";
  diag.message = "translation validation rejected the partition plan";
  diag.exit_code = 4;
  diag.findings.push_back("[state-trace] path 0: missing write");
  diag.findings.push_back("[verdict] path 1: drop vs send");
  const std::string json = diag.ToJson();
  EXPECT_NE(json.find("\"error\":\"verification\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"exit_code\":4"), std::string::npos) << json;
  EXPECT_NE(json.find("\"findings\":[\"[state-trace]"), std::string::npos)
      << json;
  // The default diagnostic maps to the generic failure code.
  EXPECT_EQ(core::CompileDiagnostic{}.exit_code, 1);
}

}  // namespace
}  // namespace gallium
