// Google-benchmark microbenchmarks of the Gallium implementation itself:
// compiler passes (dependency extraction, partitioning, code generation),
// the interpreter's packet-processing rate, switch table lookups with and
// without an active write-back shadow, and control-plane batch application.
//
// These are engineering benchmarks (is the compiler fast enough to be
// usable, is the simulator fast enough to drive the evaluation), not paper
// reproductions.
#include <benchmark/benchmark.h>

#include "analysis/depgraph.h"
#include "core/compiler.h"
#include "mbox/middleboxes.h"
#include "partition/partitioner.h"
#include "runtime/offloaded_middlebox.h"
#include "runtime/software_middlebox.h"
#include "switchsim/table.h"
#include "frontend/middlebox_builder.h"
#include "workload/packet_gen.h"

namespace {

using namespace gallium;

const mbox::MiddleboxSpec& NatSpec() {
  static mbox::MiddleboxSpec spec = [] {
    auto result = mbox::BuildMazuNat();
    return std::move(result).value();
  }();
  return spec;
}

void BM_DependencyExtraction(benchmark::State& state) {
  const ir::Function& fn = *NatSpec().fn;
  for (auto _ : state) {
    analysis::CfgInfo cfg(fn);
    analysis::DependencyGraph deps(fn, cfg);
    benchmark::DoNotOptimize(deps.edges().size());
  }
}
BENCHMARK(BM_DependencyExtraction);

void BM_Partition(benchmark::State& state) {
  const ir::Function& fn = *NatSpec().fn;
  for (auto _ : state) {
    partition::Partitioner partitioner(fn, {});
    auto plan = partitioner.Run();
    benchmark::DoNotOptimize(plan.ok());
  }
}
BENCHMARK(BM_Partition);

void BM_FullCompile(benchmark::State& state) {
  const ir::Function& fn = *NatSpec().fn;
  core::Compiler compiler;
  for (auto _ : state) {
    auto result = compiler.Compile(fn);
    benchmark::DoNotOptimize(result.ok());
  }
}
BENCHMARK(BM_FullCompile);

void BM_SoftwareMiddleboxPacket(benchmark::State& state) {
  auto spec = mbox::BuildMazuNat();
  runtime::SoftwareMiddlebox mbx(*spec);
  Rng rng(5);
  const net::FiveTuple flow = workload::RandomFlow(rng);
  net::Packet pkt = net::MakeTcpPacket(flow, net::kTcpAck, 512);
  pkt.set_ingress_port(mbox::kPortInternal);
  for (auto _ : state) {
    net::Packet p = pkt;
    auto outcome = mbx.Process(p);
    benchmark::DoNotOptimize(outcome.verdict.kind);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SoftwareMiddleboxPacket);

void BM_OffloadedFastPathPacket(benchmark::State& state) {
  auto spec = mbox::BuildMazuNat();
  runtime::OffloadedOptions options;
  options.serialize_wire = false;
  auto mbx = runtime::OffloadedMiddlebox::Create(*spec, options);
  Rng rng(5);
  const net::FiveTuple flow = workload::RandomFlow(rng);
  // Establish the mapping so the benchmark loop rides the fast path.
  net::Packet syn = net::MakeTcpPacket(flow, net::kTcpSyn, 0);
  syn.set_ingress_port(mbox::kPortInternal);
  (void)(*mbx)->Process(syn);
  net::Packet pkt = net::MakeTcpPacket(flow, net::kTcpAck, 512);
  pkt.set_ingress_port(mbox::kPortInternal);
  for (auto _ : state) {
    auto outcome = (*mbx)->Process(pkt);
    benchmark::DoNotOptimize(outcome.fast_path);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_OffloadedFastPathPacket);

void BM_TableLookup(benchmark::State& state) {
  switchsim::ExactMatchTable table("bench", 2, 1, 1 << 20);
  Rng rng(17);
  for (int i = 0; i < 100000; ++i) {
    (void)table.InsertMain({rng.NextU64() % 50000, rng.NextU64() % 50000},
                           {static_cast<uint64_t>(i)});
  }
  const bool use_wb = state.range(0) != 0;
  if (use_wb) {
    for (int i = 0; i < 100; ++i) {
      (void)table.Stage({static_cast<uint64_t>(i), 1},
                        switchsim::TableValue{7});
    }
    table.SetUseWriteBack(true);
  }
  uint64_t k = 0;
  switchsim::TableValue value;
  for (auto _ : state) {
    const bool hit = table.Lookup({k % 50000, (k * 7) % 50000}, &value);
    benchmark::DoNotOptimize(hit);
    ++k;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TableLookup)->Arg(0)->Arg(1)->ArgName("write_back");

void BM_ControlPlaneBatch(benchmark::State& state) {
  const int batch = static_cast<int>(state.range(0));
  switchsim::ExactMatchTable table("sync", 1, 1, 1 << 20);
  uint64_t next_key = 0;
  for (auto _ : state) {
    for (int i = 0; i < batch; ++i) {
      (void)table.Stage({next_key++}, switchsim::TableValue{1});
    }
    table.SetUseWriteBack(true);
    (void)table.ApplyStagedToMain();
    table.SetUseWriteBack(false);
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_ControlPlaneBatch)->Arg(1)->Arg(16)->Arg(256)->ArgName("batch");


// Compiler scaling: partition time as the input program grows. Dependency
// edges come from per-location def/use lists, the closure ORs word rows
// along the edges (O(E * n / 64)) and the label fixpoint is a worklist over
// the edges, so a chain grows about linearly; this tracks whether
// real-world program sizes stay comfortably interactive.
void BM_PartitionScaling(benchmark::State& state) {
  const int chain_length = static_cast<int>(state.range(0));
  frontend::MiddleboxBuilder mb("scaling");
  auto map = mb.DeclareMap("m", {ir::Width::kU32}, {ir::Width::kU32}, 4096);
  auto& b = mb.b();
  ir::Reg v = b.HeaderRead(ir::HeaderField::kIpSrc, "v");
  for (int i = 0; i < chain_length; ++i) {
    v = b.Alu(i % 7 == 6 ? ir::AluOp::kMod : ir::AluOp::kAdd, ir::R(v),
              ir::Imm(i + 1), ir::Width::kU32, "v" + std::to_string(i));
    if (i % 16 == 15) {
      const auto lk = map.Find({ir::R(v)});
      v = lk.values[0];
    }
  }
  b.HeaderWrite(ir::HeaderField::kIpDst, ir::R(v));
  b.Send(ir::Imm(1));
  auto fn = std::move(mb).Finish();
  if (!fn.ok()) {
    state.SkipWithError("program generation failed");
    return;
  }
  for (auto _ : state) {
    partition::Partitioner partitioner(**fn, {});
    auto plan = partitioner.Run();
    benchmark::DoNotOptimize(plan.ok());
  }
  state.SetComplexityN(chain_length);
}
BENCHMARK(BM_PartitionScaling)->Arg(32)->Arg(64)->Arg(128)->Arg(256)
    ->Arg(512)->Arg(1024)->Complexity();

}  // namespace

BENCHMARK_MAIN();
