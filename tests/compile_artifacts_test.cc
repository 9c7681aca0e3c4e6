// Byte-identity gate for the compiler's artifacts.
//
// Compiles a fixed program set (the five paper middleboxes, an IP router on a
// fixed route list, BM_PartitionScaling-style statement chains and seeded
// generator programs), once for the default Tofino-like target and once for
// the tiny test target that forces the spill/re-partition loop ("@tiny"
// rows), and compares an FNV-1a-64 fingerprint of every
// artifact against the checked-in list below: the partition plan summary,
// the RMT stage map, the number of partition rounds, the emitted P4 and the
// emitted server C++. A compiler change that is meant to be a pure speedup
// must leave every fingerprint unchanged.
//
// Regenerate the list (only for an intended output change) with
//   GALLIUM_PRINT_ARTIFACT_FINGERPRINTS=1 ./compile_artifacts_test
// and paste the printed rows over kGolden.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "core/compiler.h"
#include "frontend/middlebox_builder.h"
#include "mbox/middleboxes.h"
#include "program_generator.h"
#include "rmt/target.h"

namespace gallium {
namespace {

constexpr const char* kArtifacts[] = {"plan_summary", "stage_map",
                                      "partition_rounds", "p4_source",
                                      "server_source"};
constexpr int kNumArtifacts = sizeof(kArtifacts) / sizeof(kArtifacts[0]);
constexpr int kChainLengths[] = {64, 128, 256};
constexpr uint64_t kFirstGeneratorSeed = 1;
constexpr int kGeneratorSeeds = 20;

struct Fingerprint {
  const char* program;
  uint64_t hash[kNumArtifacts];
};

// clang-format off
constexpr Fingerprint kGolden[] = {
    {"chain128", {0xc1411a626561feafull, 0x5e1c2ddf299b8cd0ull, 0xaf63ac4c86019afcull, 0xf6294ffda8c6f8a7ull, 0x94c6d863d2381a95ull}},
    {"chain128@tiny", {0xc1411a626561feafull, 0x54844e64509053adull, 0xaf63ac4c86019afcull, 0xf6294ffda8c6f8a7ull, 0x94c6d863d2381a95ull}},
    {"chain256", {0xde02471750fd553cull, 0x5e1c2ddf299b8cd0ull, 0xaf63ac4c86019afcull, 0x28944d059ae32588ull, 0x07cbaba5587035c6ull}},
    {"chain256@tiny", {0xde02471750fd553cull, 0x54844e64509053adull, 0xaf63ac4c86019afcull, 0x28944d059ae32588ull, 0x07cbaba5587035c6ull}},
    {"chain64", {0x8bfe75e3eb439169ull, 0x5e1c2ddf299b8cd0ull, 0xaf63ac4c86019afcull, 0xbbf52549002e5935ull, 0x85ff877f485516edull}},
    {"chain64@tiny", {0x8bfe75e3eb439169ull, 0x54844e64509053adull, 0xaf63ac4c86019afcull, 0xbbf52549002e5935ull, 0x85ff877f485516edull}},
    {"firewall", {0x4e7f89f7763f1b41ull, 0x82c83301d389071full, 0xaf63ac4c86019afcull, 0x755bfc77be6c30c0ull, 0x6d5f6c512d1cf9b0ull}},
    {"firewall@tiny", {0xb87a4f45a43d4d3eull, 0xcbf29ce484222325ull, 0xaf63ae4c86019e62ull, 0xd6f3c53eae36e84eull, 0x68c4bde4f68e352dull}},
    {"gen1", {0x46560b2df864d4b5ull, 0xdf39b1ad9e6239b9ull, 0xaf63ac4c86019afcull, 0x1155cfd8b4bde62bull, 0xd3b4c96c35329469ull}},
    {"gen1@tiny", {0x434472a33a054591ull, 0xcbf29ce484222325ull, 0xaf63ae4c86019e62ull, 0x9da6e5bd7e26a16aull, 0x823a1abdeeae9534ull}},
    {"gen10", {0x82752f54cee04aa8ull, 0xcbf29ce484222325ull, 0xaf63ac4c86019afcull, 0x4af42c7e98aa83c8ull, 0x3224ed104299e4f2ull}},
    {"gen10@tiny", {0x82752f54cee04aa8ull, 0xcbf29ce484222325ull, 0xaf63ac4c86019afcull, 0x4af42c7e98aa83c8ull, 0x3224ed104299e4f2ull}},
    {"gen11", {0x0a61538da33d4b75ull, 0xe09b436a4afcb1ffull, 0xaf63ac4c86019afcull, 0x9c1f336250a455a7ull, 0x65e14835d1404e68ull}},
    {"gen11@tiny", {0x0a61538da33d4b75ull, 0xe09b436a4afcb1ffull, 0xaf63ac4c86019afcull, 0x9c1f336250a455a7ull, 0x65e14835d1404e68ull}},
    {"gen12", {0x2bee3f82add3d8b9ull, 0x7d5cf1ba87bd7e55ull, 0xaf63ac4c86019afcull, 0x9d5d04dd144d7337ull, 0x6d420ab45ea20bb0ull}},
    {"gen12@tiny", {0x2bee3f82add3d8b9ull, 0x5a4ba5f307e8496aull, 0xaf63ac4c86019afcull, 0x9d5d04dd144d7337ull, 0x6d420ab45ea20bb0ull}},
    {"gen13", {0xfe9234073fd1ab7aull, 0xcbf29ce484222325ull, 0xaf63ac4c86019afcull, 0xc11510a3d3c60e56ull, 0x282774c01bb2c993ull}},
    {"gen13@tiny", {0xfe9234073fd1ab7aull, 0xcbf29ce484222325ull, 0xaf63ac4c86019afcull, 0xc11510a3d3c60e56ull, 0x282774c01bb2c993ull}},
    {"gen14", {0x3ab9221d40da383aull, 0xdcee3a5b7b26581full, 0xaf63ac4c86019afcull, 0x563df862dcde7d82ull, 0x99083ad31720a9c2ull}},
    {"gen14@tiny", {0x3ab9221d40da383aull, 0xab90a316ea0bd375ull, 0xaf63ac4c86019afcull, 0x563df862dcde7d82ull, 0x99083ad31720a9c2ull}},
    {"gen15", {0xde10a940c714aaf8ull, 0x24cad34fff6d92faull, 0xaf63ac4c86019afcull, 0x90f29a6bbef65c6eull, 0x92cf54562275cf25ull}},
    {"gen15@tiny", {0xde10a940c714aaf8ull, 0x24cad34fff6d92faull, 0xaf63ac4c86019afcull, 0x90f29a6bbef65c6eull, 0x92cf54562275cf25ull}},
    {"gen16", {0x112dea89e50d24ecull, 0xcbf29ce484222325ull, 0xaf63ac4c86019afcull, 0x4e5805240236a403ull, 0xdb88a6f0c474ab81ull}},
    {"gen16@tiny", {0x112dea89e50d24ecull, 0xcbf29ce484222325ull, 0xaf63ac4c86019afcull, 0x4e5805240236a403ull, 0xdb88a6f0c474ab81ull}},
    {"gen17", {0xd87db1fef8fdad19ull, 0x5dda4f042ebb95aeull, 0xaf63ac4c86019afcull, 0x62f400accd6e11a6ull, 0x581a669499a2081full}},
    {"gen17@tiny", {0xd87db1fef8fdad19ull, 0xf3c0bf59f763eb3eull, 0xaf63ac4c86019afcull, 0x62f400accd6e11a6ull, 0x581a669499a2081full}},
    {"gen18", {0x70d220f66070c972ull, 0xcbf29ce484222325ull, 0xaf63ac4c86019afcull, 0x47cdfc8f23aaf31aull, 0xa49fe0e0161a1b90ull}},
    {"gen18@tiny", {0x70d220f66070c972ull, 0xcbf29ce484222325ull, 0xaf63ac4c86019afcull, 0x47cdfc8f23aaf31aull, 0xa49fe0e0161a1b90ull}},
    {"gen19", {0xcfb9556017306b2aull, 0xe09b436a4afcb1ffull, 0xaf63ac4c86019afcull, 0x2c47e285bea133b8ull, 0x9a781d15075662e4ull}},
    {"gen19@tiny", {0xcfb9556017306b2aull, 0xe09b436a4afcb1ffull, 0xaf63ac4c86019afcull, 0x2c47e285bea133b8ull, 0x9a781d15075662e4ull}},
    {"gen2", {0x63a36f10dfeac74eull, 0x49bc2fcbbdf909f8ull, 0xaf63ac4c86019afcull, 0xa85908de3d001ebbull, 0xec1b6d45447b228dull}},
    {"gen2@tiny", {0x63a36f10dfeac74eull, 0x49bc2fcbbdf909f8ull, 0xaf63ac4c86019afcull, 0xa85908de3d001ebbull, 0xec1b6d45447b228dull}},
    {"gen20", {0x5a13eb6580b109c7ull, 0xcbf29ce484222325ull, 0xaf63ac4c86019afcull, 0x267f14742b7a914eull, 0x04fbb7b32cef79a4ull}},
    {"gen20@tiny", {0x5a13eb6580b109c7ull, 0xcbf29ce484222325ull, 0xaf63ac4c86019afcull, 0x267f14742b7a914eull, 0x04fbb7b32cef79a4ull}},
    {"gen3", {0xb5290ea66dfdcf6cull, 0x51d89e895f2dad2full, 0xaf63ac4c86019afcull, 0x0bda2256af814baeull, 0x05c632c46d1fa293ull}},
    {"gen3@tiny", {0x40c0da526db05a82ull, 0xab90a316ea0bd375ull, 0xaf63af4c8601a015ull, 0xeb21e6406a85bd13ull, 0xe0bbf3c9e4d7b144ull}},
    {"gen4", {0x478f2d925a0707f5ull, 0x906728cb4c5a155bull, 0xaf63ac4c86019afcull, 0xaa4df6d4b9843f5full, 0xb34c459ba17b512aull}},
    {"gen4@tiny", {0x478f2d925a0707f5ull, 0xc80737492bf05831ull, 0xaf63ac4c86019afcull, 0xaa4df6d4b9843f5full, 0xb34c459ba17b512aull}},
    {"gen5", {0xf1017467376d5dd2ull, 0x49bc30cbbdf90babull, 0xaf63ac4c86019afcull, 0x34a2f0560cff7865ull, 0x3ce190975bb31fd7ull}},
    {"gen5@tiny", {0xf1017467376d5dd2ull, 0x49bc30cbbdf90babull, 0xaf63ac4c86019afcull, 0x34a2f0560cff7865ull, 0x3ce190975bb31fd7ull}},
    {"gen6", {0x887ac833e0a9536dull, 0xe09b436a4afcb1ffull, 0xaf63ac4c86019afcull, 0xf8e19f19fc9c10f9ull, 0xf4675511c5326500ull}},
    {"gen6@tiny", {0x887ac833e0a9536dull, 0xe09b436a4afcb1ffull, 0xaf63ac4c86019afcull, 0xf8e19f19fc9c10f9ull, 0xf4675511c5326500ull}},
    {"gen7", {0x372a43040f91d9e6ull, 0x49bc2fcbbdf909f8ull, 0xaf63ac4c86019afcull, 0x01f94858d9a430edull, 0x5acb402bfeb94038ull}},
    {"gen7@tiny", {0x372a43040f91d9e6ull, 0x49bc2fcbbdf909f8ull, 0xaf63ac4c86019afcull, 0x01f94858d9a430edull, 0x5acb402bfeb94038ull}},
    {"gen8", {0x893fb437a629f5f9ull, 0xcbf29ce484222325ull, 0xaf63ac4c86019afcull, 0xdd1c98bf4fcec52full, 0xc7fdbb77470f63a3ull}},
    {"gen8@tiny", {0x893fb437a629f5f9ull, 0xcbf29ce484222325ull, 0xaf63ac4c86019afcull, 0xdd1c98bf4fcec52full, 0xc7fdbb77470f63a3ull}},
    {"gen9", {0x5e1f1c31b593466dull, 0xe09b436a4afcb1ffull, 0xaf63ac4c86019afcull, 0x4ea824056aaec877ull, 0xe58eea19d68893d2ull}},
    {"gen9@tiny", {0x5e1f1c31b593466dull, 0xe09b436a4afcb1ffull, 0xaf63ac4c86019afcull, 0x4ea824056aaec877ull, 0xe58eea19d68893d2ull}},
    {"lb", {0xad2bed0063259da0ull, 0x57ce6f3b5b15ae25ull, 0xaf63ac4c86019afcull, 0xe16f42dcc77e7900ull, 0x2a4da1998ca65718ull}},
    {"lb@tiny", {0x339848414669b89aull, 0xcbf29ce484222325ull, 0xaf63ae4c86019e62ull, 0xb3bfdbeb7db5f559ull, 0x7d52c4141715fff2ull}},
    {"nat", {0x2ae6c72e15b9fc1cull, 0xffa63b8756246dcaull, 0xaf63ac4c86019afcull, 0xce2abd9f661dc1d9ull, 0xeb450ded8b4448c8ull}},
    {"nat@tiny", {0x8ad45437ad9838a9ull, 0xcbf29ce484222325ull, 0xaf63a94c860195e3ull, 0x466c7bf430bec5a2ull, 0xf296fd45641ff553ull}},
    {"proxy", {0x62471d771d3874e7ull, 0xc24ba4c2eb6915b4ull, 0xaf63ac4c86019afcull, 0x61b59dca21117641ull, 0x00febceb490a75edull}},
    {"proxy@tiny", {0x62471d771d3874e7ull, 0xc24ba4c2eb6915b4ull, 0xaf63ac4c86019afcull, 0x61b59dca21117641ull, 0x00febceb490a75edull}},
    {"router", {0x5f2269bdc3ecd119ull, 0x4f56f6645113034aull, 0xaf63ac4c86019afcull, 0x430b4636786f6b03ull, 0x9886888f84d05106ull}},
    {"router@tiny", {0x4e2fa7ee206696f8ull, 0xcbf29ce484222325ull, 0xaf63af4c8601a015ull, 0xddcd392f26bbbab7ull, 0xfa5ff7b64831c6f1ull}},
    {"trojan", {0x4708c67a5298cb0full, 0x2270bc8e216d8155ull, 0xaf63ac4c86019afcull, 0x5187b6b5c5439267ull, 0xcc122bc1ca4f4cbdull}},
    {"trojan@tiny", {0x743301daeb99ab7bull, 0xcbf29ce484222325ull, 0xaf63ae4c86019e62ull, 0x5e7619361906d5edull, 0x8e22d86ee8732f70ull}},
};
// clang-format on

uint64_t Fnv1a64(const std::string& text) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char c : text) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

// A straight-line chain in the style of BM_PartitionScaling: `length` ALU
// statements over one header field with a map lookup every 16 statements.
Result<mbox::MiddleboxSpec> Chain(int length) {
  frontend::MiddleboxBuilder mb("chain" + std::to_string(length));
  auto map = mb.DeclareMap("m", {ir::Width::kU32}, {ir::Width::kU32}, 4096);
  auto& b = mb.b();
  ir::Reg v = b.HeaderRead(ir::HeaderField::kIpSrc, "v");
  for (int i = 0; i < length; ++i) {
    v = b.Alu(i % 7 == 6 ? ir::AluOp::kMod : ir::AluOp::kAdd, ir::R(v),
              ir::Imm(i + 1), ir::Width::kU32, "v" + std::to_string(i));
    if (i % 16 == 15) v = map.Find({ir::R(v)}).values[0];
  }
  b.HeaderWrite(ir::HeaderField::kIpDst, ir::R(v));
  b.Send(ir::Imm(1));
  mbox::MiddleboxSpec spec;
  spec.name = "chain" + std::to_string(length);
  GALLIUM_ASSIGN_OR_RETURN(spec.fn, std::move(mb).Finish());
  return spec;
}

std::vector<mbox::RouteEntry> FixedRoutes() {
  std::vector<mbox::RouteEntry> routes;
  routes.push_back({0, 0, 1, 0x020000000001ull});  // default route
  for (uint32_t i = 0; i < 24; ++i) {
    routes.push_back({(10u << 24) | (i << 16), 16, 2 + i % 6,
                      0x020000000100ull + i});
    routes.push_back({(10u << 24) | (i << 16) | (i << 8), 24, 8 + i % 4,
                      0x020000000200ull + i});
  }
  routes.push_back({(192u << 24) | (168u << 16), 16, 3, 0x020000000300ull});
  return routes;
}

std::map<std::string, Result<mbox::MiddleboxSpec>> ProgramSet() {
  std::map<std::string, Result<mbox::MiddleboxSpec>> set;
  set.emplace("nat", mbox::BuildMazuNat());
  set.emplace("lb", mbox::BuildLoadBalancer());
  set.emplace("firewall", mbox::BuildFirewall());
  set.emplace("proxy", mbox::BuildProxy());
  set.emplace("trojan", mbox::BuildTrojanDetector());
  set.emplace("router", mbox::BuildIpRouter(FixedRoutes()));
  for (int length : kChainLengths) {
    set.emplace("chain" + std::to_string(length), Chain(length));
  }
  for (int i = 0; i < kGeneratorSeeds; ++i) {
    const uint64_t seed = kFirstGeneratorSeed + i;
    set.emplace("gen" + std::to_string(seed),
                testing::ProgramGenerator(seed).Generate());
  }
  return set;
}

// The artifacts of one compile, in kArtifacts order. A failed compile is
// fingerprinted by its status, so a program that starts or stops compiling
// also shows up as a change.
std::vector<std::string> Artifacts(const ir::Function& fn, bool tiny) {
  core::CompileOptions options;
  if (tiny) options.target = rmt::TinyTestProfile();
  const core::Compiler compiler(options);
  auto result = compiler.Compile(fn);
  if (!result.ok()) {
    const std::string status = "error: " + result.status().ToString();
    return std::vector<std::string>(kNumArtifacts, status);
  }
  return {result->plan.Summary(fn), result->placement.StageMapString(),
          std::to_string(result->partition_rounds), result->p4_source,
          result->server_source};
}

TEST(CompileArtifacts, FingerprintsMatchGolden) {
  std::map<std::string, const Fingerprint*> golden;
  for (const Fingerprint& fp : kGolden) golden[fp.program] = &fp;
  const bool print = std::getenv("GALLIUM_PRINT_ARTIFACT_FINGERPRINTS");

  for (const auto& [program, spec] : ProgramSet()) {
    ASSERT_TRUE(spec.ok()) << program << ": " << spec.status().ToString();
    for (const bool tiny : {false, true}) {
      const std::string name = tiny ? program + "@tiny" : program;
      std::vector<uint64_t> hashes;
      for (const std::string& artifact : Artifacts(*spec->fn, tiny)) {
        hashes.push_back(Fnv1a64(artifact));
      }
      if (print) {
        std::printf("    {\"%s\", {", name.c_str());
        for (int a = 0; a < kNumArtifacts; ++a) {
          std::printf("%s0x%016" PRIx64 "ull", a == 0 ? "" : ", ", hashes[a]);
        }
        std::printf("}},\n");
        continue;
      }
      const auto it = golden.find(name);
      if (it == golden.end()) {
        ADD_FAILURE() << name << ": no golden fingerprint";
        continue;
      }
      for (int a = 0; a < kNumArtifacts; ++a) {
        EXPECT_EQ(hashes[a], it->second->hash[a])
            << name << ": " << kArtifacts[a] << " changed";
      }
    }
  }
}

}  // namespace
}  // namespace gallium
