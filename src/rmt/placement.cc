#include "rmt/placement.h"

#include <algorithm>
#include <map>
#include <numeric>
#include <optional>
#include <sstream>

#include "analysis/depgraph.h"
#include "util/strings.h"

namespace gallium::rmt {
namespace {

using partition::Part;
using partition::StatePlacement;

// Per-entry bookkeeping overhead, matching switchsim's memory accounting
// (pointer/next-hop bytes per bucket).
constexpr int kEntryOverheadBytes = 4;

// Bounded chronological backtracking: how many placement decisions the
// allocator may undo before declaring the program unplaceable.
constexpr int kBacktrackBudget = 512;

int CeilDiv(uint64_t a, uint64_t b) {
  return static_cast<int>((a + b - 1) / b);
}

int SumBits(const std::vector<ir::Width>& widths) {
  int bits = 0;
  for (ir::Width w : widths) bits += ir::BitWidth(w);
  return bits;
}

// Quantizes a match table's demand to the target's block geometry.
void SizeMatchTable(const RmtTargetModel& target, TableRequirement* req) {
  const uint64_t entries = std::max<uint64_t>(1, req->entries);
  const uint64_t entry_bytes = static_cast<uint64_t>(
      (req->key_bits + 7) / 8 + (req->value_bits + 7) / 8 +
      kEntryOverheadBytes);
  const uint64_t block_bytes =
      static_cast<uint64_t>(target.sram_block_kb) * 1024;
  if (req->needs_tcam) {
    // lpm: the match happens in TCAM; SRAM holds only the action data.
    req->tcam_blocks =
        std::max(1, CeilDiv(entries, target.tcam_block_entries) *
                        std::max(1, CeilDiv(req->key_bits,
                                            target.tcam_block_bits)));
    const uint64_t action_bytes =
        entries * ((req->value_bits + 7) / 8 + kEntryOverheadBytes);
    req->sram_blocks = std::max(1, CeilDiv(action_bytes, block_bytes));
    req->hash_units = 0;
  } else {
    req->tcam_blocks = 0;
    req->sram_blocks =
        std::max(1, CeilDiv(entries * entry_bytes, block_bytes));
    req->hash_units =
        std::max(1, CeilDiv(req->key_bits, target.hash_unit_bits));
  }
  req->crossbar_bits = req->key_bits;
}

// The on-switch instruction accessing `ref` (Constraint 3 admits at most
// one), or null.
const ir::Instruction* FindSwitchAccess(const ir::Function& fn,
                                        const partition::PartitionPlan& plan,
                                        const ir::StateRef& ref,
                                        ir::Opcode only = ir::Opcode::kReturn,
                                        bool filter_op = false) {
  for (const auto& block : fn.blocks()) {
    for (const auto& inst : block.insts) {
      ir::StateRef touched;
      if (!ir::Function::InstStateRef(inst, &touched)) continue;
      if (touched != ref) continue;
      if (filter_op && inst.op != only) continue;
      if (inst.id >= 0 && inst.id < static_cast<int>(plan.assignment.size()) &&
          plan.OnSwitch(inst.id)) {
        return &inst;
      }
    }
  }
  return nullptr;
}

struct Capacity {
  int sram, tcam, hash, alu, xbar, tables;
};

Capacity CapacityOf(const RmtTargetModel& t) {
  return {t.sram_blocks_per_stage, t.tcam_blocks_per_stage,
          t.hash_units_per_stage,  t.action_alus_per_stage,
          t.crossbar_bits_per_stage, t.max_tables_per_stage};
}

// Name of the first resource `req` overflows in `occ`, or null if it fits.
const char* BlockingResource(const TableRequirement& req,
                             const StageOccupancy& occ, const Capacity& cap) {
  if (occ.num_tables + 1 > cap.tables) return "table_ids";
  if (occ.sram_blocks + req.sram_blocks > cap.sram) return "sram_blocks";
  if (occ.tcam_blocks + req.tcam_blocks > cap.tcam) return "tcam_blocks";
  if (occ.hash_units + req.hash_units > cap.hash) return "hash_units";
  if (occ.action_alus + req.action_alus > cap.alu) return "action_alus";
  if (occ.crossbar_bits + req.crossbar_bits > cap.xbar) {
    return "crossbar_bits";
  }
  return nullptr;
}

void Commit(const TableRequirement& req, int idx, StageOccupancy* occ) {
  occ->sram_blocks += req.sram_blocks;
  occ->tcam_blocks += req.tcam_blocks;
  occ->hash_units += req.hash_units;
  occ->action_alus += req.action_alus;
  occ->crossbar_bits += req.crossbar_bits;
  occ->num_tables += 1;
  occ->tables.push_back(idx);
}

void Uncommit(const TableRequirement& req, StageOccupancy* occ) {
  occ->sram_blocks -= req.sram_blocks;
  occ->tcam_blocks -= req.tcam_blocks;
  occ->hash_units -= req.hash_units;
  occ->action_alus -= req.action_alus;
  occ->crossbar_bits -= req.crossbar_bits;
  occ->num_tables -= 1;
  occ->tables.pop_back();
}

}  // namespace

const char* TableKindName(TableRequirement::Kind kind) {
  switch (kind) {
    case TableRequirement::Kind::kMatchTable: return "match";
    case TableRequirement::Kind::kWriteBack: return "write-back";
    case TableRequirement::Kind::kRegister: return "register";
  }
  return "?";
}

std::vector<TableRequirement> BuildLogicalTables(
    const ir::Function& fn, const partition::PartitionPlan& plan,
    const RmtTargetModel& target, const analysis::DependencyGraph* deps) {
  std::vector<TableRequirement> reqs;

  // One register occupies a single SRAM block and one stateful ALU.
  auto make_register = [&](std::string name, const ir::StateRef& ref,
                           const ir::Instruction* access) {
    TableRequirement r;
    r.name = std::move(name);
    r.state = ref;
    r.kind = TableRequirement::Kind::kRegister;
    r.entries = 1;
    r.sram_blocks = 1;
    r.action_alus = 1;
    if (access != nullptr) {
      r.access = access->id;
      r.part = plan.PartOf(access->id);
    }
    return r;
  };

  for (const auto& [ref, placement] : plan.state_placement) {
    if (placement == StatePlacement::kServerOnly) continue;
    switch (ref.kind) {
      case ir::StateRef::Kind::kMap: {
        const ir::MapDecl& decl = fn.map(ref.index);
        const std::string name = SanitizeIdentifier(decl.name);
        const ir::Instruction* access = FindSwitchAccess(fn, plan, ref);

        TableRequirement main;
        main.name = "tbl_" + name;
        main.state = ref;
        main.kind = TableRequirement::Kind::kMatchTable;
        main.needs_tcam = decl.is_lpm();
        main.entries = decl.max_entries;
        main.key_bits = SumBits(decl.key_widths);
        main.value_bits = SumBits(decl.value_widths);
        // One ALU write per value word plus the hit flag.
        main.action_alus = static_cast<int>(decl.value_widths.size()) + 1;
        SizeMatchTable(target, &main);
        if (access != nullptr) {
          main.access = access->id;
          main.part = plan.PartOf(access->id);
        }

        // §4.3.3 shadow: same key/value shape at a quarter of the entries,
        // guarded by the use-write-back register read.
        TableRequirement wb = main;
        wb.name = "tbl_" + name + "_wb";
        wb.kind = TableRequirement::Kind::kWriteBack;
        wb.entries = std::max<uint64_t>(16, main.entries / 4);
        wb.action_alus = main.action_alus + 1;  // + the deleted flag
        SizeMatchTable(target, &wb);

        TableRequirement wb_active =
            make_register("wb_active_" + name, ref, access);

        const int wb_active_idx = static_cast<int>(reqs.size());
        reqs.push_back(std::move(wb_active));
        const int wb_idx = static_cast<int>(reqs.size());
        wb.after.push_back(wb_active_idx);  // read the bit, then shadow...
        reqs.push_back(std::move(wb));
        main.after.push_back(wb_idx);  // ...then the main table (§4.3.3)
        reqs.push_back(std::move(main));
        break;
      }
      case ir::StateRef::Kind::kVector: {
        const ir::VectorDecl& decl = fn.vector(ref.index);
        const std::string name = SanitizeIdentifier(decl.name);
        const ir::Instruction* get = FindSwitchAccess(
            fn, plan, ref, ir::Opcode::kVectorGet, /*filter_op=*/true);
        const ir::Instruction* len = FindSwitchAccess(
            fn, plan, ref, ir::Opcode::kVectorLen, /*filter_op=*/true);

        TableRequirement table;
        table.name = "tbl_" + name;
        table.state = ref;
        table.kind = TableRequirement::Kind::kMatchTable;
        table.entries = decl.max_size;
        table.key_bits = 32;  // position index
        table.value_bits = ir::BitWidth(decl.elem_width);
        table.action_alus = 1;
        SizeMatchTable(target, &table);
        if (get != nullptr) {
          table.access = get->id;
          table.part = plan.PartOf(get->id);
        }
        reqs.push_back(std::move(table));
        reqs.push_back(make_register("reg_" + name + "_size", ref, len));
        break;
      }
      case ir::StateRef::Kind::kGlobal: {
        const ir::GlobalDecl& decl = fn.global(ref.index);
        const ir::Instruction* access = FindSwitchAccess(fn, plan, ref);
        reqs.push_back(make_register(
            "reg_" + SanitizeIdentifier(decl.name), ref, access));
        break;
      }
    }
  }

  // Cross-state ordering: a table whose driving instruction transitively
  // depends on another table's result must be applied in a later stage of
  // the same pipeline pass. Tables of different passes share stage capacity
  // but not ordering (the packet traverses the pipeline once per pass).
  std::optional<analysis::DependencyGraph> own_deps;
  if (deps == nullptr) deps = &own_deps.emplace(fn);
  const int n = static_cast<int>(reqs.size());
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      if (i == j) continue;
      if (reqs[i].state == reqs[j].state) continue;  // intra-state edges set
      if (reqs[i].access == ir::kInvalidInst ||
          reqs[j].access == ir::kInvalidInst) {
        continue;
      }
      if (reqs[i].part != reqs[j].part) continue;
      if (reqs[i].access == reqs[j].access) continue;
      if (!deps->TransitivelyDependsOn(reqs[j].access, reqs[i].access)) {
        continue;
      }
      // Mutual dependence (shared loop) has no stage order; skip both.
      if (deps->TransitivelyDependsOn(reqs[i].access, reqs[j].access)) continue;
      reqs[j].after.push_back(i);
    }
  }

  // Longest-path levels over the (acyclic) `after` edges; the level is both
  // the topological sort key and a lower bound on the stage index.
  std::vector<int> level(n, 0);
  bool changed = true;
  int guard = 0;
  while (changed && guard++ <= n + 1) {
    changed = false;
    for (int i = 0; i < n; ++i) {
      for (int dep : reqs[i].after) {
        if (level[i] < level[dep] + 1) {
          level[i] = level[dep] + 1;
          changed = true;
        }
      }
    }
  }
  for (int i = 0; i < n; ++i) reqs[i].dep_level = level[i];
  return reqs;
}

PlacementResult PlaceTables(const ir::Function& fn,
                            const partition::PartitionPlan& plan,
                            const RmtTargetModel& target,
                            const analysis::DependencyGraph* deps) {
  PlacementResult result;
  result.report.target = target;
  result.report.tables = BuildLogicalTables(fn, plan, target, deps);
  auto& reqs = result.report.tables;
  const int n = static_cast<int>(reqs.size());
  result.report.stage_of.assign(n, -1);
  result.report.stages.assign(target.num_stages, StageOccupancy{});

  if (Status v = target.Validate(); !v.ok()) {
    result.failure = PlacementFailure{"", -1, "target", v.ToString()};
    return result;
  }
  if (n == 0) return result;

  // Deterministic topological order: dependency level, then name.
  std::vector<int> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    if (reqs[a].dep_level != reqs[b].dep_level) {
      return reqs[a].dep_level < reqs[b].dep_level;
    }
    return reqs[a].name < reqs[b].name;
  });

  const Capacity cap = CapacityOf(target);
  auto& stages = result.report.stages;
  auto& stage_of = result.report.stage_of;

  // One table may span several stages when its memory exceeds a single
  // stage's SRAM/TCAM budget (Tofino-style table splitting): match ways
  // land in each spanned stage — paying crossbar bits, a hash unit set, a
  // table ID, and action ALUs there — and the lookup completes in the last
  // one. A binding records the per-stage resource slice so it can be undone
  // exactly on backtrack.
  struct StageUse {
    int stage;
    TableRequirement slice;  // resource demand charged to this stage
  };
  std::vector<std::vector<StageUse>> binding(n);

  // Attempts to bind `req` starting at `start`; returns the per-stage uses
  // or empty on failure, with the blocking resource in `*why` and the stage
  // it blocked at in `*where`.
  auto try_bind = [&](const TableRequirement& req, int start,
                      std::vector<StageUse>* uses, const char** why,
                      int* where) {
    uses->clear();
    int remaining_sram = req.sram_blocks;
    int remaining_tcam = req.tcam_blocks;
    *why = nullptr;
    for (int s = start; s < target.num_stages; ++s) {
      TableRequirement slice = req;
      slice.sram_blocks = 0;
      slice.tcam_blocks = 0;
      const char* block = BlockingResource(slice, stages[s], cap);
      if (block != nullptr) {
        // No room for even the match/action part here; a spanning table
        // may skip a crowded stage, a fresh one keeps searching starts.
        if (uses->empty()) {
          *why = block;
          *where = s;
          return false;
        }
        continue;
      }
      const int free_sram =
          cap.sram - stages[s].sram_blocks;
      const int free_tcam = cap.tcam - stages[s].tcam_blocks;
      const int take_sram = std::min(remaining_sram, free_sram);
      const int take_tcam = std::min(remaining_tcam, free_tcam);
      if (take_sram <= 0 && take_tcam <= 0 &&
          (remaining_sram > 0 || remaining_tcam > 0)) {
        continue;  // stage has IDs/xbar free but no memory; skip it
      }
      slice.sram_blocks = take_sram;
      slice.tcam_blocks = take_tcam;
      uses->push_back({s, slice});
      remaining_sram -= take_sram;
      remaining_tcam -= take_tcam;
      if (remaining_sram <= 0 && remaining_tcam <= 0) return true;
    }
    *why = remaining_tcam > 0 ? "tcam_blocks" : "sram_blocks";
    *where = target.num_stages - 1;
    return false;
  };

  // Earliest legal stage for `idx` given already-bound predecessors (a
  // dependent table starts after the stage its predecessor completes in).
  auto min_stage = [&](int idx) {
    int s = 0;
    for (int dep : reqs[idx].after) {
      if (stage_of[dep] >= 0) s = std::max(s, stage_of[dep] + 1);
    }
    return s;
  };

  auto commit = [&](int idx, const std::vector<StageUse>& uses) {
    for (const StageUse& u : uses) Commit(u.slice, idx, &stages[u.stage]);
    binding[idx] = uses;
    stage_of[idx] = uses.back().stage;  // the stage the lookup completes in
  };
  auto uncommit = [&](int idx) {
    for (const StageUse& u : binding[idx]) {
      Uncommit(u.slice, &stages[u.stage]);
    }
    binding[idx].clear();
    stage_of[idx] = -1;
  };

  // Chronological backtracking over each table's start stage, in
  // topological order. `resume_from[pos]` is the first start stage the
  // binding at `pos` may consider (advanced past the failed choice on
  // backtrack).
  std::vector<int> resume_from(n, 0);
  std::vector<int> started_at(n, 0);
  int pos = 0;
  int backtracks = 0;
  while (pos < n) {
    const int idx = order[pos];
    const TableRequirement& req = reqs[idx];
    const int lower = min_stage(idx);
    const char* why = nullptr;
    int where = target.num_stages - 1;
    bool bound = false;
    std::vector<StageUse> uses;
    for (int start = std::max(lower, resume_from[pos]);
         start < target.num_stages; ++start) {
      if (try_bind(req, start, &uses, &why, &where)) {
        commit(idx, uses);
        started_at[pos] = start;
        ++pos;
        if (pos < n) resume_from[pos] = 0;
        bound = true;
        break;
      }
    }
    if (bound) continue;
    if (pos == 0 || backtracks >= kBacktrackBudget) {
      // Structured failure: name the blocking resource at the last stage a
      // placement was attempted (or the dependency chain itself).
      PlacementFailure f;
      f.table = req.name;
      if (lower >= target.num_stages) {
        f.stage = target.num_stages - 1;
        f.resource = "stages";
        f.message = req.name + ": dependency chain needs stage " +
                    std::to_string(lower) + " but the pipeline has " +
                    std::to_string(target.num_stages) + " stages";
      } else {
        f.stage = where;
        f.resource = why == nullptr ? "sram_blocks" : why;
        f.message = req.name + " (" + std::string(TableKindName(req.kind)) +
                    ", " + std::to_string(req.entries) + " entries, sram " +
                    std::to_string(req.sram_blocks) + " tcam " +
                    std::to_string(req.tcam_blocks) +
                    " blocks): no feasible start stage in [" +
                    std::to_string(lower) + ", " +
                    std::to_string(target.num_stages) +
                    "); binding resource: " + f.resource;
      }
      result.report.backtracks = backtracks;
      result.failure = std::move(f);
      return result;
    }
    // Undo the previous binding and push its start one stage further.
    ++backtracks;
    --pos;
    uncommit(order[pos]);
    resume_from[pos] = started_at[pos] + 1;
  }
  result.report.backtracks = backtracks;
  return result;
}

int PlacementReport::StagesOccupied() const {
  int highest = -1;
  for (int s = 0; s < static_cast<int>(stages.size()); ++s) {
    if (!stages[s].tables.empty()) highest = s;
  }
  return highest + 1;
}

double PlacementReport::MaxStageUtilization(std::string* which) const {
  double best = 0;
  for (const StageOccupancy& occ : stages) {
    struct {
      const char* name;
      double used, cap;
    } dims[] = {
        {"sram_blocks", double(occ.sram_blocks),
         double(target.sram_blocks_per_stage)},
        {"tcam_blocks", double(occ.tcam_blocks),
         double(std::max(1, target.tcam_blocks_per_stage))},
        {"hash_units", double(occ.hash_units),
         double(target.hash_units_per_stage)},
        {"action_alus", double(occ.action_alus),
         double(target.action_alus_per_stage)},
        {"crossbar_bits", double(occ.crossbar_bits),
         double(target.crossbar_bits_per_stage)},
        {"table_ids", double(occ.num_tables),
         double(target.max_tables_per_stage)},
    };
    for (const auto& d : dims) {
      const double u = d.cap == 0 ? 0 : d.used / d.cap;
      if (u > best) {
        best = u;
        if (which != nullptr) *which = d.name;
      }
    }
  }
  return best;
}

int PlacementReport::StageOfState(const ir::StateRef& ref) const {
  for (int i = 0; i < static_cast<int>(tables.size()); ++i) {
    if (tables[i].state == ref &&
        tables[i].kind != TableRequirement::Kind::kWriteBack) {
      // Prefer the match table; a lone register is its own answer.
      if (tables[i].kind == TableRequirement::Kind::kMatchTable ||
          ref.kind == ir::StateRef::Kind::kGlobal) {
        return stage_of[i];
      }
    }
  }
  return -1;
}

std::string PlacementReport::StageMapString() const {
  std::ostringstream out;
  bool first = true;
  for (int s = 0; s < static_cast<int>(stages.size()); ++s) {
    if (stages[s].tables.empty()) continue;
    if (!first) out << " ";
    first = false;
    out << s << ":";
    for (size_t i = 0; i < stages[s].tables.size(); ++i) {
      if (i > 0) out << ",";
      out << tables[stages[s].tables[i]].name;
    }
  }
  return out.str();
}

std::string PlacementReport::Summary() const {
  std::ostringstream out;
  out << target.Summary() << "\n";
  int placed = 0;
  for (int s : stage_of) placed += (s >= 0) ? 1 : 0;
  std::string binding;
  const double util = MaxStageUtilization(&binding);
  out << "placement: " << placed << "/" << tables.size() << " tables in "
      << StagesOccupied() << "/" << target.num_stages << " stages";
  if (placed > 0) {
    out << ", peak stage utilization "
        << static_cast<int>(util * 100.0 + 0.5) << "% (" << binding << ")";
  }
  out << "\n";
  for (int s = 0; s < static_cast<int>(stages.size()); ++s) {
    const StageOccupancy& occ = stages[s];
    if (occ.tables.empty()) continue;
    out << "  stage " << s << ": sram " << occ.sram_blocks << "/"
        << target.sram_blocks_per_stage << "  tcam " << occ.tcam_blocks
        << "/" << target.tcam_blocks_per_stage << "  hash " << occ.hash_units
        << "/" << target.hash_units_per_stage << "  alu " << occ.action_alus
        << "/" << target.action_alus_per_stage << "  xbar "
        << occ.crossbar_bits << "/" << target.crossbar_bits_per_stage
        << "  |";
    for (int idx : occ.tables) out << " " << tables[idx].name;
    out << "\n";
  }
  return out.str();
}

}  // namespace gallium::rmt
