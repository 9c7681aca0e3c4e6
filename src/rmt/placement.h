// Table placement: allocate the offloaded program's match-action tables
// into the physical stages of an RMT pipeline (target.h).
//
// The placement works on *logical tables* derived from the partition plan —
// one main match table per switch-resident map (plus its §4.3.3 write-back
// shadow and use-write-back register), one index table and size register
// per resident vector, one register per resident global. Names follow
// p4::GenerateP4's emission exactly ("tbl_<state>", "tbl_<state>_wb",
// "wb_active_<state>", "reg_<name>"), so the report reads 1:1 against the
// emitted P4, but the derivation is independent of the P4 layer: the
// runtime (which never links p4) validates its plans against the same
// concrete target the compiler does.
//
// Placement order is topological in the match/action dependency graph: a
// table whose match key or action inputs depend on another table's result
// must live in a strictly later stage. Within that order the allocator is
// greedy — first stage with room across all five per-stage resources — with
// bounded chronological backtracking when a later table cannot be placed.
// Failure is structured: the first unplaceable table and the resource that
// blocked it, so the partitioner's feedback loop (feedback.h) and galliumc's
// JSON diagnostics can act on it.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "ir/function.h"
#include "partition/plan.h"
#include "rmt/target.h"

namespace gallium::analysis {
class DependencyGraph;
}  // namespace gallium::analysis

namespace gallium::rmt {

// One logical table (or stage register) and its per-stage resource demand.
struct TableRequirement {
  enum class Kind : uint8_t {
    kMatchTable,  // map main table / vector index table
    kWriteBack,   // §4.3.3 shadow of a main table
    kRegister,    // global register / wb-active bit / vector size register
  };

  std::string name;
  ir::StateRef state;
  Kind kind = Kind::kMatchTable;
  bool needs_tcam = false;  // lpm tables match in TCAM
  uint64_t entries = 0;
  int key_bits = 0;
  int value_bits = 0;

  // Per-stage resource demand.
  int sram_blocks = 0;
  int tcam_blocks = 0;
  int hash_units = 0;
  int action_alus = 0;
  int crossbar_bits = 0;

  // Instruction whose offloaded execution drives this table (kInvalidInst
  // for derived objects like the write-back shadow).
  ir::InstId access = ir::kInvalidInst;
  // Which pipeline pass applies it (tables of different passes share stage
  // resources but have no ordering constraint between them).
  partition::Part part = partition::Part::kPre;
  // Longest chain of same-pass table dependencies below this table.
  int dep_level = 0;
  // Indices (into the requirement vector) of tables that must be placed in
  // strictly earlier stages.
  std::vector<int> after;
};

// Occupancy of one physical stage after placement.
struct StageOccupancy {
  int sram_blocks = 0;
  int tcam_blocks = 0;
  int hash_units = 0;
  int action_alus = 0;
  int crossbar_bits = 0;
  int num_tables = 0;
  std::vector<int> tables;  // requirement indices placed here
};

// Structured placement failure: the first table the allocator could not
// place and the resource that blocked it at the last stage tried.
struct PlacementFailure {
  std::string table;
  int stage = -1;  // stage where the binding search gave up
  std::string resource;
  std::string message;
};

struct PlacementReport {
  RmtTargetModel target;
  std::vector<TableRequirement> tables;
  std::vector<int> stage_of;  // parallel to `tables`; -1 = unplaced
  std::vector<StageOccupancy> stages;
  int backtracks = 0;

  // Number of stages with at least one table, counted from stage 0 to the
  // highest occupied stage (a pass traverses every stage up to it).
  int StagesOccupied() const;
  // Peak fractional utilization across stages; `*which` names the binding
  // resource (e.g. "sram_blocks") when non-null.
  double MaxStageUtilization(std::string* which = nullptr) const;
  // Stage of the state's primary match table / register, -1 if absent.
  int StageOfState(const ir::StateRef& ref) const;

  // "0:tbl_a,tbl_b 1:tbl_c" — compact, deterministic; golden-snapshot food.
  std::string StageMapString() const;
  // Multi-line human-readable occupancy table for `galliumc --resources`.
  std::string Summary() const;
};

struct PlacementResult {
  PlacementReport report;
  std::optional<PlacementFailure> failure;
  bool ok() const { return !failure.has_value(); }
};

// Derives the logical tables the plan's switch partitions need, with
// resource demands quantized to the target's block geometry and dependency
// edges from the function's match/action dependency graph. `deps`, when
// non-null, is `fn`'s dependency graph, used instead of building one.
std::vector<TableRequirement> BuildLogicalTables(
    const ir::Function& fn, const partition::PartitionPlan& plan,
    const RmtTargetModel& target,
    const analysis::DependencyGraph* deps = nullptr);

// Assigns every logical table to a stage, or reports the first table that
// cannot be placed. Deterministic for a given (fn, plan, target). `deps` is
// passed through to BuildLogicalTables.
PlacementResult PlaceTables(const ir::Function& fn,
                            const partition::PartitionPlan& plan,
                            const RmtTargetModel& target,
                            const analysis::DependencyGraph* deps = nullptr);

const char* TableKindName(TableRequirement::Kind kind);

}  // namespace gallium::rmt
