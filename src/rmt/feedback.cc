#include "rmt/feedback.h"

#include <limits>

#include "partition/partitioner.h"

namespace gallium::rmt {

bool ChooseSpillVictim(const ir::Function& fn,
                       const partition::PartitionPlan& plan,
                       const partition::OffloadWeights& weights,
                       ir::StateRef* victim) {
  // Total offload benefit of each resident state object = sum of the
  // weights of its on-switch accesses. The cheapest one loses the least
  // from moving to the server.
  std::map<ir::StateRef, long> benefit;
  for (const auto& [ref, placement] : plan.state_placement) {
    if (placement == partition::StatePlacement::kServerOnly) continue;
    benefit[ref] = 0;
  }
  if (benefit.empty()) return false;
  for (const auto& block : fn.blocks()) {
    for (const auto& inst : block.insts) {
      ir::StateRef ref;
      if (!ir::Function::InstStateRef(inst, &ref)) continue;
      auto it = benefit.find(ref);
      if (it == benefit.end()) continue;
      if (inst.id < 0 || inst.id >= static_cast<int>(plan.assignment.size()) ||
          !plan.OnSwitch(inst.id)) {
        continue;
      }
      it->second += weights.WeightOf(inst);
    }
  }
  long best = std::numeric_limits<long>::max();
  for (const auto& [ref, w] : benefit) {  // std::map: ties break on StateRef
    if (w < best) {
      best = w;
      *victim = ref;
    }
  }
  return true;
}

Result<OffloadPlanResult> PartitionAndPlace(
    const ir::Function& fn, const partition::SwitchConstraints& constraints,
    const RmtTargetModel& target, PlacementFailure* failure_out) {
  partition::SwitchConstraints c = constraints;
  OffloadPlanResult result;
  // Each round spills one state object; resident state is finite, so the
  // +1 round reaches the all-server plan, which always places.
  const int max_rounds = static_cast<int>(fn.maps().size() +
                                          fn.vectors().size() +
                                          fn.globals().size()) +
                         1;
  // The CFG facts and the dependency graph do not depend on the
  // constraints, so one pair serves every round and placement.
  const analysis::CfgInfo cfg(fn);
  const analysis::DependencyGraph deps(fn, cfg);
  for (int round = 1; round <= max_rounds; ++round) {
    partition::Partitioner partitioner(fn, c, cfg, deps);
    GALLIUM_ASSIGN_OR_RETURN(result.plan, partitioner.Run());
    result.rounds = round;

    PlacementResult placed = PlaceTables(fn, result.plan, target, &deps);
    result.placement = std::move(placed.report);
    if (!placed.failure.has_value()) {
      result.spilled = c.spilled_state;
      return result;
    }

    ir::StateRef victim;
    if (!ChooseSpillVictim(fn, result.plan, c.weights, &victim)) {
      if (failure_out != nullptr) *failure_out = *placed.failure;
      return ResourceExhausted(
          "rmt: program does not fit the '" + target.name +
          "' pipeline and no offloaded state is left to spill: " +
          placed.failure->message);
    }
    c.spilled_state.push_back(victim);
  }
  return Internal("rmt: spill loop failed to converge");
}

}  // namespace gallium::rmt
