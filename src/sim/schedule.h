// Merged evaluation schedule over the two-level model.
//
// Within a cycle, controller gates and datapath modules form one acyclic
// combinational graph stitched together by the CTRL/STS bindings. This
// schedule topologically orders the three step kinds -
//   gate evaluation, CTRL-bundle packing (gate bits -> datapath ctrl net),
//   and datapath module evaluation -
// so one linear pass settles the whole cycle, replacing the generic
// fixpoint iteration (a ~3x simulator speedup at DLX scale).
#pragma once

#include <vector>

#include "dlx/dlx.h"

namespace hltg {

/// Build the schedule (EvalStep is declared in dlx/dlx.h). Throws
/// std::logic_error if the merged combinational graph has a cycle (a
/// modeling error). Simulators use the model's shared copy,
/// DlxModel::schedule(), which calls this once per model.
std::vector<EvalStep> build_eval_schedule(const DlxModel& m);

/// Build the reader tables of `m`'s schedule (ScheduleFanout in dlx/dlx.h)
/// from the values each step reads and writes in ProcSim's pass. Users
/// take the model's shared copy, DlxModel::fanout().
ScheduleFanout build_schedule_fanout(const DlxModel& m);

}  // namespace hltg
