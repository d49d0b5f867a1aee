// DPTRACE: justification / propagation path selection in the datapath
// (Sec. V.A).
//
// Given an error site (a datapath bus), DPTRACE selects propagation paths
// through the space-time graph of the unrolled datapath - module edges
// within a cycle, pipe-register edges to the next cycle - from the site to
// an observation point (data-memory port, register-file port, or a DPO).
// Along the way it emits:
//   - CTRL objectives (mux selects, register enables/clears, write enables)
//     for CTRLJUST, and
//   - value constraints (AND-class side inputs at non-masking values,
//     data-dependent selects) for DPRELAX,
// exactly the division of labour of Fig. 4. Value selection is delegated to
// DPRELAX ("this divide-and-conquer approach reduces the problem size
// significantly, but may fail to find a solution even if the problem is
// feasible" - failures surface as backtracks in TG).
//
// The module-class rules follow Fig. 5: ADD-class modules propagate freely,
// AND-class modules demand controlled side inputs, MUX-class modules demand
// a select objective. The C/O-state lattice (netlist/costate.h) is used as
// a static pruning pass: propagation is only attempted through ports whose
// optimistic O-state can reach O3.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "core/objectives.h"
#include "dlx/dlx.h"
#include "netlist/scoap.h"
#include "util/budget.h"
#include "util/effort.h"

namespace hltg {

struct DpTraceConfig {
  unsigned window = 14;        ///< cycles in the space-time graph
  unsigned max_plans = 12;     ///< candidate paths handed to TG
  unsigned plans_per_activation = 3;
  unsigned slice_penalty = 3;  ///< cost bump for lossy hops
  unsigned rfwrite_penalty = 4;
  /// Reuse the expanded best-first search across activation cycles. Edge
  /// annotations are cycle-relative, so the search for activation cycle t
  /// is a pure function of its depth limit D = window - t; when the last
  /// expansion never reached the window bound, the recorded node tree is
  /// replayed (shifted by t) for later activation cycles instead of being
  /// re-expanded from scratch. Plan order and contents are identical to
  /// the per-cycle enumerator (tests/test_dptrace.cpp locks this).
  bool reuse = true;
};

class DpTrace {
 public:
  DpTrace(const DlxModel& m, DpTraceConfig cfg = {});

  /// Enumerate candidate propagation plans for an error site, cheapest
  /// first. The `activation` constraints are appended to each plan's relax
  /// constraints with their cycle set to the plan's activation cycle.
  /// `budget`, when given, is polled per activation cycle; a fired budget
  /// truncates the enumeration (already-found plans are returned).
  /// `stats`, when given, accumulates the dptrace_expansions /
  /// dptrace_searches / dptrace_reused counters.
  std::vector<PathPlan> plans(NetId site,
                              const std::vector<RelaxConstraint>& activation,
                              Budget* budget = nullptr,
                              Effort* stats = nullptr) const;

  /// Static optimistic observability: can this net's error effect possibly
  /// reach an observation point (O-state could become O3)? Used by tests
  /// and as a pre-filter.
  bool statically_observable(NetId n) const { return observable_[n]; }

  /// Same, but excluding paths that require a taken control transfer
  /// (redirect = 1). Sites observable *only* through the redirect path are
  /// handled by TG's control-flow macro templates instead of plan search.
  bool observable_without_redirect(NetId n) const {
    return observable_no_redirect_[n];
  }

 private:
  struct Edge {
    NetId to_net = kNoNet;
    unsigned dt = 0;  ///< 0 for combinational, 1 across a pipe register
    std::vector<CtrlObjective> objectives_rel;   ///< cycle-relative (dt = 0)
    std::vector<RelaxConstraint> constraints_rel;
    ModId observe = kNoMod;  ///< != kNoMod: this edge reaches an observation
    bool needs_redirect = false;  ///< edge demands redirect = 1
    unsigned cost = 1;
  };

  void build_edges();
  void add_sts_consumption_edges();
  void compute_observable();
  /// Objectives for a CTRL net carrying `value` (per-bit); data-dependent
  /// selects become relax constraints instead.
  void ctrl_requirement(NetId ctrl_net, std::uint64_t value,
                        std::vector<CtrlObjective>* objs,
                        std::vector<RelaxConstraint>* cons) const;

  /// One recorded best-first expansion in activation-relative offset space.
  /// The search for an activation cycle is a pure function of its depth
  /// limit D = window - t_act, so a recorded tree replays exactly for any
  /// later query it covers: an entry whose depth bound never bit
  /// (max_t2 < depth_run) equals the unbounded search and serves ANY depth
  /// limit > max_t2; otherwise it serves exactly depth_run.
  struct SearchNode {
    NetId net;
    unsigned offset;  ///< cycle - t_act
    unsigned cost;
    int parent;       ///< index into `nodes`
    int via_edge;     ///< edge index in edges_[parent.net]
  };
  struct SearchMemo {
    std::vector<SearchNode> nodes;
    std::vector<std::pair<int, int>> found;  ///< (node, observation edge)
    unsigned depth_run = 0;  ///< depth limit the expansion ran at
    unsigned max_t2 = 0;     ///< deepest offset the expansion attempted
  };
  const SearchMemo* find_memo(NetId site, unsigned depth) const;

  const DlxModel& m_;
  DpTraceConfig cfg_;
  ScoapCosts scoap_;
  std::vector<std::vector<Edge>> edges_;  ///< per source net
  std::vector<bool> observable_;
  std::vector<bool> observable_no_redirect_;
  /// Earliest cycle an instruction's effect can appear per stage (pipeline
  /// fill from reset: IF=0 ... WB=4).
  unsigned earliest_cycle(NetId n) const;
  /// Recorded searches per site, kept for the tracer's lifetime (enabled by
  /// cfg_.reuse). Entries are pure functions of (site, depth limit), so
  /// replaying them is outcome-neutral for any error order or campaign
  /// sharding. mutable: plans() is const; one DpTrace belongs to one
  /// campaign worker (thread-compatible, not thread-safe - the campaign
  /// engines construct one generator per worker).
  mutable std::unordered_map<NetId, std::vector<SearchMemo>> search_memo_;
};

}  // namespace hltg
