#include "core/dptrace.h"

#include <algorithm>
#include <functional>

#include "util/word.h"

namespace hltg {

DpTrace::DpTrace(const DlxModel& m, DpTraceConfig cfg)
    : m_(m), cfg_(cfg), scoap_(compute_scoap(m.dp)) {
  build_edges();
  compute_observable();
}

void DpTrace::ctrl_requirement(NetId ctrl_net, std::uint64_t value,
                               std::vector<CtrlObjective>* objs,
                               std::vector<RelaxConstraint>* cons) const {
  const Net& n = m_.dp.net(ctrl_net);
  if (n.role == NetRole::kCtrl) {
    const CtrlBind* cb = m_.find_ctrl(ctrl_net);
    for (unsigned b = 0; b < n.width; ++b)
      objs->push_back({cb->bits[b], 0, ((value >> b) & 1) != 0});
  } else {
    // Data-dependent select (e.g. byte-lane decode): a value requirement.
    RelaxConstraint rc;
    rc.net = ctrl_net;
    rc.mask = mask_bits(n.width);
    rc.value = value;
    rc.why = "select";
    cons->push_back(rc);
  }
}

void DpTrace::build_edges() {
  edges_.assign(m_.dp.num_nets(), {});
  for (ModId mi = 0; mi < m_.dp.num_modules(); ++mi) {
    const Module& mod = m_.dp.module(mi);
    const auto cls = module_class(mod.kind);
    for (unsigned i = 0; i < mod.data_in.size(); ++i) {
      const NetId from = mod.data_in[i];
      Edge e;
      e.to_net = mod.out;
      switch (mod.kind) {
        case ModuleKind::kOutput:
          e.observe = mi;
          e.to_net = kNoNet;
          break;
        case ModuleKind::kMemWrite: {
          // Any corrupted input (addr, data, bemask) is visible on the
          // memory port once a store commits. For the address and data
          // routes, force a word-size store so the byte-enable mask cannot
          // hide the difference (an address difference in the lane bits
          // [1:0] is still invisible - the port is word-aligned - so the
          // address route costs more). A bemask-route difference is visible
          // under any store size.
          ctrl_requirement(mod.ctrl_in[0], 1, &e.objectives_rel,
                           &e.constraints_rel);
          if (i < 2)
            ctrl_requirement(m_.sig.c_size_sel,
                             static_cast<unsigned>(MemSize::kWord),
                             &e.objectives_rel, &e.constraints_rel);
          if (i == 0) e.cost = 6;  // address route: partially lossy
          e.observe = mi;
          e.to_net = kNoNet;
          break;
        }
        case ModuleKind::kRfWrite: {
          // Corrupted write-back value or destination shows in the final
          // register-file state - provided the write is not to R0 (which is
          // hardwired and swallows the difference).
          ctrl_requirement(mod.ctrl_in[0], 1, &e.objectives_rel,
                           &e.constraints_rel);
          RelaxConstraint rc;
          rc.kind = RelaxKind::kGoodNotEquals;
          rc.net = mod.data_in[0];
          rc.mask = 31;
          rc.value = 0;
          rc.why = "dest-not-r0";
          e.constraints_rel.push_back(rc);
          e.observe = mi;
          e.to_net = kNoNet;
          e.cost = cfg_.rfwrite_penalty;
          break;
        }
        case ModuleKind::kReg: {
          e.dt = 1;
          const bool has_en = mod.tag & 1, has_clr = mod.tag & 2;
          unsigned slot = 0;
          if (has_en)
            ctrl_requirement(mod.ctrl_in[slot++], 1, &e.objectives_rel,
                             &e.constraints_rel);
          if (has_clr)
            ctrl_requirement(mod.ctrl_in[slot], 0, &e.objectives_rel,
                             &e.constraints_rel);
          break;
        }
        case ModuleKind::kMux:
          ctrl_requirement(mod.ctrl_in[0], i, &e.objectives_rel,
                           &e.constraints_rel);
          break;
        case ModuleKind::kAndW:
        case ModuleKind::kNandW: {
          for (unsigned j = 0; j < mod.data_in.size(); ++j)
            if (j != i) {
              RelaxConstraint rc;
              rc.net = mod.data_in[j];
              rc.mask = mask_bits(m_.dp.net(mod.data_in[j]).width);
              rc.value = rc.mask;  // all-ones: non-masking for AND
              rc.why = "and-side";
              e.constraints_rel.push_back(rc);
            }
          break;
        }
        case ModuleKind::kOrW:
        case ModuleKind::kNorW: {
          for (unsigned j = 0; j < mod.data_in.size(); ++j)
            if (j != i) {
              RelaxConstraint rc;
              rc.net = mod.data_in[j];
              rc.mask = mask_bits(m_.dp.net(mod.data_in[j]).width);
              rc.value = 0;  // zeros: non-masking for OR
              rc.why = "or-side";
              e.constraints_rel.push_back(rc);
            }
          break;
        }
        case ModuleKind::kShl:
        case ModuleKind::kShrL:
        case ModuleKind::kShrA: {
          if (i == 0) {
            // Propagation through the value port: demand a lossless (zero)
            // shift amount, unless the amount is a constant (then the shift
            // is a fixed slice; differences usually survive and the final
            // dual-simulation confirms).
            const NetId amt = mod.data_in[1];
            const ModId ad = m_.dp.net(amt).driver;
            if (ad == kNoMod ||
                m_.dp.module(ad).kind != ModuleKind::kConst) {
              RelaxConstraint rc;
              rc.net = amt;
              rc.mask = mask_bits(m_.dp.net(amt).width);
              rc.value = 0;  // shift by zero: lossless pass-through
              rc.why = "shift-amount";
              e.constraints_rel.push_back(rc);
            }
          } else {
            // Propagation through the amount port: two different shift
            // amounts produce different outputs whenever the shifted value
            // is nonzero (rare truncation coincidences are caught by the
            // final confirmation).
            RelaxConstraint rc;
            rc.kind = RelaxKind::kGoodNotEquals;
            rc.net = mod.data_in[0];
            rc.mask = mask_bits(m_.dp.net(mod.data_in[0]).width);
            rc.value = 0;
            rc.why = "shift-value-nonzero";
            e.constraints_rel.push_back(rc);
            e.cost = 3;
          }
          break;
        }
        case ModuleKind::kSlice:
          e.cost = cfg_.slice_penalty;  // difference may fall outside
          break;
        case ModuleKind::kAdd:
        case ModuleKind::kSub:
        case ModuleKind::kXorW:
        case ModuleKind::kXnorW:
        case ModuleKind::kNotW:
        case ModuleKind::kConcat:
        case ModuleKind::kZext:
        case ModuleKind::kSext:
          break;  // ADD-class / lossless structural: free propagation
        case ModuleKind::kEq:
        case ModuleKind::kNe: {
          // A difference on one operand of an (in)equality flips the output
          // provided the good operands are equal (then the erroneous side
          // is necessarily unequal). Require the good output accordingly.
          RelaxConstraint rc;
          rc.net = mod.out;
          rc.mask = 1;
          rc.value = mod.kind == ModuleKind::kEq ? 1 : 0;
          rc.why = "pred-equal";
          e.constraints_rel.push_back(rc);
          e.cost = 2;
          break;
        }
        default:
          continue;  // other predicates, state reads: no propagation
      }
      (void)cls;
      edges_[from].push_back(std::move(e));
    }
  }
  // Data-dependent mux selects (byte-lane decode etc.): a select difference
  // propagates when the selectable inputs differ; with distinct-constant
  // inputs (the common case here) that is guaranteed.
  for (ModId mi = 0; mi < m_.dp.num_modules(); ++mi) {
    const Module& mod = m_.dp.module(mi);
    if (mod.kind != ModuleKind::kMux) continue;
    const NetId sel = mod.ctrl_in[0];
    if (m_.dp.net(sel).role == NetRole::kCtrl) continue;  // controller-owned
    Edge e;
    e.to_net = mod.out;
    e.cost = 2;
    RelaxConstraint rc;
    rc.kind = RelaxKind::kGoodNetsDiffer;
    rc.net = mod.data_in[0];
    rc.net2 = mod.data_in[1];
    rc.why = "mux-inputs-differ";
    e.constraints_rel.push_back(rc);
    edges_[sel].push_back(std::move(e));
  }
  add_sts_consumption_edges();
}

void DpTrace::add_sts_consumption_edges() {
  // Bypass-steering STS bits: a difference on the comparator output (or its
  // gating conditions) flips a bypass select, which diverges the EX operand
  // whenever the bypass source and the stale register value differ. These
  // edges let DPTRACE propagate errors on hazard-comparator logic - the
  // "essential instruction interaction" signals the paper's model exposes.
  const GateId reads_rs1 = m_.ctrl.find("cpr.idex_reads_rs1");
  const GateId reads_rsb = m_.ctrl.find("cpr.idex_reads_rsb");
  const GateId mem_wb_en = m_.ctrl.find("cpr.exmem_wb_en");
  const GateId mem_is_load = m_.ctrl.find("cpr.exmem_is_load");
  const GateId wb_wb_en = m_.ctrl.find("cpr.memwb_wb_en");
  const GateId fwda_mem_g = m_.ctrl.find("cg.fwda_mem");
  const GateId fwdb_mem_g = m_.ctrl.find("cg.fwdb_mem");
  const ModId a_byp = m_.dp.find_module("ex.a_byp");
  const ModId b_byp = m_.dp.find_module("ex.b_byp");
  if (a_byp == kNoMod || b_byp == kNoMod) return;
  const Module& am = m_.dp.module(a_byp);
  const Module& bm = m_.dp.module(b_byp);

  auto sts_gate = [&](NetId n) {
    const StsBind* sb = m_.find_sts(n);
    return sb ? sb->gate : kNoGate;
  };
  struct Spec {
    NetId site;             ///< the STS net whose difference we consume
    bool a_side;            ///< bypass operand A or B
    bool from_mem;          ///< EX/MEM source (else MEM/WB)
    NetId extra_sts;        ///< additional STS that must be 1 (or kNoNet)
  };
  const DlxSignals& s = m_.sig;
  const std::vector<Spec> specs = {
      {s.s_fwda_mem, true, true, s.s_dest_mem_nz},
      {s.s_fwdb_mem, false, true, s.s_dest_mem_nz},
      {s.s_fwda_wb, true, false, s.s_dest_wb_nz},
      {s.s_fwdb_wb, false, false, s.s_dest_wb_nz},
      {s.s_dest_mem_nz, true, true, s.s_fwda_mem},
      {s.s_dest_wb_nz, true, false, s.s_fwda_wb},
  };
  for (const Spec& sp : specs) {
    const Module& mux = sp.a_side ? am : bm;
    Edge e;
    e.to_net = mux.out;
    e.cost = 3;
    auto obj = [&](GateId g, bool v) {
      if (g != kNoGate) e.objectives_rel.push_back({g, 0, v});
    };
    obj(sp.a_side ? reads_rs1 : reads_rsb, true);
    obj(sp.from_mem ? mem_wb_en : wb_wb_en, true);
    if (sp.from_mem) obj(mem_is_load, false);
    if (!sp.from_mem)  // WB forward must not be shadowed by a MEM forward
      obj(sp.a_side ? fwda_mem_g : fwdb_mem_g, false);
    obj(sts_gate(sp.extra_sts), true);
    RelaxConstraint rc;
    rc.kind = RelaxKind::kGoodNetsDiffer;
    rc.net = mux.data_in[0];                       // stale operand
    rc.net2 = mux.data_in[sp.from_mem ? 1 : 2];    // bypass source
    rc.why = "bypass-divergence";
    e.constraints_rel.push_back(rc);
    edges_[sp.site].push_back(std::move(e));
  }
}

void DpTrace::compute_observable() {
  // Optimistic backward reachability over the static graph - the O-state
  // pre-pass: a net is potentially observable (O-state can become O3) iff an
  // edge chain reaches an observation sink. Mark redirect-requiring edges
  // first so the second pass can exclude them.
  const CtrlBind* redir = m_.find_ctrl(m_.sig.c_redirect);
  for (auto& edge_list : edges_)
    for (Edge& e : edge_list)
      for (const CtrlObjective& o : e.objectives_rel)
        if (redir && o.gate == redir->bits[0] && o.value)
          e.needs_redirect = true;

  auto sweep = [&](std::vector<bool>& obs, bool allow_redirect) {
    obs.assign(m_.dp.num_nets(), false);
    bool changed = true;
    while (changed) {
      changed = false;
      for (NetId n = 0; n < m_.dp.num_nets(); ++n) {
        if (obs[n]) continue;
        for (const Edge& e : edges_[n]) {
          if (!allow_redirect && e.needs_redirect) continue;
          if (e.observe != kNoMod ||
              (e.to_net != kNoNet && obs[e.to_net])) {
            obs[n] = true;
            changed = true;
            break;
          }
        }
      }
    }
  };
  sweep(observable_, true);
  sweep(observable_no_redirect_, false);
}

unsigned DpTrace::earliest_cycle(NetId n) const {
  switch (m_.dp.net(n).stage) {
    case Stage::kIF: return 0;
    case Stage::kID: return 1;
    case Stage::kEX: return 2;
    case Stage::kMEM: return 3;
    case Stage::kWB: return 4;
    default: return 0;
  }
}

const DpTrace::SearchMemo* DpTrace::find_memo(NetId site,
                                              unsigned depth) const {
  const auto it = search_memo_.find(site);
  if (it == search_memo_.end()) return nullptr;
  for (const SearchMemo& m : it->second) {
    if (m.depth_run == depth) return &m;
    // Bound-inert entry: the expansion never attempted an offset at its
    // limit, so it equals the unbounded search and covers any deeper bound.
    if (m.max_t2 < m.depth_run && m.max_t2 < depth) return &m;
  }
  return nullptr;
}

std::vector<PathPlan> DpTrace::plans(
    NetId site, const std::vector<RelaxConstraint>& activation,
    Budget* budget, Effort* stats) const {
  std::vector<PathPlan> out;
  if (!observable_[site]) return out;

  // Best-first search over (net, offset) nodes in activation-relative
  // "offset" space (offset = cycle - t_act). Every edge annotation is
  // cycle-relative, so one activation cycle's search depends only on its
  // depth limit D = window - t_act; reconstruction adds t_act back.
  //
  // Search reuse (cfg_.reuse): every recorded expansion lives in the
  // per-site memo for the tracer's lifetime, so reuse fires both *within*
  // one call - the t_act loop runs depth limits window-t_min,
  // window-t_min-1, ... and a bound-inert expansion (max_t2 < D) replays
  // for every later activation cycle - and *across* calls: errors sharing
  // the site (every stuck bit of one bus) and the window retry replay the
  // exact recorded tree instead of re-expanding. A memoized tree - pop
  // order, found list and all - is byte-for-byte what a fresh search would
  // rebuild, shifted by t_act, because the search is a pure function of
  // (site, depth limit). (A naive "filter deeper nodes out of the memo"
  // would NOT be equivalent: dropping nodes changes queue insertion
  // indices, which break ties among equal-cost entries.)
  //
  // The queue/visited containers are hoisted out of the t_act loop and the
  // per-search visited set is a single flat epoch-stamped array, so a
  // re-expansion costs no reallocation either.
  const std::size_t num_nets = m_.dp.num_nets();
  // Min-heap on (cost, node index); ties cannot happen (indices unique), so
  // the pop order equals the former std::priority_queue exactly.
  std::vector<std::pair<unsigned, int>> heap;
  heap.reserve(256);
  std::vector<std::uint32_t> seen_epoch(
      static_cast<std::size_t>(cfg_.window) * num_nets, 0);
  std::vector<std::uint32_t> sink_epoch(m_.dp.num_modules(), 0);
  std::uint32_t epoch = 0;

  // `found` collects several alternative observation routes per activation
  // cycle, preferring *distinct* observation modules (different sinks catch
  // differences the cheapest one may structurally lose).
  auto run_search = [&](SearchMemo& mem, unsigned depth_limit) {
    ++epoch;
    mem.nodes.clear();
    mem.found.clear();
    mem.depth_run = depth_limit;
    mem.max_t2 = 0;
    if (stats) ++stats->dptrace_searches;
    mem.nodes.push_back({site, 0, 0, -1, -1});
    heap.clear();
    heap.emplace_back(0u, 0);
    seen_epoch[site] = epoch;  // offset 0
    while (!heap.empty() && mem.found.size() < cfg_.plans_per_activation) {
      std::pop_heap(heap.begin(), heap.end(), std::greater<>{});
      const auto [cost, ni] = heap.back();
      heap.pop_back();
      if (stats) ++stats->dptrace_expansions;
      const SearchNode nd = mem.nodes[ni];
      for (std::size_t ei = 0; ei < edges_[nd.net].size(); ++ei) {
        const Edge& e = edges_[nd.net][ei];
        if (e.needs_redirect) continue;  // taken-branch emission unsupported
        const unsigned t2 = nd.offset + e.dt;
        if (t2 > mem.max_t2) mem.max_t2 = t2;
        if (t2 >= depth_limit) continue;
        if (e.observe != kNoMod) {
          if (sink_epoch[e.observe] == epoch)
            continue;  // already have a route to this sink
          sink_epoch[e.observe] = epoch;
          mem.found.emplace_back(ni, static_cast<int>(ei));
          continue;
        }
        if (!observable_[e.to_net]) continue;
        std::uint32_t& mark =
            seen_epoch[static_cast<std::size_t>(t2) * num_nets + e.to_net];
        if (mark == epoch) continue;
        mark = epoch;
        mem.nodes.push_back({e.to_net, t2, cost + e.cost, ni,
                             static_cast<int>(ei)});
        heap.emplace_back(cost + e.cost,
                          static_cast<int>(mem.nodes.size() - 1));
        std::push_heap(heap.begin(), heap.end(), std::greater<>{});
      }
    }
  };

  SearchMemo scratch;  // reuse off: re-expanded every activation cycle
  const unsigned t_min = earliest_cycle(site);
  for (unsigned t_act = t_min;
       t_act + 1 < cfg_.window && out.size() < cfg_.max_plans; ++t_act) {
    // A fired budget stops enumeration; the plans found so far are still
    // valid, so TG can try them (and will hit the same budget right away).
    if (budget && budget->exhausted() != AbortReason::kNone) break;
    const unsigned depth_limit = cfg_.window - t_act;
    const SearchMemo* mem = nullptr;
    if (cfg_.reuse) {
      mem = find_memo(site, depth_limit);
      if (mem) {
        if (stats) ++stats->dptrace_reused;
      } else {
        std::vector<SearchMemo>& recorded = search_memo_[site];
        recorded.emplace_back();
        run_search(recorded.back(), depth_limit);
        mem = &recorded.back();
      }
    } else {
      run_search(scratch, depth_limit);
      mem = &scratch;
    }
    const std::vector<SearchNode>& nodes = mem->nodes;
    const std::vector<std::pair<int, int>>& found = mem->found;

    // Reconstruct one plan per observation: walk parents, offsetting the
    // cycle-relative objective/constraint annotations by each hop's cycle.
    for (auto [fnode, fedge] : found) {
      if (out.size() >= cfg_.max_plans) break;
      PathPlan plan;
      plan.activate_cycle = t_act;
      plan.observe_module = edges_[nodes[fnode].net][fedge].observe;
      std::vector<std::pair<int, int>> chain;  // (node, edge-used-to-leave)
      int cur = fnode;
      int edge_used = fedge;
      while (cur >= 0) {
        chain.push_back({cur, edge_used});
        edge_used = nodes[cur].via_edge;
        cur = nodes[cur].parent;
      }
      std::reverse(chain.begin(), chain.end());
      for (auto [ni, ei] : chain) {
        const SearchNode& nd = nodes[ni];
        const unsigned cycle = nd.offset + t_act;
        plan.hops.push_back({nd.net, cycle});
        if (ei < 0) continue;
        const Edge& e = edges_[nd.net][ei];
        for (CtrlObjective o : e.objectives_rel) {
          o.cycle = cycle;
          plan.ctrl_objectives.push_back(o);
        }
        for (RelaxConstraint c : e.constraints_rel) {
          c.cycle = cycle;
          plan.relax_constraints.push_back(c);
        }
        if (e.observe != kNoMod) plan.observe_cycle = cycle;
      }
      for (RelaxConstraint act : activation) {
        act.cycle = t_act;
        plan.relax_constraints.push_back(act);
      }
      // Objective hygiene for the downstream justification queue: drop
      // exact repeats (stable order - the search heuristics are order-
      // sensitive, and the cache canonicalizes separately) and discard a
      // plan that demands both values of one (gate, cycle) point - it is
      // unsatisfiable before any search.
      std::vector<CtrlObjective> uniq;
      bool contradictory = false;
      for (const CtrlObjective& o : plan.ctrl_objectives) {
        bool dup = false;
        for (const CtrlObjective& u : uniq)
          if (u.gate == o.gate && u.cycle == o.cycle) {
            if (u.value == o.value)
              dup = true;
            else
              contradictory = true;
            break;
          }
        if (contradictory) break;
        if (!dup) uniq.push_back(o);
      }
      if (contradictory) continue;
      plan.ctrl_objectives = std::move(uniq);
      out.push_back(std::move(plan));
    }
  }
  return out;
}

}  // namespace hltg
