#include "sim/schedule.h"

#include <algorithm>
#include <stdexcept>

namespace hltg {

const std::vector<EvalStep>& DlxModel::schedule() const {
  std::call_once(schedule_->built,
                 [this] { schedule_->steps = build_eval_schedule(*this); });
  return schedule_->steps;
}

const ScheduleFanout& DlxModel::fanout() const {
  std::call_once(schedule_->fanout_built,
                 [this] { schedule_->fanout = build_schedule_fanout(*this); });
  return schedule_->fanout;
}

ScheduleFanout build_schedule_fanout(const DlxModel& m) {
  const std::vector<EvalStep>& sched = m.schedule();
  const std::size_t N = m.dp.num_nets();
  const std::size_t V = N + m.ctrl.num_gates();
  ScheduleFanout f;
  f.producer.assign(V, -1);
  std::vector<std::vector<std::uint32_t>> rd(V), ed(V);
  std::vector<NetId>& sts_of_gate = f.sts_of_gate;
  sts_of_gate.assign(m.ctrl.num_gates(), kNoNet);
  for (const StsBind& sb : m.sts_binds) sts_of_gate[sb.gate] = sb.dp_net;
  const Module& rfw = m.dp.module(m.rf_write_mod);
  const Module& mw = m.dp.module(m.mem_write_mod);

  // What each step of ProcSim::eval_fixpoint reads and writes.
  for (std::uint32_t r = 0; r < sched.size(); ++r) {
    auto writes = [&](std::size_t v) {
      f.producer[v] = static_cast<std::int32_t>(r);
      f.producing.push_back(r);
    };
    auto reads = [&](std::size_t v) { rd[v].push_back(r); };
    const EvalStep& st = sched[r];
    switch (st.kind) {
      case EvalStep::kGate: {
        const Gate& gate = m.ctrl.gate(st.index);
        if (gate.kind == GateKind::kDff) break;  // latched at the edge
        if (gate.kind == GateKind::kVar) {
          // STS vars sample their net; CPI vars are set by the fetch.
          if (sts_of_gate[st.index] == kNoNet) break;
          reads(sts_of_gate[st.index]);
        } else {
          for (GateId in : gate.fanin) reads(N + in);
        }
        writes(N + st.index);
        break;
      }
      case EvalStep::kCtrlBind: {
        const CtrlBind& cb = m.ctrl_binds[st.index];
        for (GateId g : cb.bits) reads(N + g);
        writes(cb.dp_net);
        break;
      }
      case EvalStep::kModule: {
        const Module& mod = m.dp.module(st.index);
        switch (mod.kind) {
          case ModuleKind::kReg:
          case ModuleKind::kInput:
          case ModuleKind::kOutput:
          case ModuleKind::kRfWrite:
          case ModuleKind::kMemWrite:
            continue;  // state / externally driven / sinks
          case ModuleKind::kRfRead:
            reads(mod.data_in[0]);
            reads(rfw.ctrl_in[0]);  // write-through
            reads(rfw.data_in[0]);
            reads(rfw.data_in[1]);
            f.rf_reads.push_back(r);
            break;
          case ModuleKind::kMemRead:
            reads(mod.ctrl_in[0]);
            reads(mod.data_in[0]);
            f.mem_reads.push_back(r);
            break;
          default:
            for (unsigned i = 0; i < mod.num_inputs(); ++i)
              reads(mod.input(i));
            break;
        }
        writes(mod.out);
        break;
      }
    }
  }

  // What ProcSim::clock_edge reads.
  for (ModId mi = 0; mi < m.dp.num_modules(); ++mi) {
    const Module& mod = m.dp.module(mi);
    if (mod.kind != ModuleKind::kReg) continue;
    const auto op = static_cast<std::uint32_t>(f.regs.size());
    f.regs.push_back(mi);
    for (unsigned i = 0; i < mod.num_inputs(); ++i)
      ed[mod.input(i)].push_back(op);
    ed[mod.out].push_back(op);  // a disabled register holds its value
  }
  for (GateId g : m.ctrl.dffs()) {
    ed[N + m.ctrl.gate(g).fanin[0]].push_back(
        static_cast<std::uint32_t>(f.regs.size() + f.dffs.size()));
    f.dffs.push_back(g);
  }
  for (unsigned i = 0; i < rfw.num_inputs(); ++i)
    ed[rfw.input(i)].push_back(f.rf_write_op());
  for (unsigned i = 0; i < mw.num_inputs(); ++i)
    ed[mw.input(i)].push_back(f.mem_write_op());

  auto pack = [V](std::vector<std::vector<std::uint32_t>>& lists,
                  std::vector<std::uint32_t>& at,
                  std::vector<std::uint32_t>& flat) {
    at.assign(V + 1, 0);
    for (std::size_t v = 0; v < V; ++v) {
      std::sort(lists[v].begin(), lists[v].end());
      lists[v].erase(std::unique(lists[v].begin(), lists[v].end()),
                     lists[v].end());
      at[v + 1] = at[v] + static_cast<std::uint32_t>(lists[v].size());
      flat.insert(flat.end(), lists[v].begin(), lists[v].end());
    }
  };
  pack(rd, f.reader_at, f.readers);
  pack(ed, f.edge_at, f.edge_readers);
  return f;
}

std::vector<EvalStep> build_eval_schedule(const DlxModel& m) {
  // Node numbering: [0, G) gates, [G, G+B) ctrl bundles, [G+B, G+B+M) modules.
  const std::size_t G = m.ctrl.num_gates();
  const std::size_t B = m.ctrl_binds.size();
  const std::size_t M = m.dp.num_modules();
  const std::size_t N = G + B + M;
  std::vector<std::vector<std::uint32_t>> succ(N);
  std::vector<unsigned> indeg(N, 0);
  auto add_edge = [&](std::size_t from, std::size_t to) {
    succ[from].push_back(static_cast<std::uint32_t>(to));
    ++indeg[to];
  };

  auto gate_is_source = [&](GateId g) {
    const GateKind k = m.ctrl.gate(g).kind;
    return k == GateKind::kDff || k == GateKind::kConst0 ||
           k == GateKind::kConst1;
  };
  auto mod_is_seq_source = [&](ModId mi) {
    const ModuleKind k = m.dp.module(mi).kind;
    return k == ModuleKind::kReg || k == ModuleKind::kRfRead ||
           k == ModuleKind::kMemRead || k == ModuleKind::kInput ||
           k == ModuleKind::kConst;
  };

  // Map: which ctrl-bind (if any) drives each datapath net; which STS net
  // feeds each var gate.
  std::vector<int> bind_of_net(m.dp.num_nets(), -1);
  for (std::size_t b = 0; b < B; ++b)
    bind_of_net[m.ctrl_binds[b].dp_net] = static_cast<int>(b);
  std::vector<NetId> sts_of_gate(G, kNoNet);
  for (const StsBind& sb : m.sts_binds) sts_of_gate[sb.gate] = sb.dp_net;

  // Dependencies of a datapath net's *value*: the driving module, or the
  // ctrl bundle that packs it. Sequential drivers impose no ordering.
  auto net_dep = [&](NetId n) -> long {
    if (bind_of_net[n] >= 0) return static_cast<long>(G) + bind_of_net[n];
    const ModId d = m.dp.net(n).driver;
    if (d == kNoMod || mod_is_seq_source(d)) return -1;
    return static_cast<long>(G + B) + d;
  };

  // Gate edges.
  for (GateId g = 0; g < G; ++g) {
    const Gate& gate = m.ctrl.gate(g);
    if (gate.kind == GateKind::kDff) continue;  // D consumed at the edge
    if (gate.kind == GateKind::kVar) {
      const NetId sts = sts_of_gate[g];
      if (sts != kNoNet) {
        const long dep = net_dep(sts);
        if (dep >= 0) add_edge(static_cast<std::size_t>(dep), g);
      }
      continue;  // CPI vars: externally supplied
    }
    for (GateId in : gate.fanin)
      if (!gate_is_source(in) ) {
        // A var gate fed by a STS net is itself ordered after that net's
        // producer, so depending on the var gate is sufficient; vars with
        // no STS feed are sources.
        if (m.ctrl.gate(in).kind == GateKind::kVar &&
            sts_of_gate[in] == kNoNet)
          continue;
        add_edge(in, g);
      }
  }

  // Ctrl-bundle edges: after every bit's gate.
  for (std::size_t b = 0; b < B; ++b)
    for (GateId g : m.ctrl_binds[b].bits) add_edge(g, G + b);

  // Module edges: after every combinational input dependency. RfRead also
  // reads the write port's nets (write-through), MemRead its enable.
  for (ModId mi = 0; mi < M; ++mi) {
    const Module& mod = m.dp.module(mi);
    auto dep_on_net = [&](NetId n) {
      const long dep = net_dep(n);
      if (dep >= 0) add_edge(static_cast<std::size_t>(dep), G + B + mi);
    };
    for (unsigned i = 0; i < mod.num_inputs(); ++i) dep_on_net(mod.input(i));
    if (mod.kind == ModuleKind::kRfRead) {
      const Module& rfw = m.dp.module(m.rf_write_mod);
      for (unsigned i = 0; i < rfw.num_inputs(); ++i)
        dep_on_net(rfw.input(i));
    }
  }

  // Kahn topological sort.
  std::vector<std::uint32_t> q;
  q.reserve(N);
  for (std::size_t n = 0; n < N; ++n)
    if (indeg[n] == 0) q.push_back(static_cast<std::uint32_t>(n));
  std::vector<EvalStep> steps;
  steps.reserve(N);
  for (std::size_t qi = 0; qi < q.size(); ++qi) {
    const std::uint32_t n = q[qi];
    EvalStep st;
    if (n < G) {
      st.kind = EvalStep::kGate;
      st.index = n;
    } else if (n < G + B) {
      st.kind = EvalStep::kCtrlBind;
      st.index = n - static_cast<std::uint32_t>(G);
    } else {
      st.kind = EvalStep::kModule;
      st.index = n - static_cast<std::uint32_t>(G + B);
    }
    steps.push_back(st);
    for (std::uint32_t s : succ[n])
      if (--indeg[s] == 0) q.push_back(s);
  }
  if (steps.size() != N)
    throw std::logic_error(
        "combinational cycle in the merged controller/datapath graph");
  return steps;
}

}  // namespace hltg
