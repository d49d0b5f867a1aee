// Pipelined DLX implementation model (the paper's test vehicle, Sec. VI).
//
// Five-stage pipeline IF-ID-EX-MEM-WB implementing the 44-instruction DLX
// ISA with:
//   - full bypass network into EX (from EX/MEM and MEM/WB) on both operands,
//   - load-use interlock (1-cycle stall),
//   - control transfers resolved in EX under predict-not-taken with squash
//     of the two younger instructions,
//   - register-file write-through (WB write visible to same-cycle ID read).
//
// Following the paper's two-level model (Sec. III), the machine is split
// into a *word-level datapath netlist* and a *bit-level controller gate
// network* that interact only through CTRL and STS signals. The tertiary
// signals (stall, redirect/squash, bypass selects in the controller;
// forwarded result buses and the redirect target in the datapath) are
// explicitly labeled - they are what the pipeframe search cuts.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "gatenet/gate_builder.h"
#include "gatenet/gatenet.h"
#include "isa/isa.h"
#include "netlist/netlist.h"

namespace hltg {

/// ALU result-mux input index (the CTRL value of `alu_sel`).
enum class AluSel : unsigned {
  kAdd = 0, kSub, kAnd, kOr, kXor, kShl, kSrl, kSra,
  kSlt, kSltu, kSeq, kSne, kLink, kLhi,
};
constexpr unsigned kAluSelW = 4;

/// Immediate-extension mux select.
enum class ImmSel : unsigned { kSext16 = 0, kZext16 = 1, kSext26 = 2 };

/// Destination-register mux select.
enum class DestSel : unsigned { kRdR = 0, kRdI = 1, kR31 = 2 };

/// Load-extension mux select (MEM stage).
enum class LoadExt : unsigned {
  kWord = 0, kByteS = 1, kByteU = 2, kHalfS = 3, kHalfU = 4,
};

/// Memory access size (bemask generation).
enum class MemSize : unsigned { kByte = 0, kHalf = 1, kWord = 2 };

/// Model configuration. The paper's DLX "has a five-stage pipeline and
/// branch prediction logic"; the default here is predict-not-taken (a
/// degenerate predictor), and `branch_predictor` enables a 4-entry
/// direct-mapped BTB: predict taken on hit at IF, verify at EX, redirect
/// and squash on misprediction (wrong direction or wrong target), update /
/// invalidate the entry from EX.
struct DlxConfig {
  bool branch_predictor = false;
  unsigned btb_entries = 4;  ///< power of two
  /// Full EX bypass network (default). When false, the pipeline is
  /// interlock-only: RAW hazards against producers in EX or MEM stall the
  /// consumer in ID until write-through covers the read - the classic
  /// unbypassed design the forwarding network is usually motivated against.
  bool bypassing = true;
};

/// Per-instruction control values - the "truth table" the controller's
/// decode PLA implements. Also used by tests to cross-check the gate-level
/// decode against this specification.
struct DecodedCtrl {
  AluSel alu_sel = AluSel::kAdd;
  bool use_imm = false;       ///< ALU operand 2 = extended immediate
  ImmSel imm_sel = ImmSel::kSext16;
  DestSel dest_sel = DestSel::kRdR;
  bool wb_en = false;         ///< writes a register (before R0 suppression)
  bool reads_rs1 = false;
  bool reads_rsB = false;     ///< reads R[instr[20:16]] (rs2 or store datum)
  bool is_load = false;
  bool is_store = false;
  MemSize mem_size = MemSize::kWord;
  LoadExt load_ext = LoadExt::kWord;
  bool is_beqz = false;
  bool is_bnez = false;
  bool is_jump = false;       ///< unconditional PC-relative (J/JAL)
  bool is_jreg = false;       ///< register-target jump (JR/JALR)
};

/// Reference decode table (one row per Op).
DecodedCtrl decoded_ctrl(Op op);

/// Binding of a multi-bit datapath CTRL net to its controller gate bits
/// (LSB first).
struct CtrlBind {
  NetId dp_net = kNoNet;
  GateVec bits;
};

/// Binding of a 1-bit datapath STS net to a controller input variable.
struct StsBind {
  NetId dp_net = kNoNet;
  GateId gate = kNoGate;
};

/// Handles to all named CTRL / STS nets of the datapath, populated by the
/// datapath builder and consumed by the controller builder.
struct DlxSignals {
  // CTRL nets (datapath side).
  NetId c_pc_en, c_ifid_en, c_ifid_clr, c_idex_clr;
  NetId c_redirect;            ///< 1: next PC comes from EX redirect target
  NetId c_fwd_a, c_fwd_b;      ///< 2-bit bypass selects
  NetId c_use_imm;             ///< ALU operand-2 select
  NetId c_alu_sel;             ///< 4-bit ALU result select
  NetId c_jr_sel;              ///< redirect target: 0 pc-rel, 1 register
  NetId c_imm_sel;             ///< 2-bit immediate extension select
  NetId c_dest_sel;            ///< 2-bit destination-register select
  NetId c_mem_we, c_mem_re;
  NetId c_size_sel;            ///< 2-bit store-size select
  NetId c_memres_sel;          ///< 0: ALU result, 1: load data
  NetId c_load_ext;            ///< 3-bit load-extension select
  NetId c_rf_we;
  // STS nets (datapath side).
  NetId s_a_zero;              ///< bypassed operand A == 0 (EX)
  NetId s_fwda_mem, s_fwdb_mem, s_fwda_wb, s_fwdb_wb;
  NetId s_dest_mem_nz, s_dest_wb_nz, s_dest_ex_nz;
  NetId s_ld_rs1, s_ld_rsb;    ///< load-use compares (ID)
  // Key datapath nets.
  NetId instr;                 ///< 32-bit DPI: fetched instruction word
  NetId pc_q;                  ///< PC register output (DPO)
  NetId redirect_target;       ///< EX -> IF tertiary data bus
  NetId exmem_result_q;        ///< MEM-stage forwarded bus (DTO)
  NetId wb_value;              ///< WB-stage forwarded / written-back bus (DTO)

  // Branch-predictor additions (kNoNet / unset when disabled).
  NetId c_pred_taken = kNoNet;   ///< IF: steer next PC to the BTB target
  NetId c_actual_taken = kNoNet; ///< EX: resume-target select (taken side)
  NetId c_btb_we = kNoNet;       ///< EX: BTB update enable
  NetId c_btb_valid_new = kNoNet;///< EX: new valid bit (actual taken)
  NetId s_btb_hit = kNoNet;      ///< IF: BTB hit for the fetch PC
  NetId s_ptarget_eq = kNoNet;   ///< EX: predicted target == actual target

  // Interlock-only additions (set when bypassing == false): ID-stage
  // comparators against the MEM-stage destination.
  NetId s_haz_rs1_mem = kNoNet;
  NetId s_haz_rsb_mem = kNoNet;
};

/// One step of the merged controller/datapath evaluation schedule
/// (sim/schedule.h).
struct EvalStep {
  enum Kind : std::uint8_t { kGate, kCtrlBind, kModule } kind;
  std::uint32_t index;  ///< GateId / ctrl_binds index / ModId
};

/// Who reads each value of the merged schedule, for event-driven
/// re-evaluation (core/relax_window.h). Values are numbered datapath nets
/// first, then controller gates (num_nets() + g); ranks are positions in
/// DlxModel::schedule().
struct ScheduleFanout {
  /// Rank of the step that writes each value during a cycle's pass; -1 when
  /// the value is set outside the pass (fetch, clock edge) or never. A step
  /// reading a value whose producer rank is not below its own sees the
  /// previous cycle's value (0 at cycle 0).
  std::vector<std::int32_t> producer;
  /// Steps that read each value during the pass, CSR-packed:
  /// readers[reader_at[v] .. reader_at[v + 1]), ascending.
  std::vector<std::uint32_t> reader_at, readers;
  /// Clock-edge ops that read each value, packed the same way. Op i below
  /// regs.size() latches register regs[i]; the next dffs.size() ops latch
  /// the DFFs; the last two are the register-file and memory write ports.
  std::vector<std::uint32_t> edge_at, edge_readers;
  std::vector<ModId> regs;
  std::vector<GateId> dffs;
  /// Ranks of the steps that write a value, ascending.
  std::vector<std::uint32_t> producing;
  /// Ranks of the register-file and memory read steps.
  std::vector<std::uint32_t> rf_reads, mem_reads;
  /// The STS net each controller var samples (kNoNet: a CPI var).
  std::vector<NetId> sts_of_gate;

  std::uint32_t rf_write_op() const {
    return static_cast<std::uint32_t>(regs.size() + dffs.size());
  }
  std::uint32_t mem_write_op() const { return rf_write_op() + 1; }
  std::uint32_t num_edge_ops() const { return mem_write_op() + 1; }
};

struct DlxModel {
  Netlist dp;
  GateNet ctrl;
  DlxSignals sig;
  DlxConfig cfg;
  GateVec cpi;                      ///< 12 CPI bits: opcode[5:0] ++ func[5:0]
  std::vector<CtrlBind> ctrl_binds; ///< every CTRL net with its gate bits
  std::vector<StsBind> sts_binds;   ///< every STS net with its var gate
  ModId rf_write_mod = kNoMod;
  ModId mem_write_mod = kNoMod;
  ModId mem_read_mod = kNoMod;

  const CtrlBind* find_ctrl(NetId n) const;
  const StsBind* find_sts(NetId n) const;

  /// The merged evaluation schedule (sim/schedule.h; defined in
  /// sim/schedule.cpp), built on the first call and shared read-only by
  /// every simulator of this model. Safe to call from several threads at
  /// once. build_dlx does not build it: models that never simulate never
  /// pay for it.
  const std::vector<EvalStep>& schedule() const;
  /// The readers of every value of schedule() (defined in sim/schedule.cpp),
  /// built on the first call like the schedule and shared the same way.
  const ScheduleFanout& fanout() const;

 private:
  struct LazySchedule {
    std::once_flag built;
    std::vector<EvalStep> steps;
    std::once_flag fanout_built;
    ScheduleFanout fanout;
  };
  /// Heap-held so the model stays movable (a once_flag is not).
  std::unique_ptr<LazySchedule> schedule_ = std::make_unique<LazySchedule>();
};

/// Build the complete model. The result is structurally checked (throws on
/// an internal inconsistency).
DlxModel build_dlx(DlxConfig cfg = {});

// Internal builder entry points (exposed for white-box tests).
DlxSignals build_dlx_datapath(Netlist& dp, const DlxConfig& cfg = {});
void build_dlx_controller(DlxModel& m);

}  // namespace hltg
