#include "isa/isa.h"

#include <array>
#include <sstream>

namespace hltg {

Format format_of(Op op) {
  if (is_alu_r(op)) return Format::kR;
  if (op == Op::kJ || op == Op::kJal) return Format::kJ;
  return Format::kI;  // NOP encodes as all-zero R-type but is handled ad hoc
}

std::string_view mnemonic(Op op) {
  switch (op) {
    case Op::kNop: return "nop";
    case Op::kAdd: return "add";
    case Op::kAddu: return "addu";
    case Op::kSub: return "sub";
    case Op::kSubu: return "subu";
    case Op::kAnd: return "and";
    case Op::kOr: return "or";
    case Op::kXor: return "xor";
    case Op::kSll: return "sll";
    case Op::kSrl: return "srl";
    case Op::kSra: return "sra";
    case Op::kSlt: return "slt";
    case Op::kSltu: return "sltu";
    case Op::kSeq: return "seq";
    case Op::kSne: return "sne";
    case Op::kAddi: return "addi";
    case Op::kAddui: return "addui";
    case Op::kSubi: return "subi";
    case Op::kSubui: return "subui";
    case Op::kAndi: return "andi";
    case Op::kOri: return "ori";
    case Op::kXori: return "xori";
    case Op::kSlli: return "slli";
    case Op::kSrli: return "srli";
    case Op::kSrai: return "srai";
    case Op::kSlti: return "slti";
    case Op::kSltui: return "sltui";
    case Op::kSeqi: return "seqi";
    case Op::kSnei: return "snei";
    case Op::kLhi: return "lhi";
    case Op::kLb: return "lb";
    case Op::kLbu: return "lbu";
    case Op::kLh: return "lh";
    case Op::kLhu: return "lhu";
    case Op::kLw: return "lw";
    case Op::kSb: return "sb";
    case Op::kSh: return "sh";
    case Op::kSw: return "sw";
    case Op::kBeqz: return "beqz";
    case Op::kBnez: return "bnez";
    case Op::kJ: return "j";
    case Op::kJal: return "jal";
    case Op::kJr: return "jr";
    case Op::kJalr: return "jalr";
    default: return "?";
  }
}

Op op_from_mnemonic(std::string_view m) {
  for (int i = 0; i < kNumInstructions; ++i) {
    const Op op = static_cast<Op>(i);
    if (mnemonic(op) == m) return op;
  }
  return Op::kNumOps;
}

bool is_load(Op op) {
  switch (op) {
    case Op::kLb: case Op::kLbu: case Op::kLh: case Op::kLhu: case Op::kLw:
      return true;
    default:
      return false;
  }
}

bool is_store(Op op) {
  return op == Op::kSb || op == Op::kSh || op == Op::kSw;
}

bool is_branch(Op op) { return op == Op::kBeqz || op == Op::kBnez; }

bool is_jump(Op op) {
  return op == Op::kJ || op == Op::kJal || op == Op::kJr || op == Op::kJalr;
}

bool is_control(Op op) { return is_branch(op) || is_jump(op); }

bool is_alu_r(Op op) {
  switch (op) {
    case Op::kAdd: case Op::kAddu: case Op::kSub: case Op::kSubu:
    case Op::kAnd: case Op::kOr: case Op::kXor: case Op::kSll:
    case Op::kSrl: case Op::kSra: case Op::kSlt: case Op::kSltu:
    case Op::kSeq: case Op::kSne:
      return true;
    default:
      return false;
  }
}

bool is_alu_i(Op op) {
  switch (op) {
    case Op::kAddi: case Op::kAddui: case Op::kSubi: case Op::kSubui:
    case Op::kAndi: case Op::kOri: case Op::kXori: case Op::kSlli:
    case Op::kSrli: case Op::kSrai: case Op::kSlti: case Op::kSltui:
    case Op::kSeqi: case Op::kSnei: case Op::kLhi:
      return true;
    default:
      return false;
  }
}

bool reads_rs1(Op op) {
  if (op == Op::kNop || op == Op::kJ || op == Op::kJal || op == Op::kLhi)
    return false;
  return true;
}

bool reads_rs2(Op op) { return is_alu_r(op); }

bool reads_rd_as_source(Op op) { return is_store(op); }

bool writes_reg(const Instr& i, unsigned* dest_reg) {
  unsigned d = 0;
  bool w = false;
  if (is_alu_r(i.op) || is_alu_i(i.op) || is_load(i.op)) {
    d = i.rd;
    w = true;
  } else if (i.op == Op::kJal || i.op == Op::kJalr) {
    d = 31;
    w = true;
  }
  if (w && d == 0) w = false;  // R0 is hardwired to zero
  if (dest_reg) *dest_reg = d;
  return w;
}

bool zero_extends_imm(Op op) {
  switch (op) {
    case Op::kAddui: case Op::kSubui: case Op::kAndi: case Op::kOri:
    case Op::kXori: case Op::kSltui: case Op::kLhi:
      return true;
    default:
      return false;
  }
}

std::string to_string(const Instr& i) {
  std::ostringstream os;
  os << mnemonic(i.op);
  auto reg = [](unsigned r) {  // appended: see node_id in netlist/dot.cpp
    std::string name = "r";
    name += std::to_string(r);
    return name;
  };
  switch (i.op) {
    case Op::kNop:
      break;
    case Op::kJ:
    case Op::kJal:
      os << " " << i.imm;
      break;
    case Op::kJr:
    case Op::kJalr:
      os << " " << reg(i.rs1);
      break;
    case Op::kBeqz:
    case Op::kBnez:
      os << " " << reg(i.rs1) << ", " << i.imm;
      break;
    default:
      if (is_alu_r(i.op)) {
        os << " " << reg(i.rd) << ", " << reg(i.rs1) << ", " << reg(i.rs2);
      } else if (is_load(i.op)) {
        os << " " << reg(i.rd) << ", " << i.imm << "(" << reg(i.rs1) << ")";
      } else if (is_store(i.op)) {
        os << " " << i.imm << "(" << reg(i.rs1) << "), " << reg(i.rd);
      } else if (i.op == Op::kLhi) {
        os << " " << reg(i.rd) << ", " << i.imm;
      } else {  // I-type ALU
        os << " " << reg(i.rd) << ", " << reg(i.rs1) << ", " << i.imm;
      }
      break;
  }
  return os.str();
}

}  // namespace hltg
