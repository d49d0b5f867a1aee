#include "dlx/export_verilog.h"

#include <sstream>

#include "util/word.h"

namespace hltg {

std::string verilog_ident(const std::string& name) {
  std::string out;
  out.reserve(name.size());
  for (char c : name) {
    if ((c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
        (c >= '0' && c <= '9') || c == '_')
      out.push_back(c);
    else
      out.push_back('_');
  }
  if (out.empty() || (out[0] >= '0' && out[0] <= '9')) out.insert(0, "n_");
  return out;
}

namespace {

std::string width_decl(unsigned w) {
  if (w == 1) return "";
  std::string decl = "[";  // appended: see node_id in netlist/dot.cpp
  decl += std::to_string(w - 1);
  decl += ":0] ";
  return decl;
}

std::string vconst(std::uint64_t v, unsigned w) {
  std::ostringstream os;
  os << w << "'h" << std::hex << trunc(v, w);
  return os.str();
}

}  // namespace

std::string export_datapath_verilog(const Netlist& nl) {
  std::ostringstream os;
  auto id = [&](NetId n) { return verilog_ident(nl.net(n).name); };

  // Port list: DPI/DPO/CTRL/STS plus clock/reset and the architectural
  // state interfaces.
  os << "// Generated by hltg: word-level DLX datapath\n";
  os << "module dlx_datapath(\n  input clk, input rst";
  for (NetId n = 0; n < nl.num_nets(); ++n) {
    const Net& net = nl.net(n);
    switch (net.role) {
      case NetRole::kDPI:
      case NetRole::kCtrl:
        os << ",\n  input " << width_decl(net.width) << id(n);
        break;
      case NetRole::kDPO:
        os << ",\n  output " << width_decl(net.width) << id(n);
        break;
      case NetRole::kSts:
        os << ",\n  output " << width_decl(net.width) << id(n);
        break;
      default:
        break;
    }
  }
  // Architectural-state interfaces.
  for (ModId i = 0; i < nl.num_modules(); ++i) {
    const Module& m = nl.module(i);
    const std::string base = verilog_ident(m.name);
    switch (m.kind) {
      case ModuleKind::kRfRead:
        os << ",\n  output [4:0] " << base << "_addr, input [31:0] " << base
           << "_data";
        break;
      case ModuleKind::kRfWrite:
        os << ",\n  output [4:0] " << base << "_addr, output [31:0] " << base
           << "_data, output " << base << "_we";
        break;
      case ModuleKind::kMemRead:
        os << ",\n  output [31:0] " << base << "_addr, input [31:0] " << base
           << "_data";
        break;
      case ModuleKind::kMemWrite:
        os << ",\n  output [31:0] " << base << "_addr, output [31:0] " << base
           << "_data, output [3:0] " << base << "_bemask, output " << base
           << "_we";
        break;
      default:
        break;
    }
  }
  os << ");\n\n";

  // Internal nets.
  for (NetId n = 0; n < nl.num_nets(); ++n) {
    const Net& net = nl.net(n);
    if (net.role == NetRole::kDPI || net.role == NetRole::kCtrl) continue;
    const bool is_reg =
        net.driver != kNoMod && nl.module(net.driver).kind == ModuleKind::kReg;
    if (net.role == NetRole::kDPO || net.role == NetRole::kSts) {
      if (is_reg) os << "  reg " << width_decl(net.width) << id(n) << "_q;\n";
      continue;  // declared in the port list
    }
    os << (is_reg ? "  reg " : "  wire ") << width_decl(net.width) << id(n)
       << ";\n";
  }
  os << "\n";

  auto in = [&](const Module& m, unsigned i) { return id(m.data_in[i]); };
  auto ctl = [&](const Module& m, unsigned i) { return id(m.ctrl_in[i]); };
  for (ModId mi = 0; mi < nl.num_modules(); ++mi) {
    const Module& m = nl.module(mi);
    const std::string base = verilog_ident(m.name);
    const std::string y = m.out != kNoNet ? id(m.out) : "";
    const unsigned ow = m.out != kNoNet ? nl.net(m.out).width : 0;
    switch (m.kind) {
      case ModuleKind::kAdd:
        os << "  assign " << y << " = " << in(m, 0) << " + " << in(m, 1) << ";\n";
        break;
      case ModuleKind::kSub:
        os << "  assign " << y << " = " << in(m, 0) << " - " << in(m, 1) << ";\n";
        break;
      case ModuleKind::kAndW:
        os << "  assign " << y << " = " << in(m, 0) << " & " << in(m, 1) << ";\n";
        break;
      case ModuleKind::kOrW:
        os << "  assign " << y << " = " << in(m, 0) << " | " << in(m, 1) << ";\n";
        break;
      case ModuleKind::kXorW:
        os << "  assign " << y << " = " << in(m, 0) << " ^ " << in(m, 1) << ";\n";
        break;
      case ModuleKind::kXnorW:
        os << "  assign " << y << " = ~(" << in(m, 0) << " ^ " << in(m, 1)
           << ");\n";
        break;
      case ModuleKind::kNandW:
        os << "  assign " << y << " = ~(" << in(m, 0) << " & " << in(m, 1)
           << ");\n";
        break;
      case ModuleKind::kNorW:
        os << "  assign " << y << " = ~(" << in(m, 0) << " | " << in(m, 1)
           << ");\n";
        break;
      case ModuleKind::kNotW:
        os << "  assign " << y << " = ~" << in(m, 0) << ";\n";
        break;
      case ModuleKind::kShl:
        os << "  assign " << y << " = " << in(m, 0) << " << " << in(m, 1)
           << ";\n";
        break;
      case ModuleKind::kShrL:
        os << "  assign " << y << " = " << in(m, 0) << " >> " << in(m, 1)
           << ";\n";
        break;
      case ModuleKind::kShrA:
        os << "  assign " << y << " = $signed(" << in(m, 0) << ") >>> "
           << in(m, 1) << ";\n";
        break;
      case ModuleKind::kEq:
        os << "  assign " << y << " = " << in(m, 0) << " == " << in(m, 1)
           << ";\n";
        break;
      case ModuleKind::kNe:
        os << "  assign " << y << " = " << in(m, 0) << " != " << in(m, 1)
           << ";\n";
        break;
      case ModuleKind::kLt:
        os << "  assign " << y << " = $signed(" << in(m, 0) << ") < $signed("
           << in(m, 1) << ");\n";
        break;
      case ModuleKind::kLe:
        os << "  assign " << y << " = $signed(" << in(m, 0) << ") <= $signed("
           << in(m, 1) << ");\n";
        break;
      case ModuleKind::kLtU:
        os << "  assign " << y << " = " << in(m, 0) << " < " << in(m, 1)
           << ";\n";
        break;
      case ModuleKind::kLeU:
        os << "  assign " << y << " = " << in(m, 0) << " <= " << in(m, 1)
           << ";\n";
        break;
      case ModuleKind::kAddOvf:
      case ModuleKind::kSubOvf: {
        const char op = m.kind == ModuleKind::kAddOvf ? '+' : '-';
        const unsigned w = nl.net(m.data_in[0]).width;
        os << "  wire [" << w - 1 << ":0] " << base << "_res = " << in(m, 0)
           << " " << op << " " << in(m, 1) << ";\n";
        os << "  assign " << y << " = (" << in(m, 0) << "[" << w - 1 << "] "
           << (m.kind == ModuleKind::kAddOvf ? "==" : "!=") << " " << in(m, 1)
           << "[" << w - 1 << "]) && (" << base << "_res[" << w - 1
           << "] != " << in(m, 0) << "[" << w - 1 << "]);\n";
        break;
      }
      case ModuleKind::kMux: {
        os << "  assign " << y << " =";
        for (std::size_t i = 0; i + 1 < m.data_in.size(); ++i)
          os << " " << ctl(m, 0) << " == " << vconst(i, nl.net(m.ctrl_in[0]).width)
             << " ? " << in(m, static_cast<unsigned>(i)) << " :";
        os << " " << in(m, static_cast<unsigned>(m.data_in.size() - 1))
           << ";\n";
        break;
      }
      case ModuleKind::kConst:
        os << "  assign " << y << " = " << vconst(m.param, ow) << ";\n";
        break;
      case ModuleKind::kSlice:
        os << "  assign " << y << " = " << in(m, 0) << "["
           << m.param + ow - 1 << ":" << m.param << "];\n";
        break;
      case ModuleKind::kConcat: {
        os << "  assign " << y << " = {";
        for (std::size_t i = m.data_in.size(); i-- > 0;) {
          os << in(m, static_cast<unsigned>(i));
          if (i != 0) os << ", ";
        }
        os << "};\n";
        break;
      }
      case ModuleKind::kZext: {
        const unsigned wi = nl.net(m.data_in[0]).width;
        os << "  assign " << y << " = {" << ow - wi << "'b0, " << in(m, 0)
           << "};\n";
        break;
      }
      case ModuleKind::kSext: {
        const unsigned wi = nl.net(m.data_in[0]).width;
        os << "  assign " << y << " = {{" << ow - wi << "{" << in(m, 0) << "["
           << wi - 1 << "]}}, " << in(m, 0) << "};\n";
        break;
      }
      case ModuleKind::kReg: {
        const bool has_en = m.tag & 1, has_clr = m.tag & 2;
        unsigned slot = 0;
        const std::string en = has_en ? ctl(m, slot++) : "";
        const std::string clr = has_clr ? ctl(m, slot) : "";
        const std::string q =
            nl.net(m.out).role == NetRole::kDPO ? y + "_q" : y;
        os << "  always @(posedge clk) begin\n";
        os << "    if (rst) " << q << " <= " << vconst(m.param, ow) << ";\n";
        if (has_clr) os << "    else if (" << clr << ") " << q << " <= 0;\n";
        if (has_en)
          os << "    else if (" << en << ") " << q << " <= " << in(m, 0)
             << ";\n";
        else
          os << "    else " << q << " <= " << in(m, 0) << ";\n";
        os << "  end\n";
        if (q != y) os << "  assign " << y << " = " << q << ";\n";
        break;
      }
      case ModuleKind::kInput:
      case ModuleKind::kOutput:
        break;  // ports
      case ModuleKind::kRfRead:
        os << "  assign " << base << "_addr = " << in(m, 0) << ";\n";
        os << "  assign " << y << " = " << base << "_data;\n";
        break;
      case ModuleKind::kRfWrite:
        os << "  assign " << base << "_addr = " << in(m, 0) << ";\n";
        os << "  assign " << base << "_data = " << in(m, 1) << ";\n";
        os << "  assign " << base << "_we = " << ctl(m, 0) << ";\n";
        break;
      case ModuleKind::kMemRead:
        os << "  assign " << base << "_addr = " << in(m, 0) << ";\n";
        os << "  assign " << y << " = " << base << "_data;\n";
        break;
      case ModuleKind::kMemWrite:
        os << "  assign " << base << "_addr = " << in(m, 0) << ";\n";
        os << "  assign " << base << "_data = " << in(m, 1) << ";\n";
        os << "  assign " << base << "_bemask = " << in(m, 2) << ";\n";
        os << "  assign " << base << "_we = " << ctl(m, 0) << ";\n";
        break;
    }
  }
  os << "endmodule\n";
  return os.str();
}

std::string export_controller_verilog(const GateNet& gn) {
  std::ostringstream os;
  auto id = [&](GateId g) { return verilog_ident(gn.gate(g).name); };
  os << "// Generated by hltg: gate-level DLX controller\n";
  os << "module dlx_controller(\n  input clk, input rst";
  for (GateId g = 0; g < gn.num_gates(); ++g) {
    const Gate& gate = gn.gate(g);
    if (gate.kind == GateKind::kVar)
      os << ",\n  input " << id(g);
    else if (gate.role == SigRole::kCtrl || gate.role == SigRole::kCPO)
      os << ",\n  output " << id(g);
  }
  os << ");\n\n";

  for (GateId g = 0; g < gn.num_gates(); ++g) {
    const Gate& gate = gn.gate(g);
    if (gate.kind == GateKind::kVar || gate.role == SigRole::kCtrl ||
        gate.role == SigRole::kCPO) {
      if (gate.kind == GateKind::kDff) os << "  reg " << id(g) << "_q;\n";
      continue;
    }
    os << (gate.kind == GateKind::kDff ? "  reg  " : "  wire ") << id(g)
       << ";\n";
  }
  os << "\n";

  auto fan = [&](GateId g, const char* sep) {
    std::string s;
    const Gate& gate = gn.gate(g);
    for (std::size_t i = 0; i < gate.fanin.size(); ++i) {
      if (i) s += sep;
      s += id(gate.fanin[i]);
    }
    return s;
  };
  for (GateId g = 0; g < gn.num_gates(); ++g) {
    const Gate& gate = gn.gate(g);
    switch (gate.kind) {
      case GateKind::kVar:
        break;
      case GateKind::kConst0:
        os << "  assign " << id(g) << " = 1'b0;\n";
        break;
      case GateKind::kConst1:
        os << "  assign " << id(g) << " = 1'b1;\n";
        break;
      case GateKind::kBuf:
        os << "  assign " << id(g) << " = " << id(gate.fanin[0]) << ";\n";
        break;
      case GateKind::kNot:
        os << "  assign " << id(g) << " = ~" << id(gate.fanin[0]) << ";\n";
        break;
      case GateKind::kAnd:
        os << "  assign " << id(g) << " = " << fan(g, " & ") << ";\n";
        break;
      case GateKind::kOr:
        os << "  assign " << id(g) << " = " << fan(g, " | ") << ";\n";
        break;
      case GateKind::kXor:
        os << "  assign " << id(g) << " = " << fan(g, " ^ ") << ";\n";
        break;
      case GateKind::kDff: {
        const std::string q = id(g);
        os << "  always @(posedge clk) begin\n";
        os << "    if (rst) " << q << " <= 1'b"
           << (gate.reset_value ? 1 : 0) << ";\n";
        os << "    else " << q << " <= " << id(gate.fanin[0]) << ";\n";
        os << "  end\n";
        break;
      }
    }
  }
  os << "endmodule\n";
  return os.str();
}

std::string export_top_verilog(const DlxModel& m) {
  std::ostringstream os;
  os << "// Generated by hltg: two-level DLX model top\n";
  os << export_datapath_verilog(m.dp) << "\n";
  os << export_controller_verilog(m.ctrl) << "\n";
  os << "module dlx_top(input clk, input rst);\n";
  // Bundle wires between the halves.
  for (const CtrlBind& cb : m.ctrl_binds) {
    const Net& net = m.dp.net(cb.dp_net);
    os << "  wire [" << net.width - 1 << ":0] "
       << verilog_ident(net.name) << ";\n";
  }
  for (const StsBind& sb : m.sts_binds)
    os << "  wire " << verilog_ident(m.dp.net(sb.dp_net).name) << ";\n";
  os << "  // Instantiations with named connections are left to the reader's\n"
        "  // integration environment (register file, memories, fetch).\n";
  os << "endmodule\n";
  return os.str();
}

}  // namespace hltg
