// Tests of the structural-Verilog exporter and the VCD waveform writer.
#include <gtest/gtest.h>

#include "dlx/export_verilog.h"
#include "isa/asm.h"
#include "netlist/dot.h"
#include "sim/vcd.h"

namespace hltg {
namespace {

const DlxModel& model() {
  static const DlxModel m = build_dlx();
  return m;
}

TEST(VerilogExport, IdentSanitizer) {
  EXPECT_EQ(verilog_ident("ex.alu_add"), "ex_alu_add");
  EXPECT_EQ(verilog_ident("cpi.opcode[3]"), "cpi_opcode_3_");
  EXPECT_EQ(verilog_ident("0weird"), "n_0weird");
  EXPECT_EQ(verilog_ident(""), "n_");
}

TEST(VerilogExport, DatapathContainsEveryNet) {
  const std::string v = export_datapath_verilog(model().dp);
  EXPECT_NE(v.find("module dlx_datapath"), std::string::npos);
  EXPECT_NE(v.find("endmodule"), std::string::npos);
  for (NetId n = 0; n < model().dp.num_nets(); ++n)
    EXPECT_NE(v.find(verilog_ident(model().dp.net(n).name)),
              std::string::npos)
        << model().dp.net(n).name;
}

TEST(VerilogExport, DatapathHasStatePorts) {
  const std::string v = export_datapath_verilog(model().dp);
  EXPECT_NE(v.find("wb_rf_write_we"), std::string::npos);
  EXPECT_NE(v.find("mem_dwrite_bemask"), std::string::npos);
  EXPECT_NE(v.find("mem_dread_data"), std::string::npos);
}

TEST(VerilogExport, RegistersBecomeAlwaysBlocks) {
  const std::string v = export_datapath_verilog(model().dp);
  // One always block per datapath register.
  std::size_t count = 0, pos = 0;
  while ((pos = v.find("always @(posedge clk)", pos)) != std::string::npos) {
    ++count;
    ++pos;
  }
  std::size_t regs = 0;
  for (ModId i = 0; i < model().dp.num_modules(); ++i)
    if (model().dp.module(i).kind == ModuleKind::kReg) ++regs;
  EXPECT_EQ(count, regs);
}

TEST(VerilogExport, ControllerExportsAllGateKinds) {
  const std::string v = export_controller_verilog(model().ctrl);
  EXPECT_NE(v.find("module dlx_controller"), std::string::npos);
  EXPECT_NE(v.find("cpi_opcode_0_"), std::string::npos);  // input
  EXPECT_NE(v.find("ctrl_rf_we_0_"), std::string::npos);  // CTRL output
  EXPECT_NE(v.find("<="), std::string::npos);             // DFFs
}

TEST(VerilogExport, TopTiesHalvesTogether) {
  const std::string v = export_top_verilog(model());
  EXPECT_NE(v.find("module dlx_top"), std::string::npos);
  EXPECT_NE(v.find("module dlx_datapath"), std::string::npos);
  EXPECT_NE(v.find("module dlx_controller"), std::string::npos);
}

TEST(VerilogExport, BalancedModuleEndmodule) {
  const std::string v = export_top_verilog(model());
  std::size_t mods = 0, ends = 0, pos = 0;
  while ((pos = v.find("\nmodule ", pos)) != std::string::npos) {
    ++mods;
    ++pos;
  }
  pos = 0;
  while ((pos = v.find("endmodule", pos)) != std::string::npos) {
    ++ends;
    ++pos;
  }
  EXPECT_EQ(mods, 3u);  // datapath, controller, top
  EXPECT_EQ(mods, ends);
}

TEST(DotExport, ClustersAndTertiaryHighlight) {
  const std::string d = export_datapath_dot(model().dp);
  EXPECT_NE(d.find("digraph dlx_datapath"), std::string::npos);
  for (const char* st : {"\"IF\"", "\"ID\"", "\"EX\"", "\"MEM\"", "\"WB\""})
    EXPECT_NE(d.find(st), std::string::npos) << st;
  EXPECT_NE(d.find("color=red"), std::string::npos);  // tertiary buses
  EXPECT_NE(d.find("ex.alu_add"), std::string::npos);
  // Balanced braces.
  EXPECT_EQ(std::count(d.begin(), d.end(), '{'),
            std::count(d.begin(), d.end(), '}'));
}

TestCase tiny_test() {
  const AsmResult r = assemble("addi r1, r0, 5\nsw 0x40(r0), r1\n");
  TestCase tc;
  tc.imem = encode_program(r.program);
  return tc;
}

TEST(Vcd, HeaderAndDefinitions) {
  const std::string v = dump_vcd(model(), tiny_test(), 8);
  EXPECT_NE(v.find("$timescale"), std::string::npos);
  EXPECT_NE(v.find("$enddefinitions"), std::string::npos);
  EXPECT_NE(v.find("$var wire 32"), std::string::npos);
  EXPECT_NE(v.find("ctrl_cg_stall"), std::string::npos);
}

TEST(Vcd, TimeMarkersPerCycle) {
  const std::string v = dump_vcd(model(), tiny_test(), 6);
  for (int t = 0; t <= 6; ++t) {
    std::string marker = "#";  // appended: see tests/random_net.h
    marker += std::to_string(t);
    marker += '\n';
    EXPECT_NE(v.find(marker), std::string::npos) << t;
  }
}

TEST(Vcd, OnlyChangesAfterFirstSample) {
  VcdWriter w(model());
  const NetId pc = model().dp.find_net("pc");
  w.add_net(pc);
  ProcSim sim(model(), tiny_test());
  for (int c = 0; c < 4; ++c) {
    sim.begin_cycle();
    w.sample(sim);
    sim.end_cycle();
  }
  const std::string v = w.render();
  // PC advances every cycle: 4 samples -> 4 value lines for signal code "!".
  std::size_t count = 0, pos = 0;
  while ((pos = v.find(" !\n", pos)) != std::string::npos) {
    ++count;
    ++pos;
  }
  EXPECT_EQ(count, 4u);
}

TEST(Vcd, UnchangedSignalEmittedOnce) {
  VcdWriter w(model());
  const NetId zero = model().dp.find_net("ex.zero32");
  w.add_net(zero);
  ProcSim sim(model(), tiny_test());
  for (int c = 0; c < 5; ++c) {
    sim.begin_cycle();
    w.sample(sim);
    sim.end_cycle();
  }
  const std::string v = w.render();
  std::size_t count = 0, pos = 0;
  while ((pos = v.find(" !\n", pos)) != std::string::npos) {
    ++count;
    ++pos;
  }
  EXPECT_EQ(count, 1u);  // constant: only the initial dump
}

}  // namespace
}  // namespace hltg
