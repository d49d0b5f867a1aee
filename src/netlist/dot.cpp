#include "netlist/dot.h"

#include <sstream>

namespace hltg {

namespace {

const char* shape_for(ModuleKind k) {
  switch (module_class(k)) {
    case ModuleClass::kAddClass: return "ellipse";
    case ModuleClass::kAndClass: return "hexagon";
    case ModuleClass::kMuxClass: return "trapezium";
    case ModuleClass::kStruct:
      return k == ModuleKind::kReg ? "box" : "plaintext";
  }
  return "ellipse";
}

// Appended, not "m" + std::to_string(m): GCC 12 reports a false
// -Wrestrict overlap for operator+(const char*, std::string&&).
std::string node_id(ModId m) {
  std::string id = "m";
  id += std::to_string(m);
  return id;
}

}  // namespace

std::string export_datapath_dot(const Netlist& nl) {
  std::ostringstream os;
  os << "digraph dlx_datapath {\n  rankdir=LR;\n  node [fontsize=9];\n";

  for (int s = 0; s <= kNumStages; ++s) {
    const Stage st = static_cast<Stage>(s);
    os << "  subgraph cluster_" << s << " {\n    label=\"" << to_string(st)
       << "\";\n";
    for (ModId m = 0; m < nl.num_modules(); ++m) {
      const Module& mod = nl.module(m);
      if (mod.stage != st) continue;
      os << "    " << node_id(m) << " [label=\"" << mod.name << "\\n"
         << to_string(mod.kind) << "\", shape=" << shape_for(mod.kind)
         << "];\n";
    }
    os << "  }\n";
  }

  // Edges: driver module -> sink module, labeled with the bus name/width.
  for (NetId n = 0; n < nl.num_nets(); ++n) {
    const Net& net = nl.net(n);
    if (net.driver == kNoMod) continue;  // DPI/CTRL: no datapath driver
    for (auto [sink, slot] : net.sinks) {
      (void)slot;
      os << "  " << node_id(net.driver) << " -> " << node_id(sink)
         << " [label=\"" << net.name << ":" << net.width << "\"";
      if (net.role == NetRole::kDTO || net.role == NetRole::kDTI)
        os << ", color=red, penwidth=2";  // tertiary buses stand out
      os << "];\n";
    }
  }
  os << "}\n";
  return os.str();
}

}  // namespace hltg
