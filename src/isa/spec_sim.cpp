#include "isa/spec_sim.h"

#include <sstream>

#include "isa/encode.h"
#include "util/word.h"

namespace hltg {

std::string ArchTrace::diff(const ArchTrace& other) const {
  std::ostringstream os;
  if (writes.size() != other.writes.size())
    os << "store count " << writes.size() << " vs " << other.writes.size()
       << "\n";
  const std::size_t n = std::min(writes.size(), other.writes.size());
  for (std::size_t i = 0; i < n; ++i)
    if (!(writes[i] == other.writes[i]))
      os << "store[" << i << "] (" << to_hex(writes[i].addr, 32) << ","
         << to_hex(writes[i].data, 32) << ",m" << writes[i].bemask << ") vs ("
         << to_hex(other.writes[i].addr, 32) << ","
         << to_hex(other.writes[i].data, 32) << ",m" << other.writes[i].bemask
         << ")\n";
  for (unsigned r = 0; r < 32; ++r)
    if (rf_final[r] != other.rf_final[r])
      os << "r" << r << " " << to_hex(rf_final[r], 32) << " vs "
         << to_hex(other.rf_final[r], 32) << "\n";
  return os.str();
}

void SparseMemory::load(const std::map<std::uint32_t, std::uint32_t>& init) {
  for (auto [a, v] : init) mem_[a & ~3u] = v;
}

std::uint32_t SparseMemory::read_word(std::uint32_t addr) const {
  const auto it = mem_.find(addr & ~3u);
  return it == mem_.end() ? 0 : it->second;
}

std::uint32_t merge_bytes(std::uint32_t cur, std::uint32_t data,
                          unsigned bemask) {
  for (unsigned b = 0; b < 4; ++b)
    if (bemask & (1u << b))
      cur = static_cast<std::uint32_t>(
          set_field(cur, 8 * b, 8, get_field(data, 8 * b, 8)));
  return cur;
}

void SparseMemory::write_word(std::uint32_t addr, std::uint32_t data,
                              unsigned bemask) {
  mem_[addr & ~3u] = merge_bytes(read_word(addr), data, bemask);
}

SpecSimulator::SpecSimulator(const TestCase& tc) : imem_(tc.imem) {
  rf_ = tc.rf_init;
  rf_[0] = 0;
  dmem_.load(tc.dmem_init);
}

std::uint32_t SpecSimulator::fetch(std::uint32_t pc) const {
  const std::size_t idx = pc / 4;
  if (pc % 4 != 0 || idx >= imem_.size()) return 0;  // out of program: NOP
  return imem_[idx];
}

Instr SpecSimulator::step() {
  const Instr i = decode(fetch(pc_));
  const std::uint32_t next_pc = pc_ + 4;
  std::uint32_t target = next_pc;

  const std::uint32_t a = reg(i.rs1);
  const std::uint32_t b = reg(i.rs2);
  const std::uint32_t imm = static_cast<std::uint32_t>(i.imm);

  auto setrd = [&](std::uint32_t v) { set_reg(i.rd, v); };

  switch (i.op) {
    case Op::kNop:
      break;
    case Op::kAdd:
    case Op::kAddu:
      setrd(a + b);
      break;
    case Op::kSub:
    case Op::kSubu:
      setrd(a - b);
      break;
    case Op::kAnd:
      setrd(a & b);
      break;
    case Op::kOr:
      setrd(a | b);
      break;
    case Op::kXor:
      setrd(a ^ b);
      break;
    case Op::kSll:
      setrd(a << (b & 31));
      break;
    case Op::kSrl:
      setrd(a >> (b & 31));
      break;
    case Op::kSra:
      setrd(static_cast<std::uint32_t>(static_cast<std::int32_t>(a) >>
                                       (b & 31)));
      break;
    case Op::kSlt:
      setrd(static_cast<std::int32_t>(a) < static_cast<std::int32_t>(b));
      break;
    case Op::kSltu:
      setrd(a < b);
      break;
    case Op::kSeq:
      setrd(a == b);
      break;
    case Op::kSne:
      setrd(a != b);
      break;
    case Op::kAddi:
    case Op::kAddui:
      setrd(a + imm);
      break;
    case Op::kSubi:
    case Op::kSubui:
      setrd(a - imm);
      break;
    case Op::kAndi:
      setrd(a & imm);
      break;
    case Op::kOri:
      setrd(a | imm);
      break;
    case Op::kXori:
      setrd(a ^ imm);
      break;
    case Op::kSlli:
      setrd(a << (imm & 31));
      break;
    case Op::kSrli:
      setrd(a >> (imm & 31));
      break;
    case Op::kSrai:
      setrd(static_cast<std::uint32_t>(static_cast<std::int32_t>(a) >>
                                       (imm & 31)));
      break;
    case Op::kSlti:
      setrd(static_cast<std::int32_t>(a) <
            static_cast<std::int32_t>(imm));
      break;
    case Op::kSltui:
      setrd(a < imm);
      break;
    case Op::kSeqi:
      setrd(a == imm);
      break;
    case Op::kSnei:
      setrd(a != imm);
      break;
    case Op::kLhi:
      setrd(imm << 16);
      break;
    case Op::kLb:
    case Op::kLbu: {
      const std::uint32_t addr = a + imm;
      const std::uint32_t w = dmem_.read_word(addr);
      const std::uint32_t byte =
          static_cast<std::uint32_t>(get_field(w, 8 * (addr & 3), 8));
      setrd(i.op == Op::kLb ? static_cast<std::uint32_t>(sext(byte, 8))
                            : byte);
      break;
    }
    case Op::kLh:
    case Op::kLhu: {
      const std::uint32_t addr = a + imm;
      const std::uint32_t w = dmem_.read_word(addr);
      const std::uint32_t half =
          static_cast<std::uint32_t>(get_field(w, 8 * (addr & 2), 16));
      setrd(i.op == Op::kLh ? static_cast<std::uint32_t>(sext(half, 16))
                            : half);
      break;
    }
    case Op::kLw:
      setrd(dmem_.read_word(a + imm));
      break;
    case Op::kSb:
    case Op::kSh:
    case Op::kSw: {
      const std::uint32_t addr = a + imm;
      const std::uint32_t datum = reg(i.rd);
      std::uint32_t data = 0;
      unsigned mask = 0;
      if (i.op == Op::kSb) {
        mask = 1u << (addr & 3);
        data = static_cast<std::uint32_t>(
            set_field(0, 8 * (addr & 3), 8, get_field(datum, 0, 8)));
      } else if (i.op == Op::kSh) {
        mask = 3u << (addr & 2);
        data = static_cast<std::uint32_t>(
            set_field(0, 8 * (addr & 2), 16, get_field(datum, 0, 16)));
      } else {
        mask = 0xF;
        data = datum;
      }
      dmem_.write_word(addr, data, mask);
      writes_.push_back({addr & ~3u, data, mask});
      break;
    }
    case Op::kBeqz:
      if (a == 0) target = next_pc + (imm << 2);
      break;
    case Op::kBnez:
      if (a != 0) target = next_pc + (imm << 2);
      break;
    case Op::kJ:
      target = next_pc + (imm << 2);
      break;
    case Op::kJal:
      set_reg(31, next_pc);
      target = next_pc + (imm << 2);
      break;
    case Op::kJr:
      target = a;
      break;
    case Op::kJalr:
      set_reg(31, next_pc);
      target = a;
      break;
    default:
      break;
  }
  pc_ = target;
  ++retired_;
  return i;
}

ArchTrace SpecSimulator::run(unsigned max_instructions) {
  for (unsigned k = 0; k < max_instructions; ++k) step();
  ArchTrace t;
  t.writes = writes_;
  for (unsigned r = 0; r < 32; ++r) t.rf_final[r] = reg(r);
  return t;
}

ArchTrace spec_run(const TestCase& tc, unsigned n) {
  SpecSimulator sim(tc);
  return sim.run(n);
}

}  // namespace hltg
