#include "baseline/random_tg.h"

#include <chrono>

#include "isa/asm.h"
#include "sim/cosim.h"
#include "util/word.h"

namespace hltg {

namespace {

std::uint32_t biased_value(Rng& rng) {
  // Mix of corner values and uniform randoms: corner-ish data exposes
  // arithmetic errors (carries, sign bits) much faster than uniform data.
  switch (rng.below(6)) {
    case 0: return 0;
    case 1: return 1;
    case 2: return 0xFFFFFFFFu;
    case 3: return 0x80000000u;
    case 4: return static_cast<std::uint32_t>(rng.word(8));
    default: return static_cast<std::uint32_t>(rng.word(32));
  }
}

Instr random_instr(Rng& rng, const RandomTgConfig& cfg, unsigned remaining) {
  auto reg = [&] { return 1 + static_cast<unsigned>(rng.below(cfg.reg_pool)); };
  const unsigned roll = static_cast<unsigned>(rng.below(100));
  Instr i;
  if (roll < cfg.p_store) {
    static const Op stores[] = {Op::kSb, Op::kSh, Op::kSw};
    i.op = stores[rng.below(3)];
    i.rs1 = reg();
    i.rd = reg();
    i.imm = static_cast<std::int32_t>(rng.below(16)) * 4;
  } else if (roll < cfg.p_store + cfg.p_load) {
    static const Op loads[] = {Op::kLb, Op::kLbu, Op::kLh, Op::kLhu, Op::kLw};
    i.op = loads[rng.below(5)];
    i.rd = reg();
    i.rs1 = reg();
    i.imm = static_cast<std::int32_t>(rng.below(16)) * 4;
  } else if (roll < cfg.p_store + cfg.p_load + cfg.p_branch && remaining > 2) {
    i.op = rng.flip() ? Op::kBeqz : Op::kBnez;
    i.rs1 = reg();
    i.imm = static_cast<std::int32_t>(rng.below(remaining - 1));  // forward
  } else if (roll < 60u) {
    static const Op rops[] = {Op::kAdd, Op::kSub,  Op::kAnd, Op::kOr,
                              Op::kXor, Op::kSll,  Op::kSrl, Op::kSra,
                              Op::kSlt, Op::kSltu, Op::kSeq, Op::kSne,
                              Op::kAddu, Op::kSubu};
    i.op = rops[rng.below(14)];
    i.rd = reg();
    i.rs1 = reg();
    i.rs2 = reg();
  } else {
    static const Op iops[] = {Op::kAddi, Op::kAddui, Op::kSubi, Op::kSubui,
                              Op::kAndi, Op::kOri,   Op::kXori, Op::kSlli,
                              Op::kSrli, Op::kSrai,  Op::kSlti, Op::kSltui,
                              Op::kSeqi, Op::kSnei,  Op::kLhi};
    i.op = iops[rng.below(15)];
    i.rd = reg();
    i.rs1 = reg();
    i.imm = static_cast<std::int32_t>(sext(rng.word(16), 16));
    if (i.op == Op::kSlli || i.op == Op::kSrli || i.op == Op::kSrai)
      i.imm &= 31;
  }
  return i;
}

}  // namespace

TestCase random_test(Rng& rng, const RandomTgConfig& cfg) {
  TestCase tc;
  for (unsigned r = 1; r < 32; ++r) tc.rf_init[r] = biased_value(rng);
  for (unsigned w = 0; w < 32; ++w) tc.dmem_init[4 * w] = biased_value(rng);
  std::vector<Instr> prog;
  for (unsigned k = 0; k < cfg.program_length; ++k)
    prog.push_back(random_instr(rng, cfg, cfg.program_length - k));
  // Terminate with stores that expose live register state, then drain NOPs.
  for (unsigned r = 1; r <= cfg.reg_pool; ++r) {
    Instr st;
    st.op = Op::kSw;
    st.rs1 = 0;
    st.rd = r;
    st.imm = static_cast<std::int32_t>(0x200 + 4 * r);
    prog.push_back(st);
  }
  tc.imem = encode_program(prog);
  return tc;
}

BudgetedGenFn random_budgeted_strategy(const DlxModel& m, RandomTgConfig cfg) {
  return [&m, cfg](const DesignError& err, Budget& budget) {
    ErrorAttempt a;
    Rng rng(cfg.seed ^
            (static_cast<std::uint64_t>(err.site_net(m.dp)) << 17));
    const auto t0 = std::chrono::steady_clock::now();
    for (unsigned k = 0; k < cfg.max_programs_per_error; ++k) {
      const AbortReason why = budget.exhausted();
      if (why != AbortReason::kNone) {
        a.abort = why;
        a.note = "budget: " + std::string(to_string(why));
        break;
      }
      const TestCase tc = random_test(rng, cfg);
      if (detects(m, tc, err.injection())) {
        a.generated = true;
        a.sim_confirmed = true;
        a.test = tc;
        a.test_length = static_cast<unsigned>(tc.imem.size());
        break;
      }
      // Each candidate program costs one "decision" against the budget's
      // caps, so max_decisions bounds the fallback's volume of simulation.
      budget.charge_decisions(1);
    }
    a.seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    if (!a.generated && a.note.empty())
      a.note = "no random program detected the error";
    return a;
  };
}

}  // namespace hltg
