// Architectural (ISA-level) specification simulator.
//
// This is the "specification" side of the verification methodology: a
// sequential, non-pipelined executor of the 44-instruction DLX ISA. A design
// error is *detected* by a test when the architecturally observable trace of
// the (erroneous) pipelined implementation differs from this simulator's
// trace on the same test (Sec. I: "A discrepancy in the simulation outcome
// indicates an error").
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "isa/isa.h"

namespace hltg {

/// A verification test: program image plus initial architectural state.
/// The paper's generator produces "instruction and data sequences"; the data
/// part is the initial register-file and data-memory contents.
struct TestCase {
  std::vector<std::uint32_t> imem;  ///< program at PC=0,4,8,...; beyond: NOP
  std::array<std::uint32_t, 32> rf_init{};  ///< R0 entry ignored
  std::map<std::uint32_t, std::uint32_t> dmem_init;  ///< word-aligned addr -> value
};

/// One committed store on the data-memory interface (a datapath DPO).
struct MemWrite {
  std::uint32_t addr = 0;   ///< word-aligned
  std::uint32_t data = 0;   ///< full word written (after byte merge)
  unsigned bemask = 0xF;    ///< which byte lanes the instruction wrote
  bool operator==(const MemWrite&) const = default;
};

/// Architecturally observable outcome used for spec-vs-implementation
/// comparison: the ordered committed store sequence plus final register
/// file. (Loads are pure; squashed instructions never appear.)
struct ArchTrace {
  std::vector<MemWrite> writes;
  std::array<std::uint32_t, 32> rf_final{};
  bool operator==(const ArchTrace&) const = default;
  std::string diff(const ArchTrace& other) const;  ///< "" when equal
};

/// `cur` with the byte lanes of `data` that `bemask` enables written over
/// it: what a store does to the word it hits.
std::uint32_t merge_bytes(std::uint32_t cur, std::uint32_t data,
                          unsigned bemask);

/// Sparse little-endian byte-addressable memory stored as aligned words.
class SparseMemory {
 public:
  void load(const std::map<std::uint32_t, std::uint32_t>& init);
  std::uint32_t read_word(std::uint32_t addr) const;  ///< addr auto-aligned
  void write_word(std::uint32_t addr, std::uint32_t data, unsigned bemask);
  const std::map<std::uint32_t, std::uint32_t>& words() const { return mem_; }

 private:
  std::map<std::uint32_t, std::uint32_t> mem_;
};

class SpecSimulator {
 public:
  explicit SpecSimulator(const TestCase& tc);

  /// Execute one instruction; returns it (for tracing).
  Instr step();
  /// Run `max_instructions` steps and return the observable trace.
  ArchTrace run(unsigned max_instructions);

  std::uint32_t pc() const { return pc_; }
  std::uint32_t reg(unsigned r) const { return r == 0 ? 0 : rf_[r]; }
  void set_reg(unsigned r, std::uint32_t v) {
    if (r != 0) rf_[r] = v;
  }
  const SparseMemory& dmem() const { return dmem_; }
  const std::vector<MemWrite>& writes() const { return writes_; }
  std::uint64_t instructions_retired() const { return retired_; }

 private:
  std::uint32_t fetch(std::uint32_t pc) const;

  std::vector<std::uint32_t> imem_;
  std::array<std::uint32_t, 32> rf_{};
  SparseMemory dmem_;
  std::uint32_t pc_ = 0;
  std::vector<MemWrite> writes_;
  std::uint64_t retired_ = 0;
};

/// Convenience: run the spec simulator for `n` instructions.
ArchTrace spec_run(const TestCase& tc, unsigned n);

}  // namespace hltg
