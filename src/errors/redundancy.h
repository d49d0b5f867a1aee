// Redundant (provably undetectable) bus-SSL error identification.
//
// A stuck-at-v error on a line that can only ever carry v is undetectable -
// the classic redundancy notion of ATPG carried over to design errors. We
// prove lines constant with a conservative forward constant-bit dataflow
// over the datapath (zero-extension upper bits, constant operands through
// word gates, registers whose feed always matches their reset value, ...).
// TestGenerator::generate runs both proofs before it searches and reports an
// accepted error as proven_redundant, apart from genuine aborts: that
// answers the paper's open question about its 46 aborted errors for our
// model.
#pragma once

#include <cstdint>
#include <vector>

#include "errors/bus_ssl.h"
#include "netlist/netlist.h"

namespace hltg {

struct BitConstants {
  /// known[n] bit b set => that line's value is provably constant.
  std::vector<std::uint64_t> known;
  /// value[n] gives the constant value on known bits.
  std::vector<std::uint64_t> value;

  bool is_known(NetId n, unsigned bit) const {
    return (known[n] >> bit) & 1;
  }
  bool known_value(NetId n, unsigned bit) const {
    return (value[n] >> bit) & 1;
  }
};

/// Conservative constant-bit analysis (fixpoint over the sequential
/// netlist; CTRL nets and state reads are unknown).
BitConstants analyze_bit_constants(const Netlist& nl);

/// Per-net observable-bit masks: bit b of net n is set iff a change on that
/// line could possibly reach an observation point (DPO, memory port,
/// register-file port, or a status signal feeding the controller). This is
/// the bit-level counterpart of the O-state pre-pass: an optimistic
/// *backward* dataflow, so a clear bit is a *proof* of unobservability
/// (e.g. the upper bits of the load-extraction shifter, which only ever
/// feed byte/halfword slices).
struct ObservableBits {
  std::vector<std::uint64_t> mask;
  bool is_observable(NetId n, unsigned bit) const {
    return (mask[n] >> bit) & 1;
  }
};

ObservableBits analyze_observable_bits(const Netlist& nl);

/// True iff the error is provably undetectable: the line is constant at the
/// stuck value, or no value change on the line can reach an observation
/// point.
bool is_redundant(const BitConstants& bc, const BusSslError& e);
bool is_redundant(const BitConstants& bc, const ObservableBits& ob,
                  const BusSslError& e);

/// Partition an error list: returns the redundant subset (both proofs).
std::vector<BusSslError> redundant_subset(const Netlist& nl,
                                          const std::vector<BusSslError>& v);

}  // namespace hltg
