#include "solver/relax_cache.h"

#include "util/fnv.h"

namespace hltg {

namespace {

void put(RelaxCache::Key& k, std::uint64_t v) { k.words.push_back(v); }

void put_str(RelaxCache::Key& k, const std::string& s) {
  put(k, s.size());
  std::uint64_t word = 0;
  unsigned n = 0;
  for (const char c : s) {
    word = (word << 8) | static_cast<unsigned char>(c);
    if (++n == 8) {
      put(k, word);
      word = 0;
      n = 0;
    }
  }
  if (n) put(k, word);
}

}  // namespace

RelaxCache::Key RelaxCache::make_key(
    const DpRelaxConfig& cfg, const RelaxVars& vars,
    const std::vector<RelaxConstraint>& constraints,
    const ErrorInjection& inj) {
  Key k;
  k.words.reserve(64);
  put(k, cfg.seed);
  put(k, cfg.max_iterations);
  put(k, cfg.max_depth);

  put(k, constraints.size());
  for (const RelaxConstraint& c : constraints) {
    put(k, static_cast<std::uint64_t>(c.kind));
    put(k, static_cast<std::uint64_t>(c.net));
    put(k, c.cycle);
    put(k, c.mask);
    put(k, c.value);
    put(k, static_cast<std::uint64_t>(c.net2));
    put_str(k, c.why);
  }

  put(k, vars.imem.size());
  for (const std::uint32_t w : vars.imem) put(k, w);
  put(k, vars.imem_fixed.size());
  for (const std::uint32_t w : vars.imem_fixed) put(k, w);
  for (const std::uint32_t r : vars.rf_init) put(k, r);
  put(k, vars.mem_init.size());
  for (const auto& [addr, val] : vars.mem_init) {
    put(k, addr);
    put(k, val);
  }

  put(k, inj.stuck.size());
  for (const StuckLine& s : inj.stuck) {
    put(k, static_cast<std::uint64_t>(s.net));
    put(k, s.bit);
    put(k, s.stuck_value ? 1 : 0);
  }
  put(k, inj.substitute.size());
  for (const auto& [mod, kind] : inj.substitute) {
    put(k, static_cast<std::uint64_t>(mod));
    put(k, static_cast<std::uint64_t>(kind));
  }
  put(k, inj.swap_inputs.size());
  for (const ModId m : inj.swap_inputs) put(k, static_cast<std::uint64_t>(m));
  put(k, inj.rewire.size());
  for (const auto& [slot, net] : inj.rewire) {
    put(k, static_cast<std::uint64_t>(slot.first));
    put(k, slot.second);
    put(k, static_cast<std::uint64_t>(net));
  }
  return k;
}

std::uint64_t RelaxCache::hash_key(const Key& k) { return fnv_words(k.words); }

const RelaxCache::Exported* RelaxCache::lookup(const Key& key,
                                               std::uint64_t h) const {
  const auto [lo, hi] = index_.equal_range(h);
  for (auto it = lo; it != hi; ++it)
    if (entries_[it->second].key == key) return &entries_[it->second];
  return nullptr;
}

bool RelaxCache::find(const Key& key, DpRelaxResult* result,
                      RelaxVars* vars) const {
  const Exported* e = lookup(key, hash_key(key));
  if (!e) return false;
  *result = e->result;
  *vars = e->vars;
  return true;
}

void RelaxCache::store(const Key& key, const DpRelaxResult& result,
                       const RelaxVars& vars) {
  if (result.abort != AbortReason::kNone) return;
  const std::uint64_t h = hash_key(key);
  if (lookup(key, h)) return;  // first writer wins
  index_.emplace(h, entries_.size());
  entries_.push_back({key, result, vars});
}

}  // namespace hltg
