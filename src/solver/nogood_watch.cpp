#include "solver/nogood_watch.h"

#include <algorithm>

#include "solver/nogoods.h"

namespace hltg {

void NogoodWatcher::attach(std::uint32_t wi, int lit_idx) {
  const ImplicationEngine::NodeId nd =
      ngs_[wi].nodes[static_cast<std::size_t>(lit_idx)];
  std::uint32_t& li = list_of_[nd];
  if (li == kNoList) {
    li = static_cast<std::uint32_t>(lists_used_++);
    if (li == lists_.size()) lists_.emplace_back();
    touched_.push_back(nd);
  }
  lists_[li].push_back(wi);
}

void NogoodWatcher::rebuild(const NogoodStore& store) {
  for (const ImplicationEngine::NodeId nd : touched_) list_of_[nd] = kNoList;
  for (std::size_t i = 0; i < lists_used_; ++i) lists_[i].clear();
  lists_used_ = 0;
  touched_.clear();
  ngs_.clear();
  parked_.clear();
  if (list_of_.empty()) list_of_.assign(eng_.node(0, eng_.cycles()), kNoList);
  cursor_ = eng_.trail().size();

  std::uint64_t scratch = 0;  // registration probes are not "comparisons"
  for (std::size_t i = 0; i < store.size(); ++i) {
    const std::vector<Lit>& lits = store.lits(i);
    bool fits = true;
    for (const Lit& l : lits)
      if (l.cycle >= eng_.cycles()) {
        fits = false;
        break;
      }
    if (!fits) continue;
    Watched w;
    w.lits = lits;
    w.nodes.reserve(lits.size());
    for (const Lit& l : lits) w.nodes.push_back(eng_.node(l.gate, l.cycle));
    w.store_idx = i;
    w.store_id = store.id(i);
    const std::uint32_t wi = static_cast<std::uint32_t>(ngs_.size());
    ngs_.push_back(std::move(w));
    // Pick two non-holding literals to watch against the post-reset values;
    // a nogood without two (unit or fully held under the reset fixpoint)
    // parks until the first propagate() deals with it.
    Watched& reg = ngs_.back();
    int a = -1, b = -1;
    for (int j = 0; j < static_cast<int>(reg.lits.size()) && b < 0; ++j)
      if (state(reg, j, &scratch) != LS::kHolds) (a < 0 ? a : b) = j;
    if (b >= 0) {
      reg.w1 = a;
      reg.w2 = b;
      attach(wi, a);
      attach(wi, b);
    } else {
      parked_.push_back(wi);
    }
  }
}

void NogoodWatcher::add(const std::vector<Lit>& lits, std::size_t store_idx,
                        std::uint64_t store_id) {
  bool fits = true;
  for (const Lit& l : lits)
    if (l.cycle >= eng_.cycles()) {
      fits = false;
      break;
    }
  if (!fits) return;
  Watched w;
  w.lits = lits;
  w.nodes.reserve(lits.size());
  for (const Lit& l : lits) w.nodes.push_back(eng_.node(l.gate, l.cycle));
  w.store_idx = store_idx;
  w.store_id = store_id;
  ngs_.push_back(std::move(w));
  // A cut learned mid-solve is fully held at learn time: park it; the
  // parked scan watches or fires it once the search has backtracked.
  parked_.push_back(static_cast<std::uint32_t>(ngs_.size() - 1));
}

bool NogoodWatcher::fire(const Watched& w, int open, NogoodStore& store,
                         std::uint64_t* hits) {
  ++*hits;
  store.touch_if(w.store_idx, w.store_id);
  const std::size_t target = open >= 0 ? static_cast<std::size_t>(open) : 0;
  ante_buf_.clear();
  for (std::size_t j = 0; j < w.nodes.size(); ++j)
    if (j != target) ante_buf_.push_back(w.nodes[j]);
  const Lit& t = w.lits[target];
  if (!eng_.imply_from_nogood(t.gate, t.cycle, !t.value, ante_buf_))
    return false;
  return eng_.propagate();
}

bool NogoodWatcher::scan_parked(std::uint32_t wi, NogoodStore& store,
                                std::uint64_t* hits, std::uint64_t* comparisons,
                                bool* fired, bool* established) {
  Watched& w = ngs_[wi];
  int a = -1, b = -1, open = -1;
  bool broken = false;
  for (int j = 0; j < static_cast<int>(w.lits.size()); ++j) {
    const LS s = state(w, j, comparisons);
    if (s == LS::kHolds) continue;
    if (a < 0)
      a = j;
    else if (b < 0)
      b = j;
    if (s == LS::kBroken)
      broken = true;
    else
      open = j;
  }
  if (b >= 0) {
    // Two non-holding literals: establish the watch pair and unpark.
    w.w1 = a;
    w.w2 = b;
    attach(wi, a);
    attach(wi, b);
    *established = true;
    return true;
  }
  if (broken) return true;  // satisfied: stays parked, nothing to do
  // Unit (one free literal) or fully held: fire exactly like the rescan.
  *fired = true;
  return fire(w, open, store, hits);
}

bool NogoodWatcher::propagate(NogoodStore& store, std::uint64_t* hits,
                              std::uint64_t* comparisons) {
  const std::vector<ImplicationEngine::NodeId>& trail = eng_.trail();
  for (;;) {
    // With no watch lists no trail entry can wake a nogood.
    if (lists_used_ == 0) cursor_ = trail.size();
    while (cursor_ < trail.size()) {
      const ImplicationEngine::NodeId nd = trail[cursor_++];
      const std::uint32_t li = list_of_[nd];
      if (li == kNoList) continue;
      // Index lists_ afresh after attach(): a new list may move the pool.
      for (std::size_t k = 0; k < lists_[li].size();) {
        const std::uint32_t wi = lists_[li][k];
        Watched& w = ngs_[wi];
        const int j = w.nodes[static_cast<std::size_t>(w.w1)] == nd ? w.w1
                                                                    : w.w2;
        const int o = j == w.w1 ? w.w2 : w.w1;
        if (state(w, j, comparisons) != LS::kHolds) {
          ++k;  // assignment broke the literal: nogood satisfied
          continue;
        }
        if (state(w, o, comparisons) == LS::kBroken) {
          ++k;  // satisfied via the other watch (lazy invariant case)
          continue;
        }
        // Hunt a replacement non-holding literal to watch instead.
        int repl = -1;
        for (int r = 0; r < static_cast<int>(w.lits.size()); ++r) {
          if (r == w.w1 || r == w.w2) continue;
          if (state(w, r, comparisons) != LS::kHolds) {
            repl = r;
            break;
          }
        }
        if (repl >= 0) {
          (j == w.w1 ? w.w1 : w.w2) = repl;
          attach(wi, repl);
          std::vector<std::uint32_t>& wl = lists_[li];
          wl[k] = wl.back();  // detach from this node's list
          wl.pop_back();
          continue;
        }
        // Every literal but the other watch holds: unit or conflict.
        const LS os = state(w, o, comparisons);
        if (!fire(w, os == LS::kFree ? o : -1, store, hits)) return false;
        ++k;
      }
    }
    // Trail drained: give the parked (freshly learned / reset-unit)
    // nogoods their legacy-style scan. Any firing extends the trail, so
    // loop back around until nothing moves.
    bool fired = false;
    for (std::size_t p = 0; p < parked_.size();) {
      bool established = false;
      if (!scan_parked(parked_[p], store, hits, comparisons, &fired,
                       &established))
        return false;
      if (established) {
        parked_[p] = parked_.back();
        parked_.pop_back();
      } else {
        ++p;
      }
    }
    if (!fired && cursor_ >= trail.size()) return true;
  }
}

}  // namespace hltg
