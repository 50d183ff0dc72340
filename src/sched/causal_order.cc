#include "sched/causal_order.h"

#include <string>

#include "common/errors.h"

namespace djvu::sched {

CausalOrder::Shard& CausalOrder::shard(SectionKey key) {
  // splitmix64 finalizer, as in GlobalCounter::stripe_index.
  std::uint64_t x = key;
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return shards_[x % kShards];
}

CausalOrder::Ticket CausalOrder::resolve(SectionKey key) {
  Shard& s = shard(key);
  std::lock_guard<std::mutex> lock(s.mutex);
  auto& cell = s.cells[key];
  if (!cell) cell = std::make_unique<TurnCell>(0);
  Ticket t;
  t.cell_ = cell.get();
  return t;
}

void CausalOrder::retire(SectionKey key) {
  Shard& s = shard(key);
  std::lock_guard<std::mutex> lock(s.mutex);
  const auto it = s.cells.find(key);
  if (it != s.cells.end()) it->second->store(0, std::memory_order_relaxed);
}

void CausalOrder::throw_passed(SectionKey key, std::uint64_t seq,
                               std::uint64_t count) {
  throw ReplayDivergenceError(
      "causal replay passed its turn on key " + std::to_string(key) +
          ": recorded per-key seq " + std::to_string(seq) + " but " +
          std::to_string(count) +
          " same-key events already published — the per-key order and the "
          "execution disagree",
      DivergenceCause::kCounterPassed);
}

}  // namespace djvu::sched
