#include "traffic/demand.h"

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <utility>

#include "util/hash.h"
#include "util/logging.h"

namespace wsd {

DemandEstimator::DemandEstimator(TrafficSite site, uint32_t num_entities)
    : site_(site), num_entities_(num_entities) {}

void DemandEstimator::Consume(const VisitEvent& event) {
  ++consumed_;
  const auto key = ParseEntityUrl(event.url);
  if (!key.has_value() || key->site != site_ ||
      key->entity_index >= num_entities_) {
    ++skipped_;
    return;
  }
  if (event.channel == TrafficChannel::kSearch) {
    search_keys_.push_back({key->entity_index, event.month, event.cookie});
  } else {
    browse_keys_.push_back({key->entity_index, 0xff, event.cookie});
  }
}

DemandTable DemandEstimator::Finalize() {
  DemandTable table;
  table.site = site_;
  table.events_consumed = consumed_;
  table.events_skipped = skipped_;
  table.search_demand.assign(num_entities_, 0.0);
  table.browse_demand.assign(num_entities_, 0.0);

  // Unique (month, cookie) keys per entity, without a global sort:
  //  1. count the keys of each entity, so its run starts at start[e];
  //  2. partition the keys by entity in place (American flag sort:
  //     McIlroy, Bostic and McIlroy, "Engineering Radix Sort", Computing
  //     Systems 6(1), 1993). Each swap drops one key into its entity's
  //     run; the generator's entity-grouped logs need almost none;
  //  3. insert each run's keys into an open-addressing table of run
  //     offsets (linear probing) and count the keys not already there.
  //     The table's size is the power of two >= twice the run's length,
  //     so it is at most half full; it is cleared per run and reused by
  //     every run of both channels.
  // Extra space is two words per entity and four bytes per table slot;
  // the keys are never copied.
  const size_t n = num_entities_;
  std::vector<size_t> start(n + 1);
  std::vector<size_t> head(n);
  constexpr uint32_t kEmpty = UINT32_MAX;
  std::vector<uint32_t> slots;
  auto dedupe_count = [&](std::vector<Key>& keys, std::vector<double>& out) {
    WSD_CHECK(keys.size() < kEmpty);  // run offsets fit below kEmpty
    std::fill(start.begin(), start.end(), size_t{0});
    for (const Key& k : keys) ++start[size_t{k.entity} + 1];
    for (size_t e = 0; e < n; ++e) start[e + 1] += start[e];
    std::copy(start.begin(), start.begin() + n, head.begin());
    for (size_t e = 0; e < n; ++e) {
      while (head[e] < start[e + 1]) {
        Key k = keys[head[e]];
        while (k.entity != e) std::swap(k, keys[head[k.entity]++]);
        keys[head[e]++] = k;
      }
    }
    for (size_t e = 0; e < n; ++e) {
      const Key* const run = keys.data() + start[e];
      const uint32_t len = static_cast<uint32_t>(start[e + 1] - start[e]);
      if (len == 0) continue;
      const size_t mask = std::bit_ceil(size_t{2} * len) - 1;
      if (slots.size() <= mask) slots.resize(mask + 1);
      std::fill_n(slots.begin(), mask + 1, kEmpty);
      uint32_t distinct = 0;
      for (uint32_t i = 0; i < len; ++i) {
        const Key& k = run[i];
        size_t s = MixHash64(k.cookie ^ (uint64_t{k.month} << 56)) & mask;
        for (;; s = (s + 1) & mask) {
          const uint32_t j = slots[s];
          if (j == kEmpty) {
            slots[s] = i;
            ++distinct;
            break;
          }
          if (run[j].month == k.month && run[j].cookie == k.cookie) break;
        }
      }
      out[e] = distinct;
    }
    keys.clear();
    keys.shrink_to_fit();
  };
  dedupe_count(search_keys_, table.search_demand);
  dedupe_count(browse_keys_, table.browse_demand);
  return table;
}

}  // namespace wsd
