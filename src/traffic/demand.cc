#include "traffic/demand.h"

#include <algorithm>
#include <cstddef>
#include <utility>

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
  //  3. sort each run by (month, cookie) and count its distinct keys.
  // Extra space is two words per entity; the keys are never copied.
  const size_t n = num_entities_;
  std::vector<size_t> start(n + 1);
  std::vector<size_t> head(n);
  auto dedupe_count = [&](std::vector<Key>& keys, std::vector<double>& out) {
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
      Key* const first = keys.data() + start[e];
      Key* const last = keys.data() + start[e + 1];
      std::sort(first, last, [](const Key& a, const Key& b) {
        if (a.month != b.month) return a.month < b.month;
        return a.cookie < b.cookie;
      });
      for (const Key* k = first; k != last; ++k) {
        const bool dup = k != first && k[-1].month == k->month &&
                         k[-1].cookie == k->cookie;
        if (!dup) out[e] += 1.0;
      }
    }
    keys.clear();
    keys.shrink_to_fit();
  };
  dedupe_count(search_keys_, table.search_demand);
  dedupe_count(browse_keys_, table.browse_demand);
  return table;
}

}  // namespace wsd
