#include "traffic/demand.h"

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "util/hash.h"
#include "util/logging.h"

namespace wsd {

DemandEstimator::DemandEstimator(TrafficSite site, uint32_t num_entities)
    : site_(site), num_entities_(num_entities) {}

const std::optional<EntityUrlKey>& DemandEstimator::Parse(
    std::string_view url) {
  for (const ParsedUrl& parsed : parsed_) {
    if (parsed.url == url) return parsed.key;
  }
  ParsedUrl& parsed = parsed_[next_parsed_];
  next_parsed_ = (next_parsed_ + 1) % parsed_.size();
  parsed.url.assign(url);
  parsed.key = ParseEntityUrl(url);
  return parsed.key;
}

void DemandEstimator::Consume(const VisitEvent& event) {
  ++consumed_;
  const std::optional<EntityUrlKey>& key = Parse(event.url);
  if (!key.has_value() || key->site != site_ ||
      key->entity_index >= num_entities_) {
    ++skipped_;
    return;
  }
  if (event.channel == TrafficChannel::kSearch) {
    search_keys_.Keep(key->entity_index, event.month, event.cookie);
  } else {
    browse_keys_.Keep(key->entity_index, 0, event.cookie);
  }
}

void DemandEstimator::KeyLog::Keep(uint32_t entity, uint8_t month,
                                   uint64_t cookie) {
  if (size() > 0 && cookies.back() == cookie && entities.back() == entity &&
      (!with_month || months.back() == month)) {
    return;
  }
  cookies.PushBack(cookie);
  entities.PushBack(entity);
  if (with_month) months.PushBack(month);
}

void DemandEstimator::CountDistinct(KeyLog& log,
                                    std::vector<double>* out) const {
  // Unique (month, cookie) keys per entity, without a global sort:
  //  1. count the keys of each entity, so its run starts at start[e];
  //  2. partition the keys by entity in place (American flag sort:
  //     McIlroy, Bostic and McIlroy, "Engineering Radix Sort", Computing
  //     Systems 6(1), 1993). Each swap drops one key into its entity's
  //     run; the generator's entity-grouped logs need almost none;
  //  3. insert each run's keys into an open-addressing table of key
  //     indices (linear probing) and count the keys not already there.
  //     The table's size is the power of two >= twice the run's length,
  //     so it is at most half full; it is cleared per run and reused by
  //     every run.
  // Extra space is two 4-byte offsets per entity and four bytes per table
  // slot; the keys are never copied.
  constexpr uint32_t kEmpty = UINT32_MAX;
  WSD_CHECK(log.size() < kEmpty);  // key indices fit below kEmpty
  const size_t n = num_entities_;
  out->assign(n, 0.0);
  std::vector<uint32_t> start(n + 1, 0);
  for (size_t i = 0; i < log.size(); ++i) ++start[size_t{log.entities[i]} + 1];
  for (size_t e = 0; e < n; ++e) start[e + 1] += start[e];

  struct Key {
    uint64_t cookie;
    uint32_t entity;
    uint8_t month;
  };
  auto load = [&log](size_t i) {
    return Key{log.cookies[i], log.entities[i], log.month(i)};
  };
  auto store = [&log](size_t i, const Key& k) {
    log.cookies[i] = k.cookie;
    log.entities[i] = k.entity;
    if (log.with_month) log.months[i] = k.month;
  };
  std::vector<uint32_t> head(start.begin(), start.end() - 1);
  for (size_t e = 0; e < n; ++e) {
    for (; head[e] < start[e + 1]; ++head[e]) {
      if (log.entities[head[e]] == e) continue;
      Key k = load(head[e]);
      while (k.entity != e) {
        const size_t to = head[k.entity]++;
        const Key displaced = load(to);
        store(to, k);
        k = displaced;
      }
      store(head[e], k);
    }
  }

  std::vector<uint32_t> slots;
  for (size_t e = 0; e < n; ++e) {
    const uint32_t begin = start[e];
    const uint32_t len = start[e + 1] - begin;
    if (len == 0) continue;
    const size_t mask = std::bit_ceil(size_t{2} * len) - 1;
    if (slots.size() <= mask) slots.resize(mask + 1);
    std::fill_n(slots.begin(), mask + 1, kEmpty);
    uint32_t distinct = 0;
    for (uint32_t i = begin; i < begin + len; ++i) {
      const uint64_t cookie = log.cookies[i];
      const uint8_t month = log.month(i);
      size_t s = MixHash64(cookie ^ (uint64_t{month} << 56)) & mask;
      for (;; s = (s + 1) & mask) {
        const uint32_t j = slots[s];
        if (j == kEmpty) {
          slots[s] = i;
          ++distinct;
          break;
        }
        if (log.cookies[j] == cookie && log.month(j) == month) break;
      }
    }
    (*out)[e] = distinct;
  }
  log.cookies.Release();
  log.entities.Release();
  log.months.Release();
}

DemandTable DemandEstimator::Finalize() {
  DemandTable table;
  table.site = site_;
  table.events_consumed = consumed_;
  table.events_skipped = skipped_;
  CountDistinct(search_keys_, &table.search_demand);
  CountDistinct(browse_keys_, &table.browse_demand);
  return table;
}

}  // namespace wsd
