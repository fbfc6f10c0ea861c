#ifndef WSD_TRAFFIC_DEMAND_H_
#define WSD_TRAFFIC_DEMAND_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "traffic/traffic_log.h"
#include "traffic/url_patterns.h"
#include "util/statusor.h"

namespace wsd {

/// Estimated demand per entity of one site: "we use unique (anonymized)
/// cookies as a proxy for unique users, and define the demand for a URL
/// (and hence the entity it mentions) as the number of visits from unique
/// cookies" (§4.1). Search demand deduplicates cookies per month; browse
/// demand per year (the paper's footnote 2).
struct DemandTable {
  TrafficSite site = TrafficSite::kYelp;
  std::vector<double> search_demand;  // per entity
  std::vector<double> browse_demand;  // per entity
  uint64_t events_consumed = 0;
  /// Events counted in no demand: URLs that parse as no entity, another
  /// site's entity URLs, and entity indices past the population.
  uint64_t events_skipped = 0;
};

/// Accumulates visit events (any order, both channels interleaved) and
/// produces per-entity demand estimates.
///
/// The last two distinct URLs parsed are kept with their ParseEntityUrl
/// results, compared by bytes and replaced round robin, so a click on
/// either skips only the parse: the site and range checks and the skip
/// count run on every click. An entity's clicks carry at most two
/// distinct URLs, and the generator emits them back to back.
///
/// Each kept click costs 13 bytes on the search channel (cookie, entity,
/// month) and 12 on the browse channel, in fixed-size blocks. A click
/// equal to the last one kept on its channel (same entity, month byte and
/// cookie) is not kept: a repeat never changes a distinct count, and the
/// generator emits a visitor's repeat clicks back to back.
class DemandEstimator {
 public:
  /// Keys per block of each key array.
  static constexpr size_t kKeysPerBlock = 16384;

  DemandEstimator(TrafficSite site, uint32_t num_entities);

  void Consume(const VisitEvent& event);

  /// Deduplicates and aggregates, freeing each channel's keys once it is
  /// counted. The estimator is spent afterwards.
  DemandTable Finalize();

 private:
  /// A growable array of T in blocks of kKeysPerBlock elements: growing
  /// never moves an element, and only the last block is partly filled.
  template <typename T>
  class BlockArray {
   public:
    size_t size() const { return size_; }
    T& operator[](size_t i) {
      return blocks_[i / kKeysPerBlock][i % kKeysPerBlock];
    }
    T& back() { return (*this)[size_ - 1]; }
    void PushBack(T value) {
      if (size_ == blocks_.size() * kKeysPerBlock) {
        blocks_.push_back(std::make_unique_for_overwrite<T[]>(kKeysPerBlock));
      }
      (*this)[size_++] = value;
    }
    /// Frees every block.
    void Release() {
      blocks_.clear();
      blocks_.shrink_to_fit();
      size_ = 0;
    }

   private:
    std::vector<std::unique_ptr<T[]>> blocks_;
    size_t size_ = 0;
  };

  /// One channel's keys as parallel arrays. Browse keys carry no month
  /// (browse demand deduplicates the year), so their month reads as 0.
  struct KeyLog {
    explicit KeyLog(bool with_month) : with_month(with_month) {}
    size_t size() const { return cookies.size(); }
    uint8_t month(size_t i) { return with_month ? months[i] : 0; }
    /// Keeps (entity, month, cookie) unless it repeats the last key kept.
    void Keep(uint32_t entity, uint8_t month, uint64_t cookie);

    const bool with_month;
    BlockArray<uint64_t> cookies;
    BlockArray<uint32_t> entities;
    BlockArray<uint8_t> months;  // with_month only
  };

  /// Counts each entity's distinct keys of `log` into `out`, then frees
  /// the log.
  void CountDistinct(KeyLog& log, std::vector<double>* out) const;

  /// ParseEntityUrl(url), from the memo when `url` is one of the last two
  /// distinct URLs parsed.
  const std::optional<EntityUrlKey>& Parse(std::string_view url);

  /// A URL and its ParseEntityUrl result. Both start empty, which is
  /// what an empty URL parses to.
  struct ParsedUrl {
    std::string url;
    std::optional<EntityUrlKey> key;
  };

  TrafficSite site_;
  uint32_t num_entities_;
  std::array<ParsedUrl, 2> parsed_;
  size_t next_parsed_ = 0;  // slot the next miss replaces
  KeyLog search_keys_{true};
  KeyLog browse_keys_{false};
  uint64_t consumed_ = 0;
  uint64_t skipped_ = 0;
};

}  // namespace wsd

#endif  // WSD_TRAFFIC_DEMAND_H_
