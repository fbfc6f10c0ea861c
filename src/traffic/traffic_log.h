#ifndef WSD_TRAFFIC_TRAFFIC_LOG_H_
#define WSD_TRAFFIC_TRAFFIC_LOG_H_

#include <cstdint>
#include <functional>
#include <string>

#include "traffic/review_model.h"
#include "traffic/url_patterns.h"
#include "util/rng.h"

namespace wsd {

/// Which log a visit event belongs to: one year of Yahoo! Search clicks
/// vs. one year of Yahoo! Toolbar browsing (§4.1).
enum class TrafficChannel : int {
  kSearch = 0,
  kBrowse = 1,
};

/// One click on an entity URL by an (anonymized) cookie.
struct VisitEvent {
  uint64_t cookie = 0;
  uint8_t month = 0;  // 0-11
  TrafficChannel channel = TrafficChannel::kSearch;
  std::string url;
};

/// Knobs of the log simulator.
struct TrafficLogOptions {
  /// Mean extra repeat visits by the same cookie to the same entity
  /// within a month (search) / year (browse); drives the unique-cookie
  /// dedup that the demand estimator must perform.
  double repeat_visit_rate = 0.35;
  /// Fraction of events whose URL is noise (non-entity pages, malformed
  /// paths) that the estimator must skip.
  double noise_url_fraction = 0.02;
};

/// Streams one year of synthetic visit events for a site population.
/// Event counts per entity are Poisson with the population's latent
/// intensity (popularity for search, browse_intensity for browse), split
/// across 12 months. Deterministic in `seed`; events arrive grouped by
/// entity (the estimator must not rely on any global order, and tests
/// shuffle them).
class TrafficLogGenerator {
 public:
  TrafficLogGenerator(const SitePopulation& population,
                      const TrafficLogOptions& options, uint64_t seed)
      : population_(population), options_(options), seed_(seed) {}

  /// Emits every event of `channel` into `sink`.
  void Generate(TrafficChannel channel,
                const std::function<void(const VisitEvent&)>& sink) const;

  /// Expected event count of `channel`: the summed intensities times the
  /// mean repeats and noise per visit. traffic_test checks Generate's
  /// counts against it.
  double ExpectedEvents(TrafficChannel channel) const;

 private:
  const SitePopulation& population_;
  TrafficLogOptions options_;
  uint64_t seed_;
};

}  // namespace wsd

#endif  // WSD_TRAFFIC_TRAFFIC_LOG_H_
