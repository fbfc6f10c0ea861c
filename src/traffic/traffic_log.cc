#include "traffic/traffic_log.h"

#include <algorithm>

#include "util/hash.h"
#include "util/string_util.h"

namespace wsd {

namespace {

// Noise URLs that must be skipped by the demand estimator: same hosts,
// non-entity paths. Written into *out (replacing its contents, reusing
// capacity) like EntityUrlInto.
void NoiseUrlInto(TrafficSite site, Rng& rng, std::string* out) {
  out->clear();
  switch (site) {
    case TrafficSite::kAmazon:
      if (rng.Bernoulli(0.5)) {
        out->append("http://www.amazon.com/gp/help/customer/display.html");
      } else {
        out->append("http://www.amazon.com/s?k=query");
        AppendZeroPadded(out, rng.Uniform(100000), 1);
      }
      return;
    case TrafficSite::kYelp:
      out->append(rng.Bernoulli(0.5)
                      ? "http://www.yelp.com/search?find_desc=pizza"
                      : "http://www.yelp.com/events");
      return;
    case TrafficSite::kImdb:
      if (rng.Bernoulli(0.5)) {
        out->append("http://www.imdb.com/chart/top");
      } else {
        out->append("http://www.imdb.com/name/nm");
        AppendZeroPadded(out, rng.Uniform(9999999), 7);
        out->push_back('/');
      }
      return;
    case TrafficSite::kNumSites:
      break;
  }
  out->append("http://example.com/");
}

// Capacity reserved for each reused URL buffer. The longest URL rendered
// here is 55 bytes (an Amazon /dp/ URL with a 10-digit index), so after
// the reserve generation allocates nothing.
constexpr size_t kUrlCapacity = 64;

}  // namespace

double TrafficLogGenerator::ExpectedEvents(TrafficChannel channel) const {
  const auto& intensity = channel == TrafficChannel::kSearch
                              ? population_.popularity
                              : population_.browse_intensity;
  double total = 0.0;
  for (double x : intensity) total += x;
  return total * (1.0 + options_.repeat_visit_rate) *
         (1.0 + options_.noise_url_fraction);
}

void TrafficLogGenerator::Generate(
    TrafficChannel channel,
    const std::function<void(const VisitEvent&)>& sink) const {
  const auto& intensity = channel == TrafficChannel::kSearch
                              ? population_.popularity
                              : population_.browse_intensity;
  const TrafficSite site = population_.params.site;
  Rng rng(HashCombine(seed_, static_cast<uint64_t>(channel) + 1));

  // One entity event and one noise event, reused for every click.
  VisitEvent event;
  event.channel = channel;
  event.url.reserve(kUrlCapacity);
  VisitEvent noise;
  noise.channel = channel;
  noise.url.reserve(kUrlCapacity);
  const uint32_t n = static_cast<uint32_t>(intensity.size());
  for (uint32_t entity = 0; entity < n; ++entity) {
    // Unique visitors, each returning 1 + Poisson(repeat) times. Search
    // repeats land in the visitor's month (within-month dedup matters);
    // browse repeats spread over the year (yearly dedup).
    const uint64_t visitors = rng.Poisson(intensity[entity]);
    for (uint64_t v = 0; v < visitors; ++v) {
      const uint64_t cookie = rng.Next() | 1;  // 0 reserved
      const uint8_t first_month = static_cast<uint8_t>(rng.Uniform(12));
      const uint64_t repeats = rng.Poisson(options_.repeat_visit_rate);
      for (uint64_t r = 0; r <= repeats; ++r) {
        event.cookie = cookie;
        event.month = channel == TrafficChannel::kSearch
                          ? first_month
                          : static_cast<uint8_t>(rng.Uniform(12));
        EntityUrlInto(site, entity, static_cast<uint32_t>(rng.Uniform(2)),
                      &event.url);
        sink(event);
        if (rng.Bernoulli(options_.noise_url_fraction)) {
          noise.cookie = event.cookie;
          noise.month = event.month;
          NoiseUrlInto(site, rng, &noise.url);
          sink(noise);
        }
      }
    }
  }
}

}  // namespace wsd
