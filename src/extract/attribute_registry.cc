#include "extract/attribute_registry.h"

#include <cmath>
#include <iterator>
#include <string>

#include "entity/isbn.h"
#include "entity/phone.h"
#include "extract/isbn_extractor.h"
#include "extract/matcher.h"
#include "extract/microdata_extractor.h"
#include "extract/phone_extractor.h"
#include "html/char_ref.h"
#include "util/logging.h"
#include "util/metrics.h"
#include "util/rng.h"
#include "util/string_util.h"

namespace wsd {

namespace {

// ---------------------------------------------------------------------------
// Calibrated default web-model parameters (moved here from site_model.cc:
// the registry is the one place that knows per-channel behaviour).

// Relative ordering of Table 2's connected-component counts: Home & Garden
// has thousands, Retail hundreds, Books hundreds, the rest dozens or fewer.
double IsolatedFractionFor(Domain d) {
  switch (d) {
    case Domain::kHomeGarden:
      return 0.005;
    case Domain::kRetail:
      return 0.0025;
    case Domain::kBooks:
      return 0.0015;
    case Domain::kRestaurants:
    case Domain::kSchools:
      return 0.001;
    case Domain::kBanks:
      return 0.0006;
    case Domain::kHotels:
      return 0.0005;
    case Domain::kAutomotive:
      return 0.0004;
    case Domain::kLibraries:
      return 0.0002;
    case Domain::kNumDomains:
      break;
  }
  return 0.001;
}

// Table 2 "Avg. #sites per entity", phone rows.
double PhoneMeanDegree(Domain d) {
  switch (d) {
    case Domain::kAutomotive:
      return 13;
    case Domain::kBanks:
      return 22;
    case Domain::kHomeGarden:
      return 13;
    case Domain::kHotels:
      return 56;
    case Domain::kLibraries:
      return 47;
    case Domain::kRestaurants:
      return 32;
    case Domain::kRetail:
      return 19;
    case Domain::kSchools:
      return 37;
    default:
      return 32;
  }
}

// Table 2 "Avg. #sites per entity", homepage rows.
double HomepageMeanDegree(Domain d) {
  switch (d) {
    case Domain::kAutomotive:
      return 115;
    case Domain::kBanks:
      return 68;
    case Domain::kHomeGarden:
      return 20;
    case Domain::kHotels:
      return 56;
    case Domain::kLibraries:
      return 251;
    case Domain::kRestaurants:
      return 46;
    case Domain::kRetail:
      return 45;
    case Domain::kSchools:
      return 74;
    default:
      return 46;
  }
}

SpreadParams PhoneSpread(Domain domain) {
  SpreadParams p;
  p.isolated_fraction = IsolatedFractionFor(domain);
  p.num_sites = 12000;
  p.flat_alpha = 0.7;
  p.head_alpha = 1.1;
  p.head_bias = 0.70;
  p.mean_degree = PhoneMeanDegree(domain);
  p.degree_sigma = 1.05;
  p.mention_extra = 0.3;
  p.head_degree_ref = 4.0;
  return p;
}

SpreadParams HomepageSpread(Domain domain) {
  SpreadParams p;
  p.isolated_fraction = IsolatedFractionFor(domain) * 1.2;
  p.num_sites = 20000;
  p.flat_alpha = 0.45;
  p.head_alpha = 1.2;
  p.head_bias = 0.30;
  p.mean_degree = HomepageMeanDegree(domain);
  p.degree_sigma = 1.8;
  p.mention_extra = 0.2;
  return p;
}

SpreadParams IsbnSpread(Domain domain) {
  SpreadParams p;
  p.isolated_fraction = IsolatedFractionFor(domain);
  p.num_sites = 12000;
  p.flat_alpha = 0.7;
  p.head_alpha = 1.05;
  p.head_bias = 0.70;
  p.mean_degree = 8;
  p.degree_sigma = 0.95;
  p.mention_extra = 0.2;
  p.head_degree_ref = 4.0;
  return p;
}

SpreadParams ReviewsSpread(Domain domain) {
  SpreadParams p;
  p.isolated_fraction = IsolatedFractionFor(domain);
  p.num_sites = 12000;
  p.flat_alpha = 0.55;
  p.head_alpha = 1.1;
  p.head_bias = 0.55;
  p.mean_degree = 8;
  p.degree_sigma = 0.8;
  // Multiple review pages about the same restaurant on one site are
  // common, and far more so on head aggregators; drives the Fig 4(b)
  // page-level series.
  p.mention_extra = 1.2;
  p.head_page_boost = 5.0;
  // Local-only restaurants reviewed exclusively on tail blogs: the
  // reason 90% 1-coverage needs >1000 sites (Fig 4a).
  p.local_fraction = 0.08;
  return p;
}

// The microdata channel annotates the same underlying business web the
// phone channel measures — the ground-truth assignment is phone-shaped;
// what changes is which sites expose it in explicit markup.
SpreadParams MicrodataSpread(Domain domain) { return PhoneSpread(domain); }

// ---------------------------------------------------------------------------
// Mention rendering (moved here from page_gen.cc's RenderAttribute switch).
// Phones render through Phone::FormatInto and ISBNs through FormatIsbnInto,
// straight into the page buffer — so no heap allocation per mention.

void PhoneRenderMention(const Entity& e, Rng& rng, uint32_t /*annotation*/,
                        std::string* out) {
  const auto format = static_cast<PhoneFormat>(
      rng.Uniform(static_cast<uint64_t>(PhoneFormat::kNumFormats)));
  out->append(" &middot; Call ");
  e.phone.FormatInto(format, out);
}

void HomepageRenderMention(const Entity& e, Rng& /*rng*/,
                           uint32_t /*annotation*/, std::string* out) {
  out->append(" &middot; <a href=\"http://www.");
  out->append(e.homepage_host);
  out->append("/\">Visit website</a>");
}

void IsbnRenderMention(const Entity& e, Rng& rng, uint32_t /*annotation*/,
                       std::string* out) {
  const auto style = static_cast<IsbnStyle>(
      rng.Uniform(static_cast<uint64_t>(IsbnStyle::kNumStyles)));
  out->append(" &middot; ISBN ");
  FormatIsbnInto(e.isbn13, style, out);
}

// Rewrites the parentheses in (*out)[pos..] as character references,
// which the extractor must decode before phone matching (exercises
// DecodeCharRefsInto on the microdata path).
void CharRefEncodeParens(size_t pos, std::string* out) {
  for (size_t i = pos; i < out->size(); ++i) {
    const char c = (*out)[i];
    if (c == '(' || c == ')') {
      out->replace(i, 1, c == '(' ? "&#40;" : "&#41;");
      i += 4;
    }
  }
}

void MicrodataRenderMention(const Entity& e, Rng& rng, uint32_t annotation,
                            std::string* out) {
  const auto format = static_cast<PhoneFormat>(
      rng.Uniform(static_cast<uint64_t>(PhoneFormat::kNumFormats)));
  if ((annotation & kAnnotateMicrodata) == 0) {
    // Non-adopting (or JSON-LD-only) site: the phone is visible text with
    // no markup, invisible to the explicit-markup extractor — this is
    // what makes the measured spread adoption-filtered.
    out->append(" &middot; Call ");
    e.phone.FormatInto(format, out);
    return;
  }
  out->append(
      " &middot; <span itemscope "
      "itemtype=\"https://schema.org/LocalBusiness\"><span "
      "itemprop=\"name\">");
  html::EscapeHtmlInto(e.name, out);
  out->append("</span> <span itemprop=\"telephone\">");
  const size_t phone = out->size();
  e.phone.FormatInto(format, out);
  if (format == PhoneFormat::kParenthesized && rng.Bernoulli(0.25)) {
    CharRefEncodeParens(phone, out);
  }
  out->append("</span></span>");
}

// ---------------------------------------------------------------------------
// Site-level schema.org adoption (the WDC calibration: large sites
// annotate more).

uint32_t MicrodataSiteAnnotation(uint32_t site_mentions, Rng& rng) {
  if (site_mentions == 0) return 0;
  // Logistic in log2(site size): ~4% of 1-mention sites adopt, 50% at 32
  // mentions, ~96% at 1024 — mirroring WDC's finding that adoption is
  // concentrated on large sites.
  const double x = std::log2(static_cast<double>(site_mentions));
  const double p = 1.0 / (1.0 + std::exp(-(x - 5.0) / 1.6));
  if (!rng.Bernoulli(p)) return 0;
  // Adopters split across syntaxes (both-syntax sites are common on the
  // real web: JSON-LD added next to legacy microdata).
  const double pick = rng.NextDouble();
  if (pick < 0.45) return kAnnotateMicrodata;
  if (pick < 0.75) return kAnnotateJsonLd;
  return kAnnotateMicrodata | kAnnotateJsonLd;
}

// ---------------------------------------------------------------------------
// JSON-LD page epilogue.

void AppendJsonEscaped(std::string_view s, std::string* out) {
  for (const char c : s) {
    switch (c) {
      case '"':
        out->append("\\\"");
        break;
      case '\\':
        out->append("\\\\");
        break;
      case '\n':
        out->append("\\n");
        break;
      case '\t':
        out->append("\\t");
        break;
      default:
        // Other control characters never occur in generated names/cities.
        out->push_back(c);
        break;
    }
  }
}

void MicrodataRenderPageEpilogue(const DomainCatalog& catalog,
                                 const SiteMention* mentions, uint32_t count,
                                 uint32_t annotation, Rng& rng,
                                 std::string* out) {
  if ((annotation & kAnnotateJsonLd) == 0 || count == 0) return;
  out->append(
      "<script type=\"application/ld+json\">\n"
      "{\"@context\":\"https://schema.org\",\"@graph\":[");
  for (uint32_t i = 0; i < count; ++i) {
    const Entity& e = catalog.entity(mentions[i].entity);
    if (i != 0) out->push_back(',');
    out->append("\n{\"@type\":\"LocalBusiness\",\"name\":\"");
    AppendJsonEscaped(e.name, out);
    out->append("\",\"address\":\"");
    AppendJsonEscaped(e.city, out);
    out->append("\",\"telephone\":\"");
    const auto format = static_cast<PhoneFormat>(
        rng.Uniform(static_cast<uint64_t>(PhoneFormat::kNumFormats)));
    // Digits, spaces and ()+-. need no JSON escaping.
    e.phone.FormatInto(format, out);
    out->append("\"}");
  }
  out->append("]}\n</script>\n");
}

// ---------------------------------------------------------------------------
// Match hooks (moved here from matcher.cc's MatchPageInto switch).

void PhoneMatchInto(const DomainCatalog& catalog, std::string_view content,
                    MatchScratch* /*scratch*/,
                    FunctionRef<void(EntityId)> sink) {
  ExtractPhonesInto(content, [&](const PhoneMatch& m) {
    const EntityId id = catalog.FindByPhone(m.digits);
    if (id != kInvalidEntityId) sink(id);
  });
}

void IsbnMatchInto(const DomainCatalog& catalog, std::string_view content,
                   MatchScratch* /*scratch*/,
                   FunctionRef<void(EntityId)> sink) {
  ExtractIsbnsInto(content, [&](const IsbnMatch& m) {
    const EntityId id = catalog.FindByIsbn13(m.isbn13);
    if (id != kInvalidEntityId) sink(id);
  });
}

void HomepageMatchInto(const DomainCatalog& catalog, std::string_view content,
                       MatchScratch* scratch,
                       FunctionRef<void(EntityId)> sink) {
  ExtractHrefsInto(content, &scratch->href, [&](const HrefMatch& m) {
    const EntityId id = catalog.FindByHomepage(m.canonical);
    if (id != kInvalidEntityId) sink(id);
  });
}

void MicrodataMatchInto(const DomainCatalog& catalog,
                        std::string_view content, MatchScratch* scratch,
                        FunctionRef<void(EntityId)> sink) {
  static Counter& micro_values =
      MetricsRegistry::Global().GetCounter("wsd.scan.microdata.values");
  static Counter& jsonld_values =
      MetricsRegistry::Global().GetCounter(
          "wsd.scan.microdata.jsonld_values");
  const auto match_value = [&](std::string_view value) {
    ExtractPhonesInto(value, [&](const PhoneMatch& m) {
      const EntityId id = catalog.FindByPhone(m.digits);
      if (id != kInvalidEntityId) sink(id);
    });
  };
  uint64_t micro = 0;
  uint64_t jsonld = 0;
  ExtractMicrodataInto(content, &scratch->micro, [&](std::string_view v) {
    ++micro;
    match_value(v);
  });
  ExtractJsonLdInto(content, &scratch->micro, [&](std::string_view v) {
    ++jsonld;
    match_value(v);
  });
  if (micro != 0) micro_values.Increment(micro);
  if (jsonld != 0) jsonld_values.Increment(jsonld);
}

// ---------------------------------------------------------------------------
// The table. One row per channel, wire-id order. This TU is the only
// place allowed to switch on Attribute (lint: attr-switch-outside-registry).

// A channel applies to the domains whose catalogs carry its identifier
// (Table 1): ISBNs for books; phones and homepages for the local-business
// listings.
constexpr uint32_t kAllDomainsMask = (1u << kNumDomains) - 1;
constexpr uint32_t kBooksMask = 1u << static_cast<int>(Domain::kBooks);
constexpr uint32_t kLocalBusinessMask = kAllDomainsMask & ~kBooksMask;

const AttributeSpec kSpecs[] = {
    {
        .attr = Attribute::kIsbn,
        .wire_id = 0,
        .name = "isbn",
        .display_name = "ISBN",
        .applicable_domains = kBooksMask,
        .review_channel = false,
        .scan_raw_html = false,
        .min_snapshot_version = 2,  // kSnapshotSchemaVersionAligned
        .default_spread = &IsbnSpread,
        .render_mention = &IsbnRenderMention,
        .site_annotation = nullptr,
        .render_page_epilogue = nullptr,
        .match_into = &IsbnMatchInto,
    },
    {
        .attr = Attribute::kPhone,
        .wire_id = 1,
        .name = "phone",
        .display_name = "phone",
        .applicable_domains = kLocalBusinessMask,
        .review_channel = false,
        .scan_raw_html = false,
        .min_snapshot_version = 2,
        .default_spread = &PhoneSpread,
        .render_mention = &PhoneRenderMention,
        .site_annotation = nullptr,
        .render_page_epilogue = nullptr,
        .match_into = &PhoneMatchInto,
    },
    {
        .attr = Attribute::kHomepage,
        .wire_id = 2,
        .name = "homepage",
        .display_name = "homepage",
        .applicable_domains = kLocalBusinessMask,
        .review_channel = false,
        .scan_raw_html = true,  // anchors are parsed from the raw HTML
        .min_snapshot_version = 2,
        .default_spread = &HomepageSpread,
        .render_mention = &HomepageRenderMention,
        .site_annotation = nullptr,
        .render_page_epilogue = nullptr,
        .match_into = &HomepageMatchInto,
    },
    {
        .attr = Attribute::kReviews,
        .wire_id = 3,
        .name = "reviews",
        .display_name = "reviews",
        .applicable_domains = kLocalBusinessMask,
        .review_channel = true,
        .scan_raw_html = false,
        .min_snapshot_version = 2,
        .default_spread = &ReviewsSpread,
        .render_mention = &PhoneRenderMention,  // review pages carry phones
        .site_annotation = nullptr,
        .render_page_epilogue = nullptr,
        .match_into = &PhoneMatchInto,
    },
    {
        .attr = Attribute::kMicrodata,
        .wire_id = 4,
        .name = "microdata",
        .display_name = "microdata",
        .applicable_domains = kLocalBusinessMask,  // schema.org/LocalBusiness
        .review_channel = false,
        .scan_raw_html = true,  // markup lives in tags, not visible text
        .min_snapshot_version = 3,  // v1/v2 readers reject fail-closed
        .default_spread = &MicrodataSpread,
        .render_mention = &MicrodataRenderMention,
        .site_annotation = &MicrodataSiteAnnotation,
        .render_page_epilogue = &MicrodataRenderPageEpilogue,
        .match_into = &MicrodataMatchInto,
    },
};

static_assert(std::size(kSpecs) ==
                  static_cast<size_t>(Attribute::kNumAttributes),
              "every Attribute enumerator needs a registry row");

}  // namespace

const AttributeSpec& GetAttributeSpec(Attribute a) {
  const auto i = static_cast<size_t>(a);
  WSD_CHECK(i < std::size(kSpecs)) << "invalid attribute";
  WSD_DCHECK(kSpecs[i].attr == a && kSpecs[i].wire_id == i);
  return kSpecs[i];
}

std::span<const AttributeSpec> AllAttributeSpecs() { return kSpecs; }

const AttributeSpec* FindAttributeByName(std::string_view name) {
  for (const AttributeSpec& spec : kSpecs) {
    if (EqualsIgnoreCase(spec.name, name)) return &spec;
  }
  return nullptr;
}

std::string AttributeVocabulary(char separator) {
  std::string out;
  for (const AttributeSpec& spec : kSpecs) {
    if (!out.empty()) out += separator;
    out += spec.name;
  }
  return out;
}

const AttributeSpec* FindAttributeByWireId(uint32_t wire_id) {
  for (const AttributeSpec& spec : kSpecs) {
    if (spec.wire_id == wire_id) return &spec;
  }
  return nullptr;
}

Status CheckAttributeApplies(Attribute attr, Domain d) {
  if (AttributeApplicableTo(GetAttributeSpec(attr), d)) return Status::OK();
  return Status::InvalidArgument(std::string(AttributeName(attr)) +
                                 " does not apply to domain " +
                                 std::string(DomainName(d)));
}

std::string_view AttributeName(Attribute a) {
  const auto i = static_cast<size_t>(a);
  if (i >= std::size(kSpecs)) return "unknown";
  return kSpecs[i].display_name;
}

}  // namespace wsd
