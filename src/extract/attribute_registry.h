#ifndef WSD_EXTRACT_ATTRIBUTE_REGISTRY_H_
#define WSD_EXTRACT_ATTRIBUTE_REGISTRY_H_

#include <cstdint>
#include <span>
#include <string>
#include <string_view>

#include "corpus/site_model.h"
#include "entity/domains.h"
#include "util/function_ref.h"
#include "util/status.h"

namespace wsd {

class Rng;
struct MatchScratch;

/// Site annotation mode bits returned by AttributeSpec::site_annotation.
/// A site that adopted explicit markup renders it as microdata
/// (itemscope/itemprop on the listing HTML), JSON-LD
/// (<script type="application/ld+json"> blocks), or both.
inline constexpr uint32_t kAnnotateMicrodata = 1u << 0;
inline constexpr uint32_t kAnnotateJsonLd = 1u << 1;

/// One extraction channel, described as data + hooks. This is the single
/// registration point for everything that used to be an `Attribute` switch
/// across corpus/extract/store/serve/core: adding a channel means adding
/// one enumerator to `Attribute` and one row to the table in
/// attribute_registry.cc — no other TU may switch on the enum (lint rule
/// `attr-switch`).
struct AttributeSpec {
  Attribute attr = Attribute::kNumAttributes;

  /// Stable on-disk/on-wire id (== the enumerator value; append-only).
  uint32_t wire_id = 0;

  /// Lowercase query vocabulary used by wsdctl flags and the serve layer
  /// (`?attr=...`).
  std::string_view name;

  /// Display form used in reports and metric names ("ISBN", "phone", ...).
  std::string_view display_name;

  /// Bitmask over Domain enumerators: which domains the channel applies
  /// to, i.e. whose catalogs carry the identifier its pages render (a
  /// book has no phone or homepage, a business no ISBN).
  /// Any other domain is refused with InvalidArgument
  /// (CheckAttributeApplies).
  uint32_t applicable_domains = 0;

  /// Channel renders one page per (entity, mention) with prose, and the
  /// scan needs a ReviewDetector (the paper's review study).
  bool review_channel = false;

  /// Matcher consumes the raw page HTML instead of extracted visible text
  /// (anchor hrefs, schema.org markup).
  bool scan_raw_html = false;

  /// Lowest snapshot schema version whose readers know this wire id.
  /// Snapshots of the channel are serialized at this version; older
  /// readers reject them fail-closed.
  uint32_t min_snapshot_version = 2;

  /// Calibrated default web-model parameters (Table 2 mean degrees etc).
  SpreadParams (*default_spread)(Domain domain) = nullptr;

  /// Renders the attribute part of one listing mention into *out.
  /// `annotation` is the site's annotation mode bits (0 for channels
  /// without explicit markup). Must not allocate beyond *out's growth.
  void (*render_mention)(const Entity& e, Rng& rng, uint32_t annotation,
                         std::string* out) = nullptr;

  /// Site-level adoption decision: returns annotation mode bits for a
  /// site with `site_mentions` ground-truth mentions. Null for channels
  /// without explicit markup (annotation is then 0). Draws only from the
  /// dedicated annotation rng stream, never the page stream.
  uint32_t (*site_annotation)(uint32_t site_mentions, Rng& rng) = nullptr;

  /// Renders a per-page epilogue (e.g. the JSON-LD block) covering the
  /// page's mention slice. Null when the channel has none.
  void (*render_page_epilogue)(const DomainCatalog& catalog,
                               const SiteMention* mentions, uint32_t count,
                               uint32_t annotation, Rng& rng,
                               std::string* out) = nullptr;

  /// Match hook: extracts the channel's identifiers from `content` (visible
  /// text, or raw HTML when scan_raw_html) and resolves them against
  /// `catalog`, emitting every hit (unsorted, possibly duplicated) into
  /// `sink`. Zero steady-state allocations given a warm *scratch.
  void (*match_into)(const DomainCatalog& catalog, std::string_view content,
                     MatchScratch* scratch,
                     FunctionRef<void(EntityId)> sink) = nullptr;
};

/// The registry row for `a`. `a` must be a valid enumerator (not
/// kNumAttributes); checked.
const AttributeSpec& GetAttributeSpec(Attribute a);

/// All registered channels in wire-id order.
std::span<const AttributeSpec> AllAttributeSpecs();

/// Lookup by query-vocabulary name ("phone", "microdata", ...), ignoring
/// case. Returns nullptr when unknown.
const AttributeSpec* FindAttributeByName(std::string_view name);

/// Every query-vocabulary name in wire-id order, joined by `separator`,
/// for help and error text.
std::string AttributeVocabulary(char separator);

/// Lookup by stable wire id. Returns nullptr when unknown.
const AttributeSpec* FindAttributeByWireId(uint32_t wire_id);

/// Whether channel `spec` applies to domain `d`.
inline bool AttributeApplicableTo(const AttributeSpec& spec, Domain d) {
  return (spec.applicable_domains & (1u << static_cast<int>(d))) != 0;
}

/// OK when channel `attr` applies to domain `d`; otherwise
/// InvalidArgument "<attr> does not apply to domain <Domain>". Every path
/// that answers a pair checks this first: a web build, a cache-file scan
/// and an artifact-store lookup.
[[nodiscard]] Status CheckAttributeApplies(Attribute attr, Domain d);

}  // namespace wsd

#endif  // WSD_EXTRACT_ATTRIBUTE_REGISTRY_H_
