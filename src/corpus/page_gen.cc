#include "corpus/page_gen.h"

#include <algorithm>

#include "entity/phone.h"
#include "extract/attribute_registry.h"
#include "html/char_ref.h"
#include "text/review_lm.h"
#include "util/hash.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/string_util.h"

namespace wsd {

namespace {

// Salt separating the per-site annotation stream from the page-rendering
// stream: adoption decisions must not perturb the bytes of non-annotated
// channels (legacy corpora stay bit-identical).
constexpr uint64_t kAnnotationSeedSalt = 0x616e6e6f74ULL;  // "annot"

// Page layout family. Real directory sites render listings as blocks,
// table rows, or bullet lists; the extractor must handle all of them
// (and the tokenizer gets exercised on all three element families).
enum class PageLayout : int {
  kDivBlocks = 0,
  kTableRows = 1,
  kBulletList = 2,
  kNumLayouts = 3,
};

// Emits one listing entry for an entity: name, city, and the identifying
// attribute in a randomly chosen surface form (via the channel's registry
// render hook), in the page's layout. `annotation` is the site's schema.org
// annotation mode bits (0 for channels without explicit markup).
void RenderMention(const AttributeSpec& spec, const Entity& e,
                   uint32_t annotation, PageLayout layout, Rng& rng,
                   std::string* out) {
  switch (layout) {
    case PageLayout::kDivBlocks:
      out->append("<div class=\"listing\"><h3>");
      html::EscapeHtmlInto(e.name, out);
      out->append("</h3><p class=\"meta\">");
      html::EscapeHtmlInto(e.city, out);
      spec.render_mention(e, rng, annotation, out);
      out->append("</p></div>\n");
      break;
    case PageLayout::kTableRows:
      out->append("<tr><td>");
      html::EscapeHtmlInto(e.name, out);
      out->append("</td><td>");
      html::EscapeHtmlInto(e.city, out);
      out->append("</td><td>");
      spec.render_mention(e, rng, annotation, out);
      out->append("</td></tr>\n");
      break;
    case PageLayout::kBulletList:
      out->append("<li><b>");
      html::EscapeHtmlInto(e.name, out);
      out->append("</b>, ");
      html::EscapeHtmlInto(e.city, out);
      spec.render_mention(e, rng, annotation, out);
      out->append("</li>\n");
      break;
    case PageLayout::kNumLayouts:
      break;
  }
}

void OpenLayout(PageLayout layout, std::string* out) {
  if (layout == PageLayout::kTableRows) {
    out->append("<table class=\"listings\">\n");
  } else if (layout == PageLayout::kBulletList) {
    out->append("<ul class=\"listings\">\n");
  }
}

void CloseLayout(PageLayout layout, std::string* out) {
  if (layout == PageLayout::kTableRows) {
    out->append("</table>\n");
  } else if (layout == PageLayout::kBulletList) {
    out->append("</ul>\n");
  }
}

// Distractor content: digit strings shaped like identifiers but (almost
// surely) absent from the catalog, plus off-site links. The extractor has
// to reject these.
void RenderDistractor(Attribute attr, Rng& rng, std::string* out) {
  switch (rng.Uniform(3)) {
    case 0:
      out->append("<p>Order confirmation #");
      AppendZeroPadded(out, rng.Uniform(10000000000ULL), 1);
      out->append("</p>\n");
      break;
    case 1:
      if (attr == Attribute::kIsbn) {
        // A 13-digit number with no ISBN context/checksum.
        out->append("<p>Tracking id ");
        AppendZeroPadded(out, 1000000000000ULL + rng.Uniform(999999999ULL),
                         1);
        out->append("</p>\n");
      } else {
        // A valid-looking phone that is not in the catalog w.h.p.
        out->append("<p>Fax: ");
        RandomPhone(rng).FormatInto(PhoneFormat::kDashed, out);
        out->append("</p>\n");
      }
      break;
    default:
      out->append("<p><a href=\"http://partner-network.example.com/ads\">"
                  "Sponsored</a> &bull; updated daily</p>\n");
      break;
  }
}

void RenderPageHead(const std::string& host, uint32_t page_index,
                    std::string* out) {
  out->append("<!DOCTYPE html>\n<html><head><title>");
  html::EscapeHtmlInto(host, out);
  out->append(" &ndash; page ");
  AppendZeroPadded(out, page_index, 1);
  out->append("</title><meta charset=\"utf-8\"></head>\n<body>\n"
              "<div class=\"nav\"><a href=\"/\">Home</a> | "
              "<a href=\"/about.html\">About</a></div>\n");
}

void RenderPageFoot(std::string* out) {
  out->append("<div class=\"footer\">&copy; local directory &mdash; all "
              "rights reserved</div>\n</body></html>\n");
}

}  // namespace

PageGenerator::PageGenerator(const DomainCatalog& catalog,
                             const SiteEntityModel& model,
                             const PageGenOptions& options, uint64_t seed)
    : catalog_(catalog), model_(model), options_(options), seed_(seed) {
  WSD_CHECK(model.num_entities() == catalog.size())
      << "model and catalog disagree on entity count";
}

uint32_t PageGenerator::CountPages(SiteId s) const {
  const uint32_t mentions = model_.site_size(s);
  if (mentions == 0) return 0;
  if (GetAttributeSpec(options_.attr).review_channel) {
    // One page per (entity, mention_page).
    uint32_t pages = 0;
    for (const SiteMention* m = model_.site_begin(s); m != model_.site_end(s);
         ++m) {
      pages += m->mention_pages;
    }
    return pages;
  }
  const uint32_t per_page = mentions >= options_.head_site_threshold
                                ? options_.mentions_per_page_head
                                : options_.mentions_per_page_tail;
  return (mentions + per_page - 1) / per_page;
}

void PageGenerator::GeneratePages(
    SiteId s,
    const std::function<void(const Page&, const PageTruth&)>& sink) const {
  Page scratch;
  GeneratePages(s, &scratch,
                [&](const Page& p, const PageTruth& t) { sink(p, t); });
}

uint32_t PageGenerator::SiteAnnotation(SiteId s) const {
  const AttributeSpec& spec = GetAttributeSpec(options_.attr);
  if (spec.site_annotation == nullptr) return 0;
  Rng rng(HashCombine(seed_ ^ kAnnotationSeedSalt, MixHash64(s + 1)));
  return spec.site_annotation(model_.site_size(s), rng);
}

uint32_t PageGenerator::GeneratePages(
    SiteId s, Page* scratch,
    FunctionRef<void(const Page&, const PageTruth&)> sink) const {
  // Per-site deterministic stream: the same (seed, site) renders the same
  // bytes regardless of visit order, which keeps the parallel scan
  // reproducible.
  Rng rng(HashCombine(seed_, MixHash64(s + 1)));
  const AttributeSpec& spec = GetAttributeSpec(options_.attr);
  const uint32_t annotation = SiteAnnotation(s);
  const std::string& host = model_.host(s);
  const SiteMention* begin = model_.site_begin(s);
  const SiteMention* end = model_.site_end(s);
  if (begin == end) return 0;

  Page& page = *scratch;
  PageTruth truth;
  truth.site = s;

  if (spec.review_channel) {
    uint32_t page_index = 0;
    for (const SiteMention* m = begin; m != end; ++m) {
      const Entity& e = catalog_.entity(m->entity);
      for (uint16_t rep = 0; rep < m->mention_pages; ++rep) {
        const bool is_review = rng.Bernoulli(options_.review_fraction);
        page.url.assign("http://");
        page.url.append(host);
        page.url.append("/biz/");
        AppendZeroPadded(&page.url, m->entity, 1);
        page.url.push_back('-');
        AppendZeroPadded(&page.url, rep, 1);
        page.url.append(".html");
        page.html.clear();
        RenderPageHead(host, page_index, &page.html);
        RenderMention(spec, e, annotation, PageLayout::kDivBlocks, rng,
                      &page.html);
        page.html.append("<div class=\"content\"><p>");
        // The prose is written straight into the page and escaped there.
        const size_t prose = page.html.size();
        if (is_review) {
          text::GenerateReviewTextInto(rng, e.name, &page.html);
        } else {
          text::GenerateBoilerplateTextInto(rng, e.name, &page.html);
        }
        html::EscapeHtmlInPlace(&page.html, prose);
        page.html.append("</p></div>\n");
        if (rng.Bernoulli(options_.distractor_prob)) {
          RenderDistractor(options_.attr, rng, &page.html);
        }
        RenderPageFoot(&page.html);
        truth.page_index = page_index++;
        truth.is_review_page = is_review;
        sink(page, truth);
      }
    }
    return page_index;
  }

  const uint32_t mentions = static_cast<uint32_t>(end - begin);
  const uint32_t per_page = mentions >= options_.head_site_threshold
                                ? options_.mentions_per_page_head
                                : options_.mentions_per_page_tail;
  uint32_t page_index = 0;
  for (uint32_t i = 0; i < mentions; i += per_page, ++page_index) {
    const uint32_t count = std::min(per_page, mentions - i);
    page.url.assign("http://");
    page.url.append(host);
    page.url.append("/page");
    AppendZeroPadded(&page.url, page_index, 1);
    page.url.append(".html");
    page.html.clear();
    RenderPageHead(host, page_index, &page.html);
    const auto layout = static_cast<PageLayout>(
        rng.Uniform(static_cast<uint64_t>(PageLayout::kNumLayouts)));
    OpenLayout(layout, &page.html);
    uint32_t distractors = 0;
    for (uint32_t j = 0; j < count; ++j) {
      RenderMention(spec, catalog_.entity(begin[i + j].entity), annotation,
                    layout, rng, &page.html);
      if (rng.Bernoulli(options_.distractor_prob)) {
        // Keep table/list markup well-formed: block-level distractors go
        // after the listing container.
        if (layout == PageLayout::kDivBlocks) {
          RenderDistractor(options_.attr, rng, &page.html);
        } else {
          ++distractors;
        }
      }
    }
    CloseLayout(layout, &page.html);
    for (uint32_t d = 0; d < distractors; ++d) {
      RenderDistractor(options_.attr, rng, &page.html);
    }
    if (spec.render_page_epilogue != nullptr) {
      // The explicit-markup channel's JSON-LD block covering this page's
      // entity slice (no-op unless the site adopted JSON-LD).
      spec.render_page_epilogue(catalog_, begin + i, count, annotation, rng,
                                &page.html);
    }
    RenderPageFoot(&page.html);
    truth.page_index = page_index;
    truth.is_review_page = false;
    sink(page, truth);
  }
  return page_index;
}

}  // namespace wsd
