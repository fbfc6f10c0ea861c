#include "corpus/web_cache.h"

#include <cstring>
#include <fstream>

#include "extract/attribute_registry.h"
#include "util/metrics.h"

namespace wsd {

StatusOr<SyntheticWeb> SyntheticWeb::Create(const Config& config) {
  if (config.num_entities == 0) {
    return Status::InvalidArgument("num_entities must be >= 1");
  }
  // The renderer needs the channel's identifier on every entity; a
  // catalog without it (books have no phones) is refused here.
  WSD_RETURN_IF_ERROR(CheckAttributeApplies(config.attr, config.domain));
  SyntheticWeb web;
  web.config_ = config;

  auto catalog = DomainCatalog::Build(config.domain, config.num_entities,
                                      config.seed);
  if (!catalog.ok()) return catalog.status();
  web.catalog_ =
      std::make_unique<DomainCatalog>(std::move(catalog).value());

  const SpreadParams params =
      config.spread.value_or(DefaultSpreadParams(config.domain, config.attr));
  auto model = SiteEntityModel::Build(*web.catalog_, params,
                                      config.seed ^ 0x5eedf00dULL);
  if (!model.ok()) return model.status();
  web.model_ = std::make_unique<SiteEntityModel>(std::move(model).value());

  PageGenOptions page_options = config.page_options;
  page_options.attr = config.attr;
  web.generator_ = std::make_unique<PageGenerator>(
      *web.catalog_, *web.model_, page_options,
      config.seed ^ 0x9a6e5ULL);
  return web;
}

void SyntheticWeb::GeneratePages(
    SiteId s,
    const std::function<void(const Page&, const PageTruth&)>& sink) const {
  Page scratch;
  GeneratePages(s, &scratch,
                [&](const Page& p, const PageTruth& t) { sink(p, t); });
}

uint32_t SyntheticWeb::GeneratePages(
    SiteId s, Page* scratch,
    FunctionRef<void(const Page&, const PageTruth&)> sink) const {
  static Counter& pages_rendered =
      MetricsRegistry::Global().GetCounter("wsd.corpus.pages_rendered");
  const uint32_t rendered = generator_->GeneratePages(s, scratch, sink);
  pages_rendered.Increment(rendered);
  return rendered;
}

struct WebCacheWriter::Impl {
  std::ofstream out;
};

namespace {
constexpr char kCacheMagic[] = "WSDCACHE1\n";
constexpr size_t kCacheMagicLen = sizeof(kCacheMagic) - 1;

void PutU32(uint32_t v, std::ofstream& out) {
  char buf[4] = {static_cast<char>(v & 0xff),
                 static_cast<char>((v >> 8) & 0xff),
                 static_cast<char>((v >> 16) & 0xff),
                 static_cast<char>((v >> 24) & 0xff)};
  out.write(buf, 4);
}

// Result of reading a 4-byte length prefix: distinguishes a clean EOF
// (no bytes) from a truncated record (1-3 bytes).
enum class ReadU32 { kOk, kCleanEof, kTruncated };

ReadU32 GetU32(std::ifstream& in, uint32_t* v) {
  unsigned char buf[4];
  if (!in.read(reinterpret_cast<char*>(buf), 4)) {
    return in.gcount() == 0 ? ReadU32::kCleanEof : ReadU32::kTruncated;
  }
  *v = static_cast<uint32_t>(buf[0]) | (static_cast<uint32_t>(buf[1]) << 8) |
       (static_cast<uint32_t>(buf[2]) << 16) |
       (static_cast<uint32_t>(buf[3]) << 24);
  return ReadU32::kOk;
}
}  // namespace

Status WebCacheWriter::Open(const std::string& path) {
  impl_ = std::make_shared<Impl>();
  impl_->out.open(path, std::ios::out | std::ios::trunc | std::ios::binary);
  if (!impl_->out.is_open()) {
    return Status::IOError("cannot open cache for writing: " + path);
  }
  impl_->out.write(kCacheMagic, static_cast<std::streamsize>(kCacheMagicLen));
  pages_written_ = 0;
  return Status::OK();
}

Status WebCacheWriter::Append(const Page& page) {
  if (!impl_ || !impl_->out.is_open()) {
    return Status::FailedPrecondition("cache writer is not open");
  }
  if (page.url.size() > UINT32_MAX || page.html.size() > UINT32_MAX) {
    return Status::InvalidArgument("page too large for cache format");
  }
  PutU32(static_cast<uint32_t>(page.url.size()), impl_->out);
  PutU32(static_cast<uint32_t>(page.html.size()), impl_->out);
  impl_->out.write(page.url.data(),
                   static_cast<std::streamsize>(page.url.size()));
  impl_->out.write(page.html.data(),
                   static_cast<std::streamsize>(page.html.size()));
  if (!impl_->out.good()) return Status::IOError("cache write failure");
  ++pages_written_;
  static Counter& cache_pages_written =
      MetricsRegistry::Global().GetCounter("wsd.cache.pages_written");
  cache_pages_written.Increment();
  return Status::OK();
}

Status WebCacheWriter::Close() {
  if (!impl_ || !impl_->out.is_open()) return Status::OK();
  impl_->out.flush();
  const bool good = impl_->out.good();
  impl_->out.close();
  if (!good) return Status::IOError("cache flush failure");
  return Status::OK();
}

Status ReadWebCache(const std::string& path,
                    const std::function<void(const Page&)>& sink) {
  auto& reg = MetricsRegistry::Global();
  static Counter& open_hits = reg.GetCounter("wsd.cache.open_hits");
  static Counter& open_misses = reg.GetCounter("wsd.cache.open_misses");
  static Counter& pages_read = reg.GetCounter("wsd.cache.pages_read");
  std::ifstream in(path, std::ios::in | std::ios::binary);
  if (!in.is_open()) {
    open_misses.Increment();
    return Status::IOError("cannot open cache for reading: " + path);
  }
  char magic[16];
  in.read(magic, static_cast<std::streamsize>(kCacheMagicLen));
  if (!in || std::memcmp(magic, kCacheMagic, kCacheMagicLen) != 0) {
    open_misses.Increment();
    return Status::Corruption("bad web cache magic in " + path);
  }
  open_hits.Increment();
  Page page;
  uint64_t streamed = 0;  // merged into the registry once per file
  while (true) {
    uint32_t url_len = 0, html_len = 0;
    const ReadU32 first = GetU32(in, &url_len);
    if (first == ReadU32::kCleanEof) break;
    if (first == ReadU32::kTruncated ||
        GetU32(in, &html_len) != ReadU32::kOk) {
      return Status::Corruption("truncated cache record in " + path);
    }
    page.url.resize(url_len);
    page.html.resize(html_len);
    if (!in.read(page.url.data(), url_len) ||
        !in.read(page.html.data(), html_len)) {
      pages_read.Increment(streamed);
      return Status::Corruption("truncated cache payload in " + path);
    }
    ++streamed;
    sink(page);
  }
  pages_read.Increment(streamed);
  return Status::OK();
}

}  // namespace wsd
