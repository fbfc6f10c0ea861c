#include "trace.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common.h"
#include "util/mutex.h"

namespace perfbench {

namespace {

struct SpanRecord {
  const char* name;
  uint64_t id;
  uint64_t parent;
  uint64_t run;
  int64_t start_ns;
  int64_t end_ns;
};

// Stored spans are capped so a long traced run cannot exhaust memory;
// totals keep counting past the cap.
constexpr uint64_t kMaxStoredSpans = 400000;

// One per thread that ever closed a span. Owned by the global list and
// never freed, so a thread_local pointer to it stays valid.
struct ThreadBuffer {
  uint32_t tid = 0;
  mutable wsd::Mutex mu;
  std::unordered_map<const char*, SpanTotals> totals GUARDED_BY(mu);
  std::vector<SpanRecord> records GUARDED_BY(mu);
};

struct Registry {
  wsd::Mutex mu;
  std::vector<std::unique_ptr<ThreadBuffer>> buffers GUARDED_BY(mu);
  std::atomic<uint64_t> next_id{1};
  std::atomic<uint64_t> stored{0};
  std::atomic<uint64_t> dropped{0};
  std::atomic<bool> enabled{false};
  const int64_t epoch_ns = NowNs();
};

Registry& Reg() {
  static Registry* registry = new Registry;
  return *registry;
}

thread_local Span* tl_top = nullptr;
thread_local ThreadBuffer* tl_buffer = nullptr;

ThreadBuffer& Buffer() {
  if (tl_buffer == nullptr) {
    Registry& reg = Reg();
    wsd::MutexLock lock(reg.mu);
    reg.buffers.push_back(std::make_unique<ThreadBuffer>());
    reg.buffers.back()->tid = static_cast<uint32_t>(reg.buffers.size());
    tl_buffer = reg.buffers.back().get();
  }
  return *tl_buffer;
}

}  // namespace

Tracer& Tracer::Get() {
  static Tracer tracer;
  return tracer;
}

void Tracer::set_enabled(bool on) { Reg().enabled.store(on); }

std::map<std::string, SpanTotals> Tracer::Totals() const {
  std::map<std::string, SpanTotals> out;
  Registry& reg = Reg();
  wsd::MutexLock lock(reg.mu);
  for (const auto& buffer : reg.buffers) {
    wsd::MutexLock buffer_lock(buffer->mu);
    for (const auto& [name, totals] : buffer->totals) {
      SpanTotals& slot = out[name];
      slot.count += totals.count;
      slot.total_ns += totals.total_ns;
      slot.child_ns += totals.child_ns;
    }
  }
  return out;
}

void Tracer::Reset() {
  Registry& reg = Reg();
  wsd::MutexLock lock(reg.mu);
  for (const auto& buffer : reg.buffers) {
    wsd::MutexLock buffer_lock(buffer->mu);
    buffer->totals.clear();
    buffer->records.clear();
  }
  reg.stored = 0;
  reg.dropped = 0;
}

uint64_t Tracer::stored() const {
  return std::min(Reg().stored.load(), kMaxStoredSpans);
}
uint64_t Tracer::dropped() const { return Reg().dropped.load(); }

bool Tracer::WriteChromeTrace(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  Registry& reg = Reg();
  std::fputs("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[", out);
  bool first = true;
  {
    wsd::MutexLock lock(reg.mu);
    for (const auto& buffer : reg.buffers) {
      wsd::MutexLock buffer_lock(buffer->mu);
      for (const SpanRecord& r : buffer->records) {
        const std::string_view name(r.name);
        const std::string layer(name.substr(0, name.find('.')));
        std::fprintf(out,
                     "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                     "\"pid\":1,\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,"
                     "\"args\":{\"id\":%llu,\"parent\":%llu,\"run\":%llu}}",
                     first ? "" : ",", r.name, layer.c_str(), buffer->tid,
                     1e-3 * static_cast<double>(r.start_ns - reg.epoch_ns),
                     1e-3 * static_cast<double>(r.end_ns - r.start_ns),
                     static_cast<unsigned long long>(r.id),
                     static_cast<unsigned long long>(r.parent),
                     static_cast<unsigned long long>(r.run));
        first = false;
      }
    }
  }
  std::fputs("\n]}\n", out);
  return std::fclose(out) == 0;
}

Span::Span(const char* name, uint64_t run) {
  if (!Reg().enabled.load(std::memory_order_relaxed)) return;
  const uint64_t parent = tl_top != nullptr ? tl_top->id_ : 0;
  if (run == 0 && tl_top != nullptr) run = tl_top->run_;
  Open(name, parent, run);
}

Span::Span(const char* name, const SpanContext& parent) {
  if (!Reg().enabled.load(std::memory_order_relaxed)) return;
  Open(name, parent.id, parent.run);
}

void Span::Open(const char* name, uint64_t parent, uint64_t run) {
  name_ = name;
  id_ = Reg().next_id.fetch_add(1, std::memory_order_relaxed);
  parent_ = parent;
  run_ = run;
  active_ = true;
  outer_ = tl_top;
  tl_top = this;
  start_ns_ = NowNs();
}

Span::~Span() {
  if (!active_) return;
  const int64_t end_ns = NowNs();
  const int64_t duration = end_ns - start_ns_;
  tl_top = outer_;
  if (outer_ != nullptr) outer_->child_ns_ += duration;
  ThreadBuffer& buffer = Buffer();
  Registry& reg = Reg();
  wsd::MutexLock lock(buffer.mu);
  SpanTotals& totals = buffer.totals[name_];
  ++totals.count;
  totals.total_ns += duration;
  totals.child_ns += child_ns_;
  if (reg.stored.fetch_add(1, std::memory_order_relaxed) < kMaxStoredSpans) {
    buffer.records.push_back({name_, id_, parent_, run_, start_ns_, end_ns});
  } else {
    reg.dropped.fetch_add(1, std::memory_order_relaxed);
  }
}

}  // namespace perfbench
