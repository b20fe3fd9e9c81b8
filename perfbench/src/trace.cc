#include "trace.h"

#include <chrono>
#include <cstdio>

namespace perfbench {

struct TraceBuffer {
  const Tracer* owner = nullptr;
  uint32_t thread = 0;
  std::vector<Tracer::Span> spans;
  int32_t open = -1;  ///< innermost open span on this thread
};

namespace {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

thread_local TraceBuffer* tls_buffer = nullptr;

}  // namespace

Tracer::Tracer(bool enabled) : enabled_(enabled) {}

Tracer::~Tracer() = default;

TraceBuffer* Tracer::ThreadBuffer() {
  if (tls_buffer != nullptr && tls_buffer->owner == this) return tls_buffer;
  std::lock_guard<std::mutex> lock(mu_);
  buffers_.push_back(std::make_unique<TraceBuffer>());
  TraceBuffer* b = buffers_.back().get();
  b->owner = this;
  b->thread = static_cast<uint32_t>(buffers_.size() - 1);
  b->spans.reserve(1 << 16);
  tls_buffer = b;
  return b;
}

Tracer::Scope::Scope(Tracer* tracer, const char* name, uint64_t request_id) {
  if (tracer == nullptr || !tracer->enabled()) return;
  buffer_ = tracer->ThreadBuffer();
  Span s;
  s.name = name;
  s.parent = buffer_->open;
  s.request_id = request_id != 0 || s.parent < 0
                     ? request_id
                     : buffer_->spans[s.parent].request_id;
  index_ = static_cast<int32_t>(buffer_->spans.size());
  buffer_->spans.push_back(s);
  buffer_->open = index_;
  buffer_->spans[index_].start_ns = NowNs();
}

Tracer::Scope::~Scope() {
  if (buffer_ == nullptr) return;
  Span& s = buffer_->spans[index_];
  s.end_ns = NowNs();
  buffer_->open = s.parent;
}

size_t Tracer::num_spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t n = 0;
  for (const auto& b : buffers_) n += b->spans.size();
  return n;
}

std::map<std::string, double> Tracer::SelfTimeMsByLayer() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<std::string, double> out;
  for (const auto& b : buffers_) {
    // Children close before their parent and never overlap on one
    // thread, so a parent's covered time is the sum of its children's.
    std::vector<int64_t> child_ns(b->spans.size(), 0);
    for (const Span& s : b->spans) {
      if (s.parent >= 0) child_ns[s.parent] += s.end_ns - s.start_ns;
    }
    for (size_t i = 0; i < b->spans.size(); ++i) {
      const Span& s = b->spans[i];
      const std::string name = s.name;
      const std::string layer = name.substr(0, name.find('.'));
      out[layer] += static_cast<double>(s.end_ns - s.start_ns - child_ns[i]) /
                    1e6;
    }
  }
  return out;
}

bool Tracer::Write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& b : buffers_) {
    for (size_t i = 0; i < b->spans.size(); ++i) {
      const Span& s = b->spans[i];
      std::fprintf(f, "[%u, %zu, %d, \"%s\", %lld, %lld, %llu]\n",
                   b->thread, i, s.parent, s.name,
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns),
                   static_cast<unsigned long long>(s.request_id));
    }
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
