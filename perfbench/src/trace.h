// In-memory span recorder for the benchmark's traced run.
//
// Spans are recorded by the benchmark itself around its calls into the
// library's public functions; the library is not instrumented. Each
// span carries a name ("<layer>.<call>"), start and end on the steady
// clock, the span that was open on the same thread when it began (its
// parent), and a request id shared by every span of one request. Spans
// stay in per-thread buffers until Write() dumps them at exit.
//
// A disabled Tracer records nothing: a Scope then costs one branch,
// which is what the untraced (end-to-end) runs pay.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct TraceBuffer;

class Tracer {
 public:
  struct Span {
    const char* name = "";
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int32_t parent = -1;  ///< index in the same thread's buffer; -1 = root
    uint64_t request_id = 0;
  };

  /// \brief RAII span: opens on construction, closes on destruction.
  /// `request_id` 0 inherits the parent span's id.
  class Scope {
   public:
    Scope(Tracer* tracer, const char* name, uint64_t request_id = 0);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    TraceBuffer* buffer_ = nullptr;
    int32_t index_ = -1;
  };

  explicit Tracer(bool enabled);
  ~Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  /// Turns recording on or off for spans opened from now on.
  void set_enabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }

  /// Total spans recorded across threads.
  size_t num_spans() const;

  /// Per layer (the span-name prefix before the first '.'), the summed
  /// self time in milliseconds: each span's duration minus the part its
  /// direct children cover.
  std::map<std::string, double> SelfTimeMsByLayer() const;

  /// Writes every span to `path`, one JSON array per line:
  /// [thread, index, parent index, name, start_ns, end_ns, request id].
  bool Write(const std::string& path) const;

 private:
  friend class Scope;
  TraceBuffer* ThreadBuffer();

  std::atomic<bool> enabled_;
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<TraceBuffer>> buffers_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
