// Out-of-library tracing for the benchmark's traced run.
//
// Spans are recorded by the benchmark's own code around calls into each
// layer's public functions; nothing inside the library is instrumented. A
// span carries its op index (spans of one op share it), the span that
// caused it, and a host-time interval. Sink time inside one render call is
// measured by a timing forwarder around the sink and recorded as one
// aggregate child span of that render call (its duration is the summed
// busy time of the forwarded calls). Spans stay in memory and are written
// out once the run ends.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "signal/render.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct Span {
  const char* name = "";       // layer name, static storage
  std::uint32_t op = 0;        // op index
  std::int32_t parent = -1;    // causing span's id; -1 for an op's root
  std::int64_t start_ns = 0;   // from the tracer's origin
  std::int64_t dur_ns = 0;
  std::uint64_t calls = 1;     // forwarded calls summed into an aggregate
};

class Tracer {
public:
  Tracer() : origin_(Clock::now()) {}

  [[nodiscard]] std::int64_t now_ns() const;

  /// Spans opened from here on belong to op `op`.
  void set_op(std::uint32_t op) { op_ = op; }

  /// Opens a span and returns its id; close it with close().
  std::int32_t open(const char* name, std::int32_t parent);
  void close(std::int32_t id);

  /// Records a finished aggregate span.
  void add_aggregate(const char* name, std::int32_t parent,
                     std::int64_t start_ns, std::int64_t dur_ns,
                     std::uint64_t calls);

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Self time per layer, summed over all spans: each span's duration
  /// minus the durations of its direct children.
  [[nodiscard]] std::map<std::string, std::int64_t> self_ns_by_layer() const;

  /// Summed duration of every span named `name`.
  [[nodiscard]] std::int64_t total_ns(const std::string& name) const;

  /// One JSON object per span and line.
  void write_jsonl(std::ostream& out) const;

private:
  Clock::time_point origin_;
  std::uint32_t op_ = 0;
  std::vector<Span> spans_;
};

/// RAII span around one call.
class Scope {
public:
  Scope(Tracer& tracer, const char* name, std::int32_t parent = -1)
      : tracer_(tracer), id_(tracer.open(name, parent)) {}
  ~Scope() { tracer_.close(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  [[nodiscard]] std::int32_t id() const { return id_; }

private:
  Tracer& tracer_;
  std::int32_t id_;
};

/// Timing forwarder: passes every call to `inner` unchanged and sums the
/// host time spent inside it. The renderer cannot tell it from the bare
/// sink, so the inner sink ends in the same state byte for byte.
class TimedSink final : public mgt::sig::WaveformSink {
public:
  explicit TimedSink(mgt::sig::WaveformSink& inner) : inner_(inner) {}

  void on_sample(mgt::Picoseconds t, mgt::Millivolts v) override;
  void on_block(const mgt::sig::SampleBlock& block) override;
  void on_context(mgt::Picoseconds t, mgt::Millivolts v) override;
  void finish() override;

  [[nodiscard]] std::int64_t busy_ns() const { return busy_ns_; }
  [[nodiscard]] std::uint64_t calls() const { return calls_; }
  [[nodiscard]] std::uint64_t samples() const { return samples_; }

private:
  template <typename F>
  void timed(F&& call) {
    const auto t0 = Clock::now();
    call();
    busy_ns_ += std::chrono::duration_cast<std::chrono::nanoseconds>(
                    Clock::now() - t0)
                    .count();
    ++calls_;
  }

  mgt::sig::WaveformSink& inner_;
  std::int64_t busy_ns_ = 0;
  std::uint64_t calls_ = 0;
  std::uint64_t samples_ = 0;
};

}  // namespace perfbench
