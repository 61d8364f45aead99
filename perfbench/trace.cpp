#include "trace.hpp"

namespace perfbench {

std::int64_t Tracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              origin_)
      .count();
}

std::int32_t Tracer::open(const char* name, std::int32_t parent) {
  Span span;
  span.name = name;
  span.op = op_;
  span.parent = parent;
  span.start_ns = now_ns();
  spans_.push_back(span);
  return static_cast<std::int32_t>(spans_.size() - 1);
}

void Tracer::close(std::int32_t id) {
  Span& span = spans_[static_cast<std::size_t>(id)];
  span.dur_ns = now_ns() - span.start_ns;
}

void Tracer::add_aggregate(const char* name, std::int32_t parent,
                           std::int64_t start_ns, std::int64_t dur_ns,
                           std::uint64_t calls) {
  Span span;
  span.name = name;
  span.op = op_;
  span.parent = parent;
  span.start_ns = start_ns;
  span.dur_ns = dur_ns;
  span.calls = calls;
  spans_.push_back(span);
}

std::map<std::string, std::int64_t> Tracer::self_ns_by_layer() const {
  std::vector<std::int64_t> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[i] += spans_[i].dur_ns;
    if (spans_[i].parent >= 0) {
      self[static_cast<std::size_t>(spans_[i].parent)] -= spans_[i].dur_ns;
    }
  }
  std::map<std::string, std::int64_t> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    out[spans_[i].name] += self[i];
  }
  return out;
}

std::int64_t Tracer::total_ns(const std::string& name) const {
  std::int64_t total = 0;
  for (const Span& span : spans_) {
    if (name == span.name) {
      total += span.dur_ns;
    }
  }
  return total;
}

void Tracer::write_jsonl(std::ostream& out) const {
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"id\":" << i << ",\"op\":" << s.op << ",\"parent\":" << s.parent
        << ",\"name\":\"" << s.name << "\",\"start_ns\":" << s.start_ns
        << ",\"dur_ns\":" << s.dur_ns << ",\"calls\":" << s.calls << "}\n";
  }
}

void TimedSink::on_sample(mgt::Picoseconds t, mgt::Millivolts v) {
  timed([&] { inner_.on_sample(t, v); });
  ++samples_;
}

void TimedSink::on_block(const mgt::sig::SampleBlock& block) {
  timed([&] { inner_.on_block(block); });
  samples_ += block.size;
}

void TimedSink::on_context(mgt::Picoseconds t, mgt::Millivolts v) {
  timed([&] { inner_.on_context(t, v); });
}

void TimedSink::finish() {
  timed([&] { inner_.finish(); });
}

}  // namespace perfbench
