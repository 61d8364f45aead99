#include "obs/obs.hpp"

#include <chrono>
#include <cstdlib>
#include <deque>
#include <iomanip>
#include <map>
#include <mutex>
#include <sstream>
#include <tuple>
#include <vector>

#include "util/error.hpp"
#include "util/parallel.hpp"

namespace mgt::obs {

namespace {

constexpr std::size_t kSpanCapacity = 1024;

/// Fixed, locale-free rendering for gauge/histogram bounds: shortest
/// round-trip representation, deterministic for identical doubles.
std::string fmt_double(double v) {
  std::ostringstream os;
  os << std::setprecision(17) << v;
  return os.str();
}

/// The entry named `name`, made from `args` on first registration. The key
/// string is built only then, so looking up a registered name allocates
/// nothing, however long the name.
template <typename Map, typename... Args>
typename Map::mapped_type& find_or_emplace(Map& map, std::string_view name,
                                           Args&&... args) {
  const auto it = map.find(name);
  if (it != map.end()) {
    return it->second;
  }
  return map
      .emplace(std::piecewise_construct,
               std::forward_as_tuple(std::string(name)),
               std::forward_as_tuple(std::forward<Args>(args)...))
      .first->second;
}

}  // namespace

// ------------------------------------------------------ BoundedHistogram --

struct BoundedHistogram::Impl {
  Impl(double lo, double hi, std::size_t bins) : hist(lo, hi, bins) {}
  mutable std::mutex mutex;
  Histogram hist;
};

BoundedHistogram::BoundedHistogram(double lo, double hi, std::size_t bins)
    : impl_(new Impl(lo, hi, bins)) {}

BoundedHistogram::~BoundedHistogram() { delete impl_; }

void BoundedHistogram::observe(double x) {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  impl_->hist.add(x);
}

Histogram BoundedHistogram::snapshot() const {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  return impl_->hist;
}

void BoundedHistogram::reset() {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  impl_->hist.reset();
}

// --------------------------------------------------------------- Registry --

struct Registry::Impl {
  mutable std::mutex mutex;
  // std::map: stable node addresses (references survive registration of
  // other entries) and name-sorted iteration for the snapshot.
  std::map<std::string, Counter, std::less<>> counters;
  std::map<std::string, Gauge, std::less<>> gauges;
  std::map<std::string, BoundedHistogram, std::less<>> histograms;
  std::map<std::string, ProfileEntry, std::less<>> profiles;
  std::deque<SpanRecord> spans;
  std::uint64_t spans_dropped = 0;
};

Registry::Registry() : impl_(new Impl) {}

Registry& Registry::instance() {
  static Registry* g = new Registry();  // never destroyed: references from
  return *g;                            // any static dtor stay valid
}

Counter& Registry::counter(std::string_view name) {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  return find_or_emplace(impl_->counters, name);
}

Gauge& Registry::gauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  return find_or_emplace(impl_->gauges, name);
}

BoundedHistogram& Registry::histogram(std::string_view name, double lo,
                                      double hi, std::size_t bins) {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  return find_or_emplace(impl_->histograms, name, lo, hi, bins);
}

void Registry::record_span(std::string_view name, std::uint64_t begin,
                           std::uint64_t end) {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  if (impl_->spans.size() >= kSpanCapacity) {
    ++impl_->spans_dropped;
    return;
  }
  impl_->spans.push_back(SpanRecord{std::string(name), begin, end});
}

std::size_t Registry::span_capacity() const { return kSpanCapacity; }

void Registry::profile_add(std::string_view name, std::uint64_t calls,
                           std::uint64_t ticks, std::uint64_t wall_ns) {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  ProfileEntry& e = find_or_emplace(impl_->profiles, name);
  e.calls += calls;
  e.ticks += ticks;
  e.wall_ns += wall_ns;
}

void Registry::reset() {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  for (auto& [name, c] : impl_->counters) {
    c.set(0);
  }
  for (auto& [name, g] : impl_->gauges) {
    g.set(0.0);
  }
  for (auto& [name, h] : impl_->histograms) {
    h.reset();
  }
  for (auto& [name, p] : impl_->profiles) {
    p = ProfileEntry{};
  }
  impl_->spans.clear();
  impl_->spans_dropped = 0;
}

std::string Registry::snapshot() const {
  refresh_bridged();
  std::lock_guard<std::mutex> lock(impl_->mutex);
  std::ostringstream os;
  os << "obs-snapshot v1\n";
  for (const auto& [name, c] : impl_->counters) {
    os << "counter " << name << " " << c.value() << "\n";
  }
  for (const auto& [name, g] : impl_->gauges) {
    os << "gauge " << name << " " << fmt_double(g.value()) << "\n";
  }
  for (const auto& [name, h] : impl_->histograms) {
    const Histogram snap = h.snapshot();
    os << "hist " << name << " lo=" << fmt_double(snap.lo())
       << " hi=" << fmt_double(snap.hi()) << " under=" << snap.underflow()
       << " over=" << snap.overflow() << " total=" << snap.total()
       << " counts=";
    for (std::size_t i = 0; i < snap.bin_count(); ++i) {
      os << (i == 0 ? "" : ",") << snap.bin(i);
    }
    os << "\n";
  }
  for (const SpanRecord& s : impl_->spans) {
    os << "span " << s.name << " begin=" << s.begin << " end=" << s.end
       << " ticks=" << (s.end - s.begin) << "\n";
  }
  if (impl_->spans_dropped > 0) {
    os << "spans_dropped " << impl_->spans_dropped << "\n";
  }
  // The deterministic half of each profile entry only: wall_ns stays in
  // profile_wall_ns(), never here.
  for (const auto& [name, p] : impl_->profiles) {
    os << "profile " << name << " calls=" << p.calls << " ticks=" << p.ticks
       << "\n";
  }
  return os.str();
}

std::string Registry::summary() const {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  std::ostringstream os;
  os << impl_->counters.size() << " counters, " << impl_->gauges.size()
     << " gauges, " << impl_->histograms.size() << " histograms, "
     << impl_->spans.size() << " spans, " << impl_->profiles.size()
     << " profiled scopes";
  return os.str();
}

std::vector<std::pair<std::string, std::uint64_t>> Registry::counter_values()
    const {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  std::vector<std::pair<std::string, std::uint64_t>> out;
  out.reserve(impl_->counters.size());
  for (const auto& [name, c] : impl_->counters) {
    out.emplace_back(name, c.value());
  }
  return out;
}

std::vector<std::pair<std::string, double>> Registry::gauge_values() const {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  std::vector<std::pair<std::string, double>> out;
  out.reserve(impl_->gauges.size());
  for (const auto& [name, g] : impl_->gauges) {
    out.emplace_back(name, g.value());
  }
  return out;
}

std::vector<std::pair<std::string, Histogram>> Registry::histogram_values()
    const {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  std::vector<std::pair<std::string, Histogram>> out;
  for (const auto& [name, h] : impl_->histograms) {
    out.emplace_back(name, h.snapshot());
  }
  return out;
}

std::vector<SpanRecord> Registry::spans() const {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  return {impl_->spans.begin(), impl_->spans.end()};
}

std::vector<std::pair<std::string, ProfileEntry>> Registry::profile_values()
    const {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  std::vector<std::pair<std::string, ProfileEntry>> out;
  out.reserve(impl_->profiles.size());
  for (const auto& [name, p] : impl_->profiles) {
    out.emplace_back(name, p);
  }
  return out;
}

std::string Registry::profile_wall_ns() const {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  std::ostringstream os;
  for (const auto& [name, p] : impl_->profiles) {
    os << name << " " << p.wall_ns << "\n";
  }
  return os.str();
}

// ----------------------------------------------------------- ProfileScope --

namespace {

std::uint64_t wall_now_ns() {
  // The one sanctioned wall-clock read in src/: ProfileScope durations are
  // quarantined in profile_wall_ns() and never feed snapshot() values.
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now()  // mgtlint:allow(no-wall-clock)
              .time_since_epoch())
          .count());
}

}  // namespace

ProfileScope::ProfileScope(std::string_view name, const std::uint64_t* tick)
    : name_(name), tick_(tick), armed_(enabled()) {
  if (armed_) {
    tick_begin_ = tick_ != nullptr ? *tick_ : 0;
    wall_begin_ns_ = wall_now_ns();
  }
}

ProfileScope::~ProfileScope() {
  if (!armed_) {
    return;
  }
  const std::uint64_t ticks =
      tick_ != nullptr ? *tick_ - tick_begin_ : 0;
  registry().profile_add(name_, 1, ticks, wall_now_ns() - wall_begin_ns_);
}

// --------------------------------------------------------------- bridges --

void refresh_bridged() {
  Registry& r = Registry::instance();
  if (!r.enabled()) {
    return;
  }
  r.counter("mgt.threads.rejected").set(util::thread_env_rejections());
}

}  // namespace mgt::obs
