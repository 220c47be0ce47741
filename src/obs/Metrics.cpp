//===- obs/Metrics.cpp - Named counters, gauges and histograms -------------===//
//
// Part of the veriqec project.
//
//===----------------------------------------------------------------------===//

#include "obs/Metrics.h"

#include "support/Assert.h"
#include "support/Json.h"

using namespace veriqec;
using namespace veriqec::obs;

#ifndef VERIQEC_DISABLE_OBS
std::atomic<bool> obs::detail::MetricsOn{false};
#endif

void obs::setMetricsEnabled(bool On) {
#ifdef VERIQEC_DISABLE_OBS
  (void)On;
#else
  detail::MetricsOn.store(On, std::memory_order_relaxed);
#endif
}

Registry &Registry::global() {
  static Registry R;
  return R;
}

Counter &Registry::counter(const std::string &Name) {
  std::lock_guard<std::mutex> Lock(Mutex);
  Entry &E = Entries[Name];
  if (!E.C) {
    if (E.G || E.H)
      fatalError("metric '" + Name + "' already registered as another kind");
    E.K = Kind::Counter;
    E.C = std::make_unique<Counter>();
  }
  return *E.C;
}

Gauge &Registry::gauge(const std::string &Name) {
  std::lock_guard<std::mutex> Lock(Mutex);
  Entry &E = Entries[Name];
  if (!E.G) {
    if (E.C || E.H)
      fatalError("metric '" + Name + "' already registered as another kind");
    E.K = Kind::Gauge;
    E.G = std::make_unique<Gauge>();
  }
  return *E.G;
}

Histogram &Registry::histogram(const std::string &Name) {
  std::lock_guard<std::mutex> Lock(Mutex);
  Entry &E = Entries[Name];
  if (!E.H) {
    if (E.C || E.G)
      fatalError("metric '" + Name + "' already registered as another kind");
    E.K = Kind::Histogram;
    E.H = std::make_unique<Histogram>();
  }
  return *E.H;
}

std::string Registry::snapshotJson() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  JsonObject Out;
  for (const auto &[Name, E] : Entries) {
    switch (E.K) {
    case Kind::Counter:
      Out.count(Name, E.C->value());
      break;
    case Kind::Gauge:
      Out.count(Name, E.G->value());
      break;
    case Kind::Histogram: {
      const Histogram &H = *E.H;
      uint64_t N = H.count();
      double Mean =
          N ? static_cast<double>(H.sum()) / static_cast<double>(N) : 0.0;
      JsonObject Buckets;
      for (size_t B = 0; B != Histogram::NumBuckets; ++B) {
        uint64_t C = H.bucket(B);
        if (!C)
          continue;
        // Bucket label = exclusive upper bound of the sample range
        // ([2^B, 2^(B+1)); the last bucket has no finite bound).
        std::string Label = "rest";
        if (B + 1 != Histogram::NumBuckets)
          Label = "lt_" + std::to_string(uint64_t{1} << (B + 1));
        Buckets.count(Label, C);
      }
      JsonObject Hist;
      Hist.count("count", N)
          .count("sum", H.sum())
          .num("mean", Mean)
          .count("max", H.max())
          .raw("buckets", Buckets.text());
      Out.raw(Name, Hist.text());
      break;
    }
    }
  }
  return Out.text();
}

void Registry::reset() {
  std::lock_guard<std::mutex> Lock(Mutex);
  for (auto &[Name, E] : Entries) {
    if (E.C)
      E.C->set(0);
    if (E.G)
      E.G->set(0);
    if (E.H)
      E.H->clear();
  }
}
