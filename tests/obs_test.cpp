//===- tests/obs_test.cpp - Tracing and metrics registry unit tests -------===//
//
// Part of the veriqec project.
//
//===----------------------------------------------------------------------===//
//
// The obs/ subsystem: Chrome trace-event recording (span/instant shape,
// argument capture and caps, epoch reset, file flush) and the metrics
// registry (bucketing, gating, snapshot JSON, reset semantics). The
// trace/metrics gates are process-global, so every test restores the
// disabled state it started from.
//
//===----------------------------------------------------------------------===//

#include "obs/Metrics.h"
#include "obs/Trace.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <thread>

using namespace veriqec;

namespace {

/// Structural well-formedness without a JSON parser dependency: braces
/// and brackets balance outside string literals, escapes are sane. The
/// CI smoke runs a real json.loads over tool-emitted traces; this keeps
/// the unit test self-contained.
bool balancedJson(const std::string &S) {
  int Depth = 0;
  bool InString = false, Escaped = false;
  for (char C : S) {
    if (InString) {
      if (Escaped)
        Escaped = false;
      else if (C == '\\')
        Escaped = true;
      else if (C == '"')
        InString = false;
      continue;
    }
    if (C == '"')
      InString = true;
    else if (C == '{' || C == '[')
      ++Depth;
    else if (C == '}' || C == ']') {
      if (--Depth < 0)
        return false;
    }
  }
  return Depth == 0 && !InString;
}

size_t countOccurrences(const std::string &Haystack,
                        const std::string &Needle) {
  size_t N = 0;
  for (size_t At = Haystack.find(Needle); At != std::string::npos;
       At = Haystack.find(Needle, At + Needle.size()))
    ++N;
  return N;
}

} // namespace

// -- Tracing -----------------------------------------------------------------

TEST(Trace, DisabledByDefaultRecordsNothing) {
  ASSERT_FALSE(obs::traceEnabled());
  {
    obs::TraceSpan Span("should_not_appear", {{"k", 1}});
    Span.arg("late", 2);
  }
  obs::traceInstant("also_not");
  std::string Json = obs::renderTraceJson();
  EXPECT_EQ(Json.find("should_not_appear"), std::string::npos);
  EXPECT_EQ(Json.find("also_not"), std::string::npos);
  EXPECT_TRUE(balancedJson(Json));
}

TEST(Trace, RecordsSpansInstantsAndArgsAcrossThreads) {
  obs::beginTrace();
  {
    obs::TraceSpan Outer("outer", {{"cubes", 42}});
    obs::TraceSpan Inner("inner");
    Inner.arg("conflicts", 7);
    obs::traceInstant("tick", {{"n", 3}});
  }
  std::thread T([] { obs::TraceSpan Span("from_worker"); });
  T.join();
  obs::stopTrace();
  std::string Json = obs::renderTraceJson();

  EXPECT_TRUE(balancedJson(Json));
  EXPECT_NE(Json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  EXPECT_NE(Json.find("\"traceEvents\":["), std::string::npos);
  // Complete events carry ph:X with ts/dur; the instant is ph:i scoped
  // to its thread.
  EXPECT_NE(Json.find("\"name\":\"outer\",\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(Json.find("\"name\":\"inner\",\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(Json.find("\"name\":\"tick\",\"ph\":\"i\",\"s\":\"t\""),
            std::string::npos);
  EXPECT_NE(Json.find("\"name\":\"from_worker\""), std::string::npos);
  EXPECT_NE(Json.find("\"dur\":"), std::string::npos);
  // Construction-time, mid-span and instant arguments all land.
  EXPECT_NE(Json.find("\"cubes\":42"), std::string::npos);
  EXPECT_NE(Json.find("\"conflicts\":7"), std::string::npos);
  EXPECT_NE(Json.find("\"n\":3"), std::string::npos);
  // The spawned thread renders on its own track.
  EXPECT_GE(countOccurrences(Json, "\"tid\":"), 4u);
}

TEST(Trace, ArgsPastTheCapAreDropped) {
  obs::beginTrace();
  {
    obs::TraceSpan Span("capped");
    for (uint64_t I = 0; I != obs::MaxTraceArgs + 3; ++I)
      Span.arg("arg", 100 + I);
  }
  obs::stopTrace();
  std::string Json = obs::renderTraceJson();
  EXPECT_EQ(countOccurrences(Json, "\"arg\":"), obs::MaxTraceArgs);
  EXPECT_NE(Json.find("\"arg\":100"), std::string::npos);
  EXPECT_EQ(Json.find("\"arg\":" +
                      std::to_string(100 + obs::MaxTraceArgs)),
            std::string::npos);
  EXPECT_TRUE(balancedJson(Json));
}

TEST(Trace, BeginTraceDiscardsEarlierEventsAndResetsTheEpoch) {
  obs::beginTrace();
  { obs::TraceSpan Span("stale"); }
  obs::beginTrace();
  { obs::TraceSpan Span("fresh"); }
  obs::stopTrace();
  std::string Json = obs::renderTraceJson();
  EXPECT_EQ(Json.find("stale"), std::string::npos);
  EXPECT_NE(Json.find("fresh"), std::string::npos);
}

TEST(Trace, EndTraceWritesTheRenderedJsonToTheFile) {
  std::filesystem::path Path =
      std::filesystem::temp_directory_path() / "veriqec_obs_test_trace.json";
  obs::beginTrace();
  { obs::TraceSpan Span("flushed_span", {{"bytes", 17}}); }
  std::string Err;
  ASSERT_TRUE(obs::endTrace(Path.string(), Err)) << Err;
  EXPECT_FALSE(obs::traceEnabled()); // endTrace stops collection

  std::ifstream In(Path);
  std::stringstream Buf;
  Buf << In.rdbuf();
  std::string Json = Buf.str();
  EXPECT_TRUE(balancedJson(Json));
  EXPECT_NE(Json.find("\"name\":\"flushed_span\""), std::string::npos);
  EXPECT_NE(Json.find("\"bytes\":17"), std::string::npos);
  std::filesystem::remove(Path);

  // An unwritable path fails with a diagnostic instead of dying.
  obs::beginTrace();
  obs::stopTrace();
  std::string Err2;
  EXPECT_FALSE(obs::endTrace("/nonexistent-dir/veriqec/trace.json", Err2));
  EXPECT_NE(Err2.find("cannot open"), std::string::npos);
}

// -- Metrics -----------------------------------------------------------------

TEST(Metrics, HistogramBucketOfIsFloorLog2) {
  EXPECT_EQ(obs::Histogram::bucketOf(0), 0u);
  EXPECT_EQ(obs::Histogram::bucketOf(1), 0u);
  EXPECT_EQ(obs::Histogram::bucketOf(2), 1u);
  EXPECT_EQ(obs::Histogram::bucketOf(3), 1u);
  EXPECT_EQ(obs::Histogram::bucketOf(4), 2u);
  EXPECT_EQ(obs::Histogram::bucketOf(7), 2u);
  EXPECT_EQ(obs::Histogram::bucketOf(8), 3u);
  EXPECT_EQ(obs::Histogram::bucketOf(1023), 9u);
  EXPECT_EQ(obs::Histogram::bucketOf(1024), 10u);
  EXPECT_EQ(obs::Histogram::bucketOf(uint64_t{1} << 63), 63u);
  EXPECT_EQ(obs::Histogram::bucketOf(std::numeric_limits<uint64_t>::max()),
            63u);
}

TEST(Metrics, HotPathsAreGatedOnTheEnableFlag) {
  ASSERT_FALSE(obs::metricsEnabled());
  obs::Histogram H;
  obs::Counter C;
  H.observe(5);
  C.add(3);
  EXPECT_EQ(H.count(), 0u);
  EXPECT_EQ(C.value(), 0u);

  obs::setMetricsEnabled(true);
  H.observe(5);
  C.add(3);
  obs::setMetricsEnabled(false);
  EXPECT_EQ(H.count(), 1u);
  EXPECT_EQ(C.value(), 3u);
  // set() is the ungated end-of-run publishing path.
  C.set(99);
  EXPECT_EQ(C.value(), 99u);
}

TEST(Metrics, HistogramTracksCountSumMaxAndShape) {
  obs::setMetricsEnabled(true);
  obs::Histogram H;
  for (uint64_t Sample : {0ull, 1ull, 2ull, 3ull, 1000ull})
    H.observe(Sample);
  obs::setMetricsEnabled(false);
  EXPECT_EQ(H.count(), 5u);
  EXPECT_EQ(H.sum(), 1006u);
  EXPECT_EQ(H.max(), 1000u);
  EXPECT_EQ(H.bucket(0), 2u); // 0 and 1
  EXPECT_EQ(H.bucket(1), 2u); // 2 and 3
  EXPECT_EQ(H.bucket(9), 1u); // 1000 in [512, 1024)
  H.clear();
  EXPECT_EQ(H.count(), 0u);
  EXPECT_EQ(H.max(), 0u);
  EXPECT_EQ(H.bucket(9), 0u);
}

TEST(Metrics, RegistrySnapshotRendersEveryKind) {
  obs::Registry &R = obs::Registry::global();
  obs::setMetricsEnabled(true);
  R.counter("test.snapshot.ctr").add(5);
  R.gauge("test.snapshot.gauge").set(12);
  obs::Histogram &H = R.histogram("test.snapshot.hist");
  H.observe(1);
  H.observe(700);
  obs::setMetricsEnabled(false);

  std::string Json = R.snapshotJson();
  EXPECT_TRUE(balancedJson(Json));
  EXPECT_NE(Json.find("\"test.snapshot.ctr\": 5"), std::string::npos);
  EXPECT_NE(Json.find("\"test.snapshot.gauge\": 12"), std::string::npos);
  EXPECT_NE(Json.find("\"test.snapshot.hist\": {\"count\": 2, \"sum\": 701"),
            std::string::npos);
  EXPECT_NE(Json.find("\"max\": 700"), std::string::npos);
  // Bucket labels are exclusive upper bounds: 1 -> lt_2, 700 -> lt_1024.
  EXPECT_NE(Json.find("\"lt_2\": 1"), std::string::npos);
  EXPECT_NE(Json.find("\"lt_1024\": 1"), std::string::npos);
}

TEST(Metrics, ResetZeroesValuesButKeepsCachedReferencesValid) {
  obs::Registry &R = obs::Registry::global();
  // The hot-site idiom resolves once and caches the reference; reset()
  // must zero values WITHOUT dropping entries, or the cache dangles.
  obs::Counter &C = R.counter("test.reset.ctr");
  obs::setMetricsEnabled(true);
  C.add(7);
  R.reset();
  EXPECT_EQ(C.value(), 0u);
  C.add(2); // through the pre-reset reference
  obs::setMetricsEnabled(false);
  EXPECT_EQ(C.value(), 2u);
  EXPECT_EQ(&R.counter("test.reset.ctr"), &C);
  EXPECT_NE(R.snapshotJson().find("\"test.reset.ctr\": 2"),
            std::string::npos);
}
