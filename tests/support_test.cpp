//===- tests/support_test.cpp - BitVector / Rng / Timer / Json unit tests -===//
//
// Part of the veriqec project.
//
//===----------------------------------------------------------------------===//

#include "support/BitVector.h"
#include "support/Json.h"
#include "support/Rng.h"
#include "support/Timer.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <limits>
#include <set>

using namespace veriqec;

TEST(BitVector, DefaultIsEmpty) {
  BitVector V;
  EXPECT_EQ(V.size(), 0u);
  EXPECT_TRUE(V.empty());
  EXPECT_TRUE(V.none());
}

TEST(BitVector, SetGetFlip) {
  BitVector V(130);
  EXPECT_EQ(V.size(), 130u);
  V.set(0);
  V.set(64);
  V.set(129);
  EXPECT_TRUE(V.get(0));
  EXPECT_TRUE(V.get(64));
  EXPECT_TRUE(V.get(129));
  EXPECT_FALSE(V.get(1));
  EXPECT_EQ(V.count(), 3u);
  V.flip(64);
  EXPECT_FALSE(V.get(64));
  V.set(0, false);
  EXPECT_FALSE(V.get(0));
  EXPECT_EQ(V.count(), 1u);
}

TEST(BitVector, AllOnesConstructorMasksTail) {
  BitVector V(70, true);
  EXPECT_EQ(V.count(), 70u);
  for (size_t I = 0; I != 70; ++I)
    EXPECT_TRUE(V.get(I));
}

TEST(BitVector, FindFirstNext) {
  BitVector V(200);
  EXPECT_EQ(V.findFirst(), 200u);
  V.set(3);
  V.set(77);
  V.set(199);
  EXPECT_EQ(V.findFirst(), 3u);
  EXPECT_EQ(V.findNext(4), 77u);
  EXPECT_EQ(V.findNext(78), 199u);
  EXPECT_EQ(V.findNext(200), 200u);

  std::set<size_t> Seen;
  for (size_t I = V.findFirst(); I < V.size(); I = V.findNext(I + 1))
    Seen.insert(I);
  EXPECT_EQ(Seen, (std::set<size_t>{3, 77, 199}));
}

TEST(BitVector, XorAndOr) {
  BitVector A(100), B(100);
  A.set(1);
  A.set(50);
  B.set(50);
  B.set(99);
  BitVector X = A ^ B;
  EXPECT_TRUE(X.get(1));
  EXPECT_FALSE(X.get(50));
  EXPECT_TRUE(X.get(99));
  BitVector N = A & B;
  EXPECT_EQ(N.count(), 1u);
  EXPECT_TRUE(N.get(50));
  BitVector O = A | B;
  EXPECT_EQ(O.count(), 3u);
}

TEST(BitVector, DotParityMatchesAndCount) {
  Rng R(42);
  for (int Trial = 0; Trial != 50; ++Trial) {
    BitVector A(97), B(97);
    for (size_t I = 0; I != 97; ++I) {
      if (R.nextBool())
        A.set(I);
      if (R.nextBool())
        B.set(I);
    }
    EXPECT_EQ(A.dotParity(B), (A.andCount(B) & 1) == 1);
  }
}

TEST(BitVector, ResizePreservesAndZeroExtends) {
  BitVector V(10);
  V.set(9);
  V.resize(100);
  EXPECT_TRUE(V.get(9));
  EXPECT_EQ(V.count(), 1u);
  V.resize(5);
  EXPECT_EQ(V.count(), 0u);
  // Growing after shrinking must not resurrect stale bits.
  V.resize(10);
  EXPECT_FALSE(V.get(9));
}

TEST(BitVector, ToStringAndEquality) {
  BitVector V(4);
  V.set(1);
  V.set(3);
  EXPECT_EQ(V.toString(), "0101");
  BitVector W(4);
  W.set(1);
  EXPECT_NE(V, W);
  W.set(3);
  EXPECT_EQ(V, W);
  EXPECT_EQ(V.hash(), W.hash());
}

TEST(Rng, DeterministicAcrossInstances) {
  Rng A(7), B(7);
  for (int I = 0; I != 100; ++I)
    EXPECT_EQ(A.next(), B.next());
}

TEST(Rng, BoundsRespected) {
  Rng R(3);
  for (int I = 0; I != 1000; ++I) {
    EXPECT_LT(R.nextBelow(17), 17u);
    double D = R.nextDouble();
    EXPECT_GE(D, 0.0);
    EXPECT_LT(D, 1.0);
  }
}

TEST(Rng, RoughlyFairCoin) {
  Rng R(11);
  int Heads = 0;
  for (int I = 0; I != 10000; ++I)
    Heads += R.nextBool();
  EXPECT_GT(Heads, 4500);
  EXPECT_LT(Heads, 5500);
}

TEST(Timer, MonotonicNonNegative) {
  Timer T;
  double A = T.seconds();
  double B = T.seconds();
  EXPECT_GE(A, 0.0);
  EXPECT_GE(B, A);
}

namespace {

/// A controllable clock that can jump backwards — the NTP-adjustment
/// hazard the steady_clock pin in support/Timer.h exists to rule out.
struct SkewClock {
  using duration = std::chrono::nanoseconds;
  using rep = duration::rep;
  using period = duration::period;
  using time_point = std::chrono::time_point<SkewClock>;
  static constexpr bool is_steady = false;
  static inline time_point Current{};
  static time_point now() { return Current; }
};

} // namespace

TEST(Timer, ClampsNegativeElapsedUnderClockSkew) {
  SkewClock::Current = SkewClock::time_point(std::chrono::seconds(100));
  BasicTimer<SkewClock> T;
  // The clock jumps backwards mid-measurement: elapsed time must clamp
  // to zero, never go negative.
  SkewClock::Current -= std::chrono::seconds(30);
  EXPECT_EQ(T.seconds(), 0.0);
  EXPECT_EQ(T.millis(), 0.0);
  // Once the clock passes the start point again, readings resume.
  SkewClock::Current += std::chrono::seconds(32);
  EXPECT_DOUBLE_EQ(T.seconds(), 2.0);
  T.restart();
  EXPECT_EQ(T.seconds(), 0.0);
  SkewClock::Current -= std::chrono::milliseconds(1);
  EXPECT_EQ(T.seconds(), 0.0);
}

TEST(Json, EscapesQuotesBackslashesAndControlCharacters) {
  EXPECT_EQ(jsonEscape("plain ascii 123"), "plain ascii 123");
  EXPECT_EQ(jsonEscape("a\"b"), "a\\\"b");
  EXPECT_EQ(jsonEscape("a\\b"), "a\\\\b");
  EXPECT_EQ(jsonEscape("line\nbreak"), "line\\nbreak");
  EXPECT_EQ(jsonEscape("tab\there"), "tab\\u0009here");
  EXPECT_EQ(jsonEscape("cr\rhere"), "cr\\u000dhere");
  EXPECT_EQ(jsonEscape(std::string(1, '\x01')), "\\u0001");
  EXPECT_EQ(jsonEscape(std::string(1, '\x1f')), "\\u001f");
  // An embedded NUL escapes instead of truncating the string.
  std::string Nul = "a";
  Nul += '\0';
  Nul += 'b';
  EXPECT_EQ(jsonEscape(Nul), "a\\u0000b");
  // High-bit bytes (UTF-8 sequences) pass through untouched.
  EXPECT_EQ(jsonEscape("caf\xc3\xa9"), "caf\xc3\xa9");
  // 0x20 itself (space) is the first unescaped code point.
  EXPECT_EQ(jsonEscape(" "), " ");
}

TEST(Json, NumbersRenderFiniteValuesAndNullOtherwise) {
  EXPECT_EQ(jsonNumber(0.0), "0");
  EXPECT_EQ(jsonNumber(1.5), "1.5");
  EXPECT_EQ(jsonNumber(-2.25), "-2.25");
  EXPECT_EQ(jsonNumber(1e100), "1e+100");
  // %.12g keeps timing-scale precision without float noise.
  EXPECT_EQ(jsonNumber(0.123456789), "0.123456789");
  // JSON has no NaN/Infinity tokens: non-finite renders as null.
  EXPECT_EQ(jsonNumber(std::nan("")), "null");
  EXPECT_EQ(jsonNumber(std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(jsonNumber(-std::numeric_limits<double>::infinity()), "null");
}

TEST(Json, ObjectEscapesKeysAndValuesAndNests) {
  EXPECT_EQ(JsonObject().text(), "{}");
  JsonObject Inner;
  Inner.count("n", 3).flag("ok", false);
  JsonObject J;
  J.str("k\"ey", "va\\l\nue")
      .count("big", 18446744073709551615ull)
      .num("half", 0.5)
      .num("nan", std::nan(""))
      .num("inf", std::numeric_limits<double>::infinity())
      .flag("yes", true)
      .raw("inner", Inner.text())
      .raw("empty", JsonObject().text());
  EXPECT_EQ(J.text(), "{\"k\\\"ey\": \"va\\\\l\\nue\", "
                      "\"big\": 18446744073709551615, \"half\": 0.5, "
                      "\"nan\": null, \"inf\": null, \"yes\": true, "
                      "\"inner\": {\"n\": 3, \"ok\": false}, \"empty\": {}}");
  EXPECT_EQ(jsonArray({}), "[]");
  EXPECT_EQ(jsonArray({"1", jsonString("a\"b")}), "[\n  1,\n  \"a\\\"b\"\n]");
}
