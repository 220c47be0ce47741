//===- sat/ClauseArena.h - Relocating clause storage ------------*- C++ -*-===//
//
// Part of the veriqec project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The solver's clause database as one contiguous region of 32-bit words
/// (the minisat-family RegionAllocator discipline). A clause is a word
/// offset into the region:
///
///   [header] [activity] [proof id] [lit 0] [lit 1] ... [lit n-1]
///
/// The header packs the literal count with the learned/deleted/relocated
/// flags; the activity is a float (the VSIDS clause score only ever
/// feeds an ordering, so float resolution is plenty); the proof id is an
/// int32 carried *inside* the clause so compaction can never
/// desynchronize a clause from its proof identity — positive ids are
/// derivation serials, negative ids are negated proof-header record
/// indices, 0 is "no identity" (an imported lemma).
///
/// Deletion only marks the header and counts the words as wasted;
/// garbageCollect() (sat/Solver.cpp) copies the live clauses into a
/// fresh arena via reloc(), which forwards every later reference to the
/// clause's new home through the Reloced flag + a forwarding offset
/// stashed in the activity slot. Propagation touching clause literals
/// through one flat array — instead of a per-clause heap vector — is the
/// point: the inner propagate() loop is ~75% of cube-discharge time.
///
//===----------------------------------------------------------------------===//

#ifndef VERIQEC_SAT_CLAUSEARENA_H
#define VERIQEC_SAT_CLAUSEARENA_H

#include "sat/SatTypes.h"
#include "support/Assert.h"

#include <cstdint>
#include <cstring>
#include <limits>
#include <span>
#include <vector>

namespace veriqec::sat {

/// Reference to a clause: the word offset of its header inside the
/// owning ClauseArena. int32_t so the watcher binary-mark encoding
/// (Solver.h) keeps its negative range.
using ClauseRef = int32_t;

/// A non-owning view of one clause in a ClauseArena. Cheap to copy
/// (one pointer); invalidated by any arena allocation or compaction.
class Clause {
public:
  uint32_t size() const { return Head[0] >> SizeShift; }
  bool learned() const { return Head[0] & LearnedBit; }
  void setLearned(bool B) {
    Head[0] = B ? (Head[0] | LearnedBit) : (Head[0] & ~LearnedBit);
  }
  bool deleted() const { return Head[0] & DeletedBit; }
  bool reloced() const { return Head[0] & RelocedBit; }

  float activity() const {
    float A;
    std::memcpy(&A, &Head[1], sizeof(A));
    return A;
  }
  void setActivity(float A) { std::memcpy(&Head[1], &A, sizeof(A)); }

  /// Proof identity (see file comment): derivation serial (> 0),
  /// negated header record index (< 0), or none (0).
  int32_t proofId() const { return static_cast<int32_t>(Head[2]); }
  void setProofId(int32_t Id) { Head[2] = static_cast<uint32_t>(Id); }

  Lit &operator[](size_t I) { return lits()[I]; }
  Lit operator[](size_t I) const {
    Lit L;
    L.Code = static_cast<int32_t>(Head[HeaderWords + I]);
    return L;
  }
  std::span<Lit> lits() {
    return {reinterpret_cast<Lit *>(Head + HeaderWords), size()};
  }
  std::span<const Lit> lits() const {
    return {reinterpret_cast<const Lit *>(Head + HeaderWords), size()};
  }

  static constexpr size_t HeaderWords = 3;

private:
  friend class ClauseArena;
  explicit Clause(uint32_t *Head) : Head(Head) {}

  static constexpr uint32_t LearnedBit = 1u;
  static constexpr uint32_t DeletedBit = 2u;
  static constexpr uint32_t RelocedBit = 4u;
  static constexpr uint32_t SizeShift = 3;

  void markDeleted() { Head[0] |= DeletedBit; }
  ClauseRef forward() const { return static_cast<ClauseRef>(Head[1]); }
  void setForward(ClauseRef To) {
    Head[0] |= RelocedBit;
    Head[1] = static_cast<uint32_t>(To);
  }

  uint32_t *Head;
};

class ClauseArena {
public:
  /// Stores a fresh clause and returns its reference. Activity starts at
  /// 0, the proof id at "none".
  ClauseRef alloc(std::span<const Lit> Lits, bool Learned) {
    size_t Need = Clause::HeaderWords + Lits.size();
    assert(Mem.size() + Need <=
               static_cast<size_t>(std::numeric_limits<int32_t>::max()) &&
           "clause arena exceeds the 2^31-word address space");
    ClauseRef Ref = static_cast<ClauseRef>(Mem.size());
    Mem.resize(Mem.size() + Need);
    uint32_t *Head = &Mem[static_cast<size_t>(Ref)];
    Head[0] = (static_cast<uint32_t>(Lits.size()) << 3) |
              (Learned ? 1u : 0u); // size << SizeShift | LearnedBit
    Head[1] = 0;
    Head[2] = 0;
    // An empty clause (an XOR conflict over root facts only) may come
    // with a null data(); memcpy from null is undefined even for 0 bytes.
    if (!Lits.empty())
      std::memcpy(Head + Clause::HeaderWords, Lits.data(),
                  Lits.size() * sizeof(Lit));
    return Ref;
  }

  Clause operator[](ClauseRef Ref) const {
    assert(Ref >= 0 && static_cast<size_t>(Ref) < Mem.size() &&
           "clause reference outside the arena");
    return Clause(const_cast<uint32_t *>(&Mem[static_cast<size_t>(Ref)]));
  }

  /// Tombstones the clause (literals stay readable — conflict analysis
  /// may still walk a locked reason) and books its words as wasted.
  void markDeleted(ClauseRef Ref) {
    Clause C = (*this)[Ref];
    if (C.deleted())
      return;
    C.markDeleted();
    Wasted += Clause::HeaderWords + C.size();
  }

  /// Moves the clause behind \p Ref into \p To (once — later calls for
  /// the same clause follow the forwarding offset) and rewrites \p Ref.
  void reloc(ClauseRef &Ref, ClauseArena &To) {
    Clause C = (*this)[Ref];
    if (C.reloced()) {
      Ref = C.forward();
      return;
    }
    size_t Words = Clause::HeaderWords + C.size();
    ClauseRef NewRef = static_cast<ClauseRef>(To.Mem.size());
    To.Mem.insert(To.Mem.end(), C.Head, C.Head + Words);
    if (C.deleted())
      // A tombstone kept alive by a trail reason: its words are wasted in
      // the new arena too.
      To.Wasted += Words;
    C.setForward(NewRef);
    Ref = NewRef;
  }

  size_t sizeWords() const { return Mem.size(); }
  size_t sizeBytes() const { return Mem.size() * sizeof(uint32_t); }
  size_t wastedWords() const { return Wasted; }
  void reserveWords(size_t Words) { Mem.reserve(Words); }

private:
  std::vector<uint32_t> Mem;
  size_t Wasted = 0;
};

} // namespace veriqec::sat

#endif // VERIQEC_SAT_CLAUSEARENA_H
