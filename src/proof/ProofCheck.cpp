//===- proof/ProofCheck.cpp - Independent proof checker -------------------===//
//
// Part of the veriqec project.
//
//===----------------------------------------------------------------------===//

#include "proof/ProofCheck.h"

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <utility>
#include <vector>

using namespace veriqec;
using namespace veriqec::proof;

namespace {

// -- GF(2) rows over a sparse sorted variable support ------------------------

/// One parity constraint: XOR of Vars == Rhs. Vars are sorted, duplicate
/// free; used both for the preprocessor replay records (BoolContext
/// variable space) and for the solver's native XOR rows (SAT variable
/// space), which g records sum.
struct SparseRow {
  std::vector<uint32_t> Vars;
  uint8_t Rhs = 0;
};

/// Sorts a support and cancels duplicate variables in pairs (GF(2)).
void canonicalize(std::vector<uint32_t> &Vars) {
  std::sort(Vars.begin(), Vars.end());
  size_t Keep = 0;
  for (size_t I = 0; I != Vars.size();) {
    size_t J = I;
    while (J != Vars.size() && Vars[J] == Vars[I])
      ++J;
    if ((J - I) & 1)
      Vars[Keep++] = Vars[I];
    I = J;
  }
  Vars.resize(Keep);
}

SparseRow xorRows(const SparseRow &A, const SparseRow &B) {
  SparseRow Out;
  Out.Vars.reserve(A.Vars.size() + B.Vars.size());
  std::set_symmetric_difference(A.Vars.begin(), A.Vars.end(), B.Vars.begin(),
                                B.Vars.end(), std::back_inserter(Out.Vars));
  Out.Rhs = A.Rhs ^ B.Rhs;
  return Out;
}

/// Incremental row-echelon basis keyed by leading variable. insert()
/// records the contradiction 0 == 1; inSpan() answers linear membership
/// (which is what validates preprocessor replay records).
class RowBasis {
public:
  SparseRow reduce(SparseRow R) const {
    while (!R.Vars.empty()) {
      auto It = ByLead.find(R.Vars.front());
      if (It == ByLead.end())
        break;
      R = xorRows(R, It->second);
    }
    return R;
  }

  void insert(SparseRow R) {
    R = reduce(std::move(R));
    if (R.Vars.empty()) {
      Contradictory |= R.Rhs != 0;
      return;
    }
    uint32_t Lead = R.Vars.front();
    ByLead.emplace(Lead, std::move(R));
  }

  bool inSpan(const SparseRow &R) const {
    SparseRow Residue = reduce(R);
    if (!Residue.Vars.empty())
      return false;
    // A contradictory system spans every parity (0 == 1 absorbs the Rhs).
    return Residue.Rhs == 0 || Contradictory;
  }

  bool contradictory() const { return Contradictory; }

private:
  std::map<uint32_t, SparseRow> ByLead;
  bool Contradictory = false;
};

// -- Unit propagation replay -------------------------------------------------

/// Literal codes: 2*Var + (negated ? 1 : 0), mirroring DIMACS input
/// Lit = (Var+1) * sign.
constexpr uint32_t codeOf(uint32_t Var, bool Neg) { return 2 * Var + Neg; }
constexpr uint32_t negCode(uint32_t Code) { return Code ^ 1; }

/// The replayer: a two-watched-literal propagation core over the header
/// clauses plus one stream's accepted additions, with assumption levels
/// that unwind back to the persistent root trail.
///
/// Clauses live in one flat word store: a clause is its header word
/// (size << 1 | deleted) followed by its literal codes, and a clause
/// reference is the offset of that header word. The words of deleted
/// additions are reclaimed once they outnumber the live ones, so a
/// stream's replay holds what its solver held, not everything it ever
/// derived.
class Replay {
public:
  explicit Replay(size_t NumVars)
      : Vals(2 * NumVars, Undef), Watches(2 * NumVars) {}

  bool dbUnsat() const { return DbUnsat; }
  /// A clause found the store full (over 8 GB of clause words): the
  /// proof must be rejected, since that clause is missing.
  bool full() const { return Full; }

  /// Installs the next header record (o or b); -k hints name the k-th.
  /// Header records come first and are never deleted, so reclaiming
  /// never moves them.
  void addHeader(std::vector<uint32_t> &Lits) {
    HeaderRefs.push_back(installClause(Lits));
  }

  /// Installs one stream addition when \p Entailed — the verdict of
  /// one of the checks below — or when the database is refuted already
  /// (it then entails everything). Returns whether it was installed.
  bool add(std::vector<uint32_t> &Lits, bool Entailed) {
    if (DbUnsat) {
      Additions.push_back(NoClause);
      return true;
    }
    if (!Entailed)
      return false;
    Additions.push_back(installClause(Lits));
    propagateRoot();
    return true;
  }

  /// Installs a clause whose check happened elsewhere (the negation of
  /// a core some stream refuted) and propagates it at the root.
  void addImplied(std::vector<uint32_t> &Lits) {
    if (DbUnsat)
      return;
    installClause(Lits);
    propagateRoot();
  }

  /// Propagates the root trail to fixpoint; a conflict refutes the
  /// database.
  void propagateRoot() {
    if (!DbUnsat && propagate() != NoClause)
      DbUnsat = true;
  }

  /// Deletes the stream's \p Serial-th addition (1-based).
  bool deleteDerived(uint64_t Serial) {
    if (Serial == 0 || Serial > Additions.size())
      return false;
    ClauseRef Ref = Additions[Serial - 1];
    if (Ref != NoClause && !(Words[Ref] & 1)) {
      Words[Ref] |= 1;
      DeadWords += clauseWords(Ref);
      if (!DbUnsat && 2 * DeadWords > Words.size())
        reclaim();
    }
    return true;
  }

  /// The hinted check: asserts \p Lits (negated for RUP, as-is for a
  /// conclusion core), then walks \p Hints (positive: earlier addition
  /// serial; negative: header clause record) expecting each named clause
  /// to be satisfied or unit (enqueueing its one unassigned literal)
  /// until one is conflicting. It IS unit propagation, merely restricted
  /// to the named clauses. A root-falsified assertion passes with no
  /// hints at all; anything else that deviates fails. Always unwinds.
  bool refutesByHints(const std::vector<uint32_t> &Lits, bool Negate,
                      const std::vector<int64_t> &Hints) {
    size_t Mark = Trail.size();
    if (!assertAll(Lits, Negate)) {
      // Root-falsified assertion: a clause literal already true (RUP
      // mode, entailed) or a core literal already false (conflict).
      unwindTo(Mark);
      return true;
    }
    for (int64_t H : Hints) {
      ClauseRef Ref = hintClause(H);
      if (Ref == NoClause) {
        unwindTo(Mark);
        return false;
      }
      uint32_t Unit = 0;
      int NumUndef = 0;
      bool Satisfied = false;
      const uint32_t *C = &Words[Ref + 1];
      for (const uint32_t *End = C + (Words[Ref] >> 1); C != End; ++C) {
        int8_t V = Vals[*C];
        if (V == 1) {
          Satisfied = true;
          break;
        }
        if (V < 0) {
          ++NumUndef;
          Unit = *C;
        }
      }
      // A satisfied hint asserts nothing: its implied literal already
      // holds (root units a header bound adds satisfy many). Skipping it
      // asserts nothing either, so the check stays unit propagation.
      if (Satisfied)
        continue;
      if (NumUndef > 1) {
        unwindTo(Mark);
        return false;
      }
      if (NumUndef == 0) {
        unwindTo(Mark);
        return true; // all literals false: a genuine conflict
      }
      enqueue(Unit);
    }
    unwindTo(Mark);
    return false; // hints ran out without reaching a conflict
  }

  /// Reverse unit propagation: the negated clause, asserted on top of
  /// the root trail, propagates to a conflict (or a clause literal is
  /// already true). Always unwinds.
  bool rupRefutes(const std::vector<uint32_t> &Lits) {
    size_t Mark = Trail.size();
    bool Entailed =
        !assertAll(Lits, /*Negate=*/true) || propagate() != NoClause;
    unwindTo(Mark);
    return Entailed;
  }

  /// The parity check: under the root assignment plus the assignment
  /// falsifying the clause, every variable of the sum of \p Xor's rows
  /// \p Rows (1-based) is assigned and the sum reads 0 == 1 (or a clause
  /// literal is already true). Every model of the rows and the root then
  /// satisfies the clause. Always unwinds.
  bool sumImplies(const std::vector<uint32_t> &Lits,
                  const std::vector<SparseRow> &Xor,
                  const std::vector<int64_t> &Rows) {
    size_t Mark = Trail.size();
    bool Entailed = !assertAll(Lits, /*Negate=*/true);
    if (!Entailed) {
      uint8_t Parity = 0;
      SumVars.clear();
      for (int64_t R : Rows) {
        const SparseRow &Row = Xor[static_cast<size_t>(R - 1)];
        Parity ^= Row.Rhs;
        SumVars.insert(SumVars.end(), Row.Vars.begin(), Row.Vars.end());
      }
      canonicalize(SumVars);
      Entailed = true;
      for (uint32_t V : SumVars) {
        int8_t Val = Vals[codeOf(V, false)];
        Entailed &= Val >= 0;
        Parity ^= Val == 1;
      }
      Entailed &= Parity != 0;
    }
    unwindTo(Mark);
    return Entailed;
  }

private:
  using ClauseRef = uint32_t;
  static constexpr ClauseRef NoClause = UINT32_MAX;
  /// Store bound: keeps every size << 1 and every reference in 32 bits.
  static constexpr size_t MaxWords = size_t{1} << 31;
  static constexpr int8_t Undef = -1;

  struct Watcher {
    ClauseRef Ref;
    uint32_t Blocker;
  };

  std::vector<uint32_t> Words;
  size_t DeadWords = 0;
  /// Per literal code: 1 true, 0 false, Undef.
  std::vector<int8_t> Vals;
  std::vector<std::vector<Watcher>> Watches;
  std::vector<uint32_t> Trail; // asserted literal codes
  size_t PropHead = 0;
  bool DbUnsat = false;
  bool Full = false;
  /// Per-addition clause (NoClause for tautologies, reclaimed clauses
  /// and additions accepted after the database went unsat), indexed by
  /// serial - 1. Its references ascend, like the store.
  std::vector<ClauseRef> Additions;
  /// Per header record (o and b): what a negative hint resolves through.
  std::vector<ClauseRef> HeaderRefs;
  /// sumImplies() scratch: the support of the row sum.
  std::vector<uint32_t> SumVars;

  size_t clauseWords(ClauseRef Ref) const { return (Words[Ref] >> 1) + 1; }

  void enqueue(uint32_t Code) {
    Vals[Code] = 1;
    Vals[negCode(Code)] = 0;
    Trail.push_back(Code);
  }

  void watch(ClauseRef Ref) {
    uint32_t L0 = Words[Ref + 1], L1 = Words[Ref + 2];
    Watches[L0].push_back({Ref, L1});
    Watches[L1].push_back({Ref, L0});
  }

  /// Installs a clause at the root, picking watchable (non-false)
  /// literals and enqueueing an implied unit right away. Runs only with
  /// every assumption level unwound; \p C is normalized in place.
  ///
  /// Clauses are normalized first: producers may emit degenerate clauses
  /// (a parity chain over an aliased variable repeats a literal), and
  /// watched-literal propagation over the raw clause would treat the
  /// copies as distinct non-false literals — silently losing the
  /// clause's real propagation strength. Tautologies are not stored:
  /// always satisfied, they can never propagate, and a hint naming one
  /// names nothing.
  ClauseRef installClause(std::vector<uint32_t> &C) {
    std::sort(C.begin(), C.end());
    C.erase(std::unique(C.begin(), C.end()), C.end());
    for (size_t I = 0; I + 1 < C.size(); ++I)
      if (C[I + 1] == negCode(C[I]))
        return NoClause;
    if (Words.size() + C.size() + 1 > MaxWords) {
      Full = true;
      return NoClause;
    }
    size_t NonFalse = 0;
    for (size_t I = 0; I != C.size() && NonFalse < 2; ++I)
      if (Vals[C[I]] != 0)
        std::swap(C[NonFalse++], C[I]);
    ClauseRef Ref = static_cast<ClauseRef>(Words.size());
    Words.push_back(static_cast<uint32_t>(C.size() << 1));
    Words.insert(Words.end(), C.begin(), C.end());
    if (NonFalse == 0) {
      DbUnsat = true;
      return Ref;
    }
    if (C.size() >= 2)
      watch(Ref);
    if (NonFalse == 1 && Vals[C[0]] == Undef)
      enqueue(C[0]);
    return Ref;
  }

  /// Slides the live clauses down over the dead ones, keeping their
  /// order: the header stays put, and the additions' references (which
  /// ascend like the store) are remapped in one merged pass. Then every
  /// clause is watched again on its first two literals, which are the
  /// two it was watched on. Runs at the root, between records.
  void reclaim() {
    size_t To = 0, A = 0;
    for (size_t From = 0; From != Words.size();) {
      size_t Len = clauseWords(static_cast<ClauseRef>(From));
      bool Dead = Words[From] & 1;
      for (; A != Additions.size() &&
             (Additions[A] == NoClause || Additions[A] <= From);
           ++A)
        if (Additions[A] == From)
          Additions[A] = Dead ? NoClause : static_cast<ClauseRef>(To);
      if (!Dead) {
        std::copy(Words.begin() + From, Words.begin() + From + Len,
                  Words.begin() + To);
        To += Len;
      }
      From += Len;
    }
    Words.resize(To);
    DeadWords = 0;
    for (std::vector<Watcher> &WL : Watches)
      WL.clear();
    for (size_t Ref = 0; Ref != Words.size(); Ref += clauseWords(Ref))
      if (Words[Ref] >> 1 >= 2)
        watch(static_cast<ClauseRef>(Ref));
  }

  /// Propagates to fixpoint; returns a conflicting clause or NoClause.
  ClauseRef propagate() {
    while (PropHead < Trail.size()) {
      uint32_t False = negCode(Trail[PropHead++]);
      std::vector<Watcher> &WL = Watches[False];
      size_t Keep = 0;
      for (size_t I = 0; I != WL.size(); ++I) {
        Watcher W = WL[I];
        if (Words[W.Ref] & 1)
          continue; // deleted: the watch goes with it
        if (Vals[W.Blocker] == 1) {
          WL[Keep++] = W;
          continue;
        }
        uint32_t *C = &Words[W.Ref + 1];
        size_t Size = Words[W.Ref] >> 1;
        if (C[0] == False)
          std::swap(C[0], C[1]);
        if (Vals[C[0]] == 1) {
          WL[Keep++] = {W.Ref, C[0]};
          continue;
        }
        bool Moved = false;
        for (size_t K = 2; K != Size; ++K)
          if (Vals[C[K]] != 0) {
            std::swap(C[1], C[K]);
            Watches[C[1]].push_back({W.Ref, C[0]});
            Moved = true;
            break;
          }
        if (Moved)
          continue;
        WL[Keep++] = W;
        if (Vals[C[0]] == 0) {
          for (size_t J = I + 1; J != WL.size(); ++J)
            WL[Keep++] = WL[J];
          WL.resize(Keep);
          PropHead = Trail.size();
          return W.Ref;
        }
        enqueue(C[0]);
      }
      WL.resize(Keep);
    }
    return NoClause;
  }

  void unwindTo(size_t Mark) {
    while (Trail.size() > Mark) {
      Vals[Trail.back()] = Vals[negCode(Trail.back())] = Undef;
      Trail.pop_back();
    }
    PropHead = Mark;
  }

  /// Asserts \p Lits (negated when \p Negate) on top of the root
  /// trail; false, leaving the rest unasserted, at one already false.
  bool assertAll(const std::vector<uint32_t> &Lits, bool Negate) {
    for (uint32_t L : Lits) {
      uint32_t Assert = Negate ? negCode(L) : L;
      int8_t V = Vals[Assert];
      if (V == 0)
        return false;
      if (V == Undef)
        enqueue(Assert);
    }
    return true;
  }

  /// Resolves a hint to a live clause, or NoClause when it names nothing
  /// usable (out of range, a tautology, or deleted — deleted clauses
  /// must not justify later additions through hints any more than
  /// through full propagation, reclaimed or not).
  ClauseRef hintClause(int64_t Hint) const {
    ClauseRef Ref = NoClause;
    if (Hint > 0 && static_cast<uint64_t>(Hint) <= Additions.size())
      Ref = Additions[static_cast<size_t>(Hint) - 1];
    else if (Hint < 0 && Hint >= -static_cast<int64_t>(HeaderRefs.size()))
      Ref = HeaderRefs[static_cast<size_t>(-Hint - 1)];
    if (Ref != NoClause && (Words[Ref] & 1))
      return NoClause;
    return Ref;
  }
};

// -- Proof text parsing ------------------------------------------------------

/// Reads one record's fields in place: a field is a run of characters
/// other than space, tab and carriage return.
class FieldReader {
public:
  explicit FieldReader(std::string_view Line)
      : P(Line.data()), End(Line.data() + Line.size()) {}

  /// Skips blanks; whether no field is left.
  bool atEnd() {
    while (P != End && isBlank(*P))
      ++P;
    return P == End;
  }

  /// The next field (empty when none is left).
  std::string_view word() {
    atEnd();
    const char *Start = P;
    while (P != End && !isBlank(*P))
      ++P;
    return {Start, static_cast<size_t>(P - Start)};
  }

  enum class Scan { Ok, End, Bad };

  /// The integer scanner: reads the next field into \p Out when it is a
  /// whole int64 (no sign but '-', no overflow, nothing after the
  /// digits); End when no field is left.
  Scan next(int64_t &Out) {
    if (atEnd())
      return Scan::End;
    auto [Ptr, Ec] = std::from_chars(P, End, Out);
    if (Ec != std::errc() || (Ptr != End && !isBlank(*Ptr)))
      return Scan::Bad;
    P = Ptr;
    return Scan::Ok;
  }

private:
  static bool isBlank(char C) { return C == ' ' || C == '\t' || C == '\r'; }

  const char *P;
  const char *End;
};

using Scan = FieldReader::Scan;

/// Splits \p Text into lines and dispatches each record to the state
/// machine below, which reads its fields in place.
class Checker {
public:
  CheckResult run(std::string_view Text) {
    size_t Pos = 0, LineNo = 0;
    while (Pos < Text.size()) {
      size_t Eol = Text.find('\n', Pos);
      if (Eol == std::string_view::npos)
        Eol = Text.size();
      std::string_view Line = Text.substr(Pos, Eol - Pos);
      Pos = Eol + 1;
      ++LineNo;
      if (!handleLine(Line, LineNo))
        return Result;
      for (const std::optional<Replay> *R : {&Pristine, &Table, &Stream})
        if (*R && (*R)->full()) {
          fail(LineNo, "proof exceeds the clause store");
          return Result;
        }
    }
    finish();
    return Result;
  }

private:
  enum class Phase { ExpectMagic, Header, Streams };

  CheckResult Result;
  Phase State = Phase::ExpectMagic;
  size_t NumVars = 0;
  std::vector<SparseRow> XorSystem;
  std::vector<SparseRow> OriginalRows; // pr, BoolContext space
  bool SawTrivial = false;
  bool SpanChecked = false;
  RowBasis OriginalBasis;

  /// Pristine is the header alone, installed record by record; every
  /// stream replays from a copy of it. Table is the header plus the
  /// clause ¬core of every checked q; the trailer's additions extend it,
  /// and the proof stands only once it derives the empty clause.
  std::optional<Replay> Pristine, Table, Stream;
  /// Where a, d and q records replay: the open stream, or the table once
  /// the trailer began.
  Replay *Current = nullptr;

  bool fail(size_t LineNo, const std::string &What) {
    Result.Ok = false;
    Result.Error = "line " + std::to_string(LineNo) + ": " + What;
    return false;
  }

  /// Record scratch, reused across the proof's millions of lines (a
  /// fresh vector per line is measurable at surface-code proof sizes).
  std::vector<uint32_t> LitScratch, CubeScratch;
  std::vector<int64_t> HintScratch;

  /// Parses DIMACS literals up to a 0 terminator into \p Out. Codes are
  /// range-checked before any arithmetic, so no field can overflow them.
  bool parseLits(FieldReader &F, std::vector<uint32_t> &Out, size_t LineNo) {
    Out.clear();
    const int64_t Max = static_cast<int64_t>(NumVars);
    for (int64_t L;;) {
      if (Scan S = F.next(L); S != Scan::Ok)
        return fail(LineNo, S == Scan::End ? "missing 0 terminator"
                                           : "bad literal token");
      if (L == 0)
        return true;
      if (L < -Max || L > Max)
        return fail(LineNo, "literal over undeclared variable");
      uint32_t V = static_cast<uint32_t>((L < 0 ? -L : L) - 1);
      Out.push_back(codeOf(V, L < 0));
    }
  }

  /// Parses the optional 0-terminated hint (or g row) list into
  /// HintScratch (left empty when the record ends first); it must end
  /// the record.
  bool parseHints(FieldReader &F, size_t LineNo) {
    HintScratch.clear();
    if (F.atEnd())
      return true;
    for (int64_t H;;) {
      if (Scan S = F.next(H); S != Scan::Ok)
        return fail(LineNo, S == Scan::End ? "missing 0 terminator"
                                           : "bad hint token");
      if (H == 0)
        return F.atEnd() ||
               fail(LineNo, "trailing tokens after the hint list");
      if (H == std::numeric_limits<int64_t>::min())
        return fail(LineNo, "hint out of range");
      HintScratch.push_back(H);
    }
  }

  /// Parses "rhs var..var 0" into a sorted parity row over variables
  /// 1..\p Max (1-based in the text).
  bool parseRow(FieldReader &F, uint64_t Max, SparseRow &Out, size_t LineNo) {
    int64_t Rhs;
    if (F.next(Rhs) != Scan::Ok || (Rhs != 0 && Rhs != 1))
      return fail(LineNo, "bad parity rhs");
    for (int64_t V;;) {
      if (Scan S = F.next(V); S != Scan::Ok)
        return fail(LineNo, S == Scan::End ? "missing 0 terminator"
                                           : "bad parity variable");
      if (V == 0) {
        Out.Rhs = static_cast<uint8_t>(Rhs);
        canonicalize(Out.Vars);
        return true;
      }
      if (V < 1 || static_cast<uint64_t>(V) > Max)
        return fail(LineNo, "parity variable out of range");
      Out.Vars.push_back(static_cast<uint32_t>(V - 1));
    }
  }

  void ensureSpanChecks() {
    if (SpanChecked)
      return;
    SpanChecked = true;
    for (const SparseRow &R : OriginalRows)
      OriginalBasis.insert(R); // contradictions recorded, judged by 't'
  }

  /// The header replay, created at its first clause (the variable count
  /// is fixed by then: a later v record is rejected).
  Replay &pristine() {
    if (!Pristine)
      Pristine.emplace(NumVars);
    return *Pristine;
  }

  /// Closes the header: propagates it and builds the table.
  void beginStreams() {
    if (State != Phase::Header)
      return;
    State = Phase::Streams;
    pristine().propagateRoot();
    Table.emplace(*Pristine);
  }

  bool handleLine(std::string_view Line, size_t LineNo) {
    FieldReader F(Line);
    std::string_view Tag = F.word();
    if (Tag.empty() || Tag.front() == '#')
      return true;

    if (State == Phase::ExpectMagic) {
      if (Tag != "p" || F.word() != "veriqec" || F.word() != "proof" ||
          F.word() != "1")
        return fail(LineNo, "not a veriqec proof (bad magic)");
      State = Phase::Header;
      return true;
    }

    if (Tag == "v") {
      // Literal codes are 2*var+sign in 32 bits.
      // Records already read were range-checked against the old count.
      int64_t N;
      if (State != Phase::Header || F.next(N) != Scan::Ok || !F.atEnd() ||
          N < 0 || N > INT32_MAX || Result.HeaderClauses != 0 ||
          Result.XorRows != 0)
        return fail(LineNo, "bad variable-count record");
      NumVars = static_cast<size_t>(N);
      Result.NumVars = NumVars;
      return true;
    }
    if (Tag == "o" || Tag == "b") {
      if (State != Phase::Header)
        return fail(LineNo, "clause record after streams began");
      if (!parseLits(F, LitScratch, LineNo))
        return false;
      pristine().addHeader(LitScratch);
      ++Result.HeaderClauses;
      return true;
    }
    if (Tag == "x") {
      if (State != Phase::Header)
        return fail(LineNo, "xor record after streams began");
      SparseRow Row;
      if (!parseRow(F, NumVars, Row, LineNo))
        return false;
      XorSystem.push_back(std::move(Row));
      ++Result.XorRows;
      return true;
    }
    if (Tag == "pr" || Tag == "pk" || Tag == "pe") {
      if (State != Phase::Header)
        return fail(LineNo, "replay record after streams began");
      // pe <var> <rhs> <deps..> 0: var == XOR(deps) ^ rhs, i.e. the row
      // {var, deps} == rhs must be spanned by the original system.
      int64_t V = 0;
      bool Pe = Tag == "pe";
      if (Pe &&
          (F.next(V) != Scan::Ok || V < 1 || V > int64_t{UINT32_MAX} + 1))
        return fail(LineNo, "bad elimination record");
      SparseRow Row;
      if (!parseRow(F, uint64_t{UINT32_MAX} + 1, Row, LineNo))
        return false;
      ++Result.ReplayRecords;
      if (Tag == "pr") {
        OriginalRows.push_back(std::move(Row));
        return true;
      }
      if (Pe) {
        Row.Vars.push_back(static_cast<uint32_t>(V - 1));
        canonicalize(Row.Vars);
      }
      ensureSpanChecks();
      if (!OriginalBasis.inSpan(Row))
        return fail(LineNo, std::string(Pe ? "elimination" : "kept row") +
                                " outside the original row span");
      return true;
    }
    if (Tag == "t") {
      if (State != Phase::Header)
        return fail(LineNo, "trivial-unsat record after streams began");
      ensureSpanChecks();
      if (!OriginalBasis.contradictory())
        return fail(LineNo, "trivial-unsat claim but original rows are "
                            "consistent");
      SawTrivial = true;
      return true;
    }
    if (Tag == "s") {
      int64_t Slot;
      if (F.next(Slot) != Scan::Ok || !F.atEnd() || Slot < 0)
        return fail(LineNo, "bad stream record");
      beginStreams();
      Stream.emplace(*Pristine);
      Current = &*Stream;
      ++Result.Streams;
      return true;
    }
    if (Tag == "r") {
      if (!F.atEnd())
        return fail(LineNo, "bad trailer record");
      beginStreams();
      Current = &*Table;
      return true;
    }
    if (Tag == "a" || Tag == "g" || Tag == "d" || Tag == "q") {
      if (!Current)
        return fail(LineNo, "stream record outside a stream");
      if (Tag == "a" || Tag == "g") {
        // Second 0-terminated list: for a, antecedent hints (positive:
        // an addition serial; negative: a header clause record); for g,
        // the x records (1-based) whose sum implies the clause. The
        // trailer's additions carry no hints: they are checked by RUP.
        if (!parseLits(F, LitScratch, LineNo) || !parseHints(F, LineNo))
          return false;
        ++Result.Additions;
        Replay &R = *Current;
        if (Tag == "g") {
          for (int64_t Row : HintScratch)
            if (Row < 1 || static_cast<uint64_t>(Row) > XorSystem.size())
              return fail(LineNo, "parity row out of range");
          return R.add(LitScratch,
                       R.sumImplies(LitScratch, XorSystem, HintScratch)) ||
                 fail(LineNo, "parity clause is not implied by its rows");
        }
        if (Current == &*Table)
          return R.add(LitScratch, R.rupRefutes(LitScratch)) ||
                 fail(LineNo, "trailer clause is not RUP");
        return R.add(LitScratch,
                     R.refutesByHints(LitScratch, true, HintScratch)) ||
               fail(LineNo, "derived clause is not implied by its hints");
      }
      if (Tag == "d") {
        int64_t Serial;
        if (F.next(Serial) != Scan::Ok || !F.atEnd() || Serial < 1)
          return fail(LineNo, "bad deletion record");
        ++Result.Deletions;
        if (!Current->deleteDerived(static_cast<uint64_t>(Serial)))
          return fail(LineNo, "deletion of an unknown derived clause");
        return true;
      }
      // q: "<core lits> 0 <cube lits> 0 [hints 0]".
      std::vector<uint32_t> &Core = LitScratch, &Cube = CubeScratch;
      if (!parseLits(F, Core, LineNo) || !parseLits(F, Cube, LineNo) ||
          !parseHints(F, LineNo))
        return false;
      std::sort(Core.begin(), Core.end());
      std::sort(Cube.begin(), Cube.end());
      if (!std::includes(Cube.begin(), Cube.end(), Core.begin(), Core.end()))
        return fail(LineNo, "core is not a subset of its cube");
      if (!Current->dbUnsat() &&
          !Current->refutesByHints(Core, /*Negate=*/false, HintScratch))
        return fail(LineNo, "core is not refuted by its hints");
      for (uint32_t &L : Core)
        L = negCode(L);
      Table->addImplied(Core);
      ++Result.Conclusions;
      return true;
    }
    return fail(LineNo, "unknown record '" + std::string(Tag) + "'");
  }

  void finish() {
    if (State == Phase::ExpectMagic) {
      fail(0, "empty proof");
      return;
    }
    if (!SawTrivial && !(Table && Table->dbUnsat())) {
      fail(0, "no record derives the empty clause");
      return;
    }
    Result.Ok = true;
  }
};

} // namespace

CheckResult veriqec::proof::checkProof(std::string_view Text) {
  Checker C;
  return C.run(Text);
}
