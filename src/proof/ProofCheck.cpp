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
constexpr uint32_t varOf(uint32_t Code) { return Code >> 1; }
constexpr bool negOf(uint32_t Code) { return Code & 1; }
constexpr uint32_t negCode(uint32_t Code) { return Code ^ 1; }

/// The replayer: a two-watched-literal propagation core over the header
/// clauses plus one stream's accepted additions, with assumption levels
/// that unwind back to the persistent root trail.
class Replay {
public:
  Replay(size_t NumVars, const std::vector<std::vector<uint32_t>> &Header)
      : NumHeaderClauses(Header.size()) {
    Assigns.assign(NumVars, -1);
    Watches.assign(2 * NumVars, {});
    for (const std::vector<uint32_t> &C : Header)
      installClause(C);
    if (!DbUnsat && propagate() != NoClause)
      DbUnsat = true;
  }

  bool dbUnsat() const { return DbUnsat; }

  /// Installs one stream addition when \p Entailed — the verdict of
  /// one of the checks below — or when the database is refuted already
  /// (it then entails everything). Returns whether it was installed.
  bool add(const std::vector<uint32_t> &Lits, bool Entailed) {
    if (DbUnsat) {
      Additions.push_back(NoClause);
      return true;
    }
    if (!Entailed)
      return false;
    addImplied(Lits);
    Additions.push_back(static_cast<int32_t>(Clauses.size() - 1));
    return true;
  }

  /// Installs a clause whose check happened elsewhere (the negation of
  /// a core some stream refuted) and propagates it at the root.
  void addImplied(std::vector<uint32_t> Lits) {
    if (DbUnsat)
      return;
    installClause(std::move(Lits));
    if (!DbUnsat && propagate() != NoClause)
      DbUnsat = true;
  }

  /// Deletes the stream's \p Serial-th addition (1-based).
  bool deleteDerived(uint64_t Serial) {
    if (Serial == 0 || Serial > Additions.size())
      return false;
    int32_t Idx = Additions[Serial - 1];
    if (Idx != NoClause)
      Deleted[Idx] = 1;
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
      int32_t Idx = hintClause(H);
      if (Idx == NoClause) {
        unwindTo(Mark);
        return false;
      }
      uint32_t Unit = 0;
      int NumUndef = 0;
      bool Satisfied = false;
      for (uint32_t L : Clauses[Idx]) {
        int8_t V = litValue(L);
        if (V == 1) {
          Satisfied = true;
          break;
        }
        if (V < 0) {
          ++NumUndef;
          Unit = L;
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
        Entailed &= Assigns[V] >= 0;
        Parity ^= Assigns[V] == 1;
      }
      Entailed &= Parity != 0;
    }
    unwindTo(Mark);
    return Entailed;
  }

private:
  static constexpr int32_t NoClause = -1;

  struct Watcher {
    uint32_t ClauseIdx;
    uint32_t Blocker;
  };

  std::vector<std::vector<uint32_t>> Clauses;
  std::vector<uint8_t> Deleted;
  std::vector<std::vector<Watcher>> Watches;
  std::vector<int8_t> Assigns; // per var: -1 undef, 0 false, 1 true
  std::vector<uint32_t> Trail; // asserted literal codes
  size_t PropHead = 0;
  bool DbUnsat = false;
  /// Per-addition clause index (NoClause for clauses absorbed at install
  /// or accepted after the database went unsat), indexed by serial - 1.
  std::vector<int32_t> Additions;
  /// Header records (o and b) install at clause indices [0,
  /// NumHeaderClauses): what a negative hint resolves through.
  size_t NumHeaderClauses = 0;
  /// sumImplies() scratch: the support of the row sum.
  std::vector<uint32_t> SumVars;

  int8_t litValue(uint32_t Code) const {
    int8_t A = Assigns[varOf(Code)];
    if (A < 0)
      return -1;
    return negOf(Code) ? static_cast<int8_t>(1 - A) : A;
  }

  void enqueue(uint32_t Code) {
    Assigns[varOf(Code)] = negOf(Code) ? 0 : 1;
    Trail.push_back(Code);
  }

  /// Installs a clause at the root, picking watchable (non-false)
  /// literals and enqueueing an implied unit right away. Runs only with
  /// every assumption level unwound.
  ///
  /// Clauses are normalized first: producers may emit degenerate clauses
  /// (a parity chain over an aliased variable repeats a literal), and
  /// watched-literal propagation over the raw clause would treat the
  /// copies as distinct non-false literals — silently losing the
  /// clause's real propagation strength. Tautologies are installed as
  /// tombstones: always satisfied, they can never propagate.
  void installClause(std::vector<uint32_t> C) {
    std::sort(C.begin(), C.end());
    C.erase(std::unique(C.begin(), C.end()), C.end());
    for (size_t I = 0; I + 1 < C.size(); ++I)
      if (C[I + 1] == negCode(C[I])) {
        Clauses.push_back(std::move(C));
        Deleted.push_back(1);
        return;
      }
    size_t NonFalse = 0;
    for (size_t I = 0; I != C.size() && NonFalse < 2; ++I)
      if (litValue(C[I]) != 0)
        std::swap(C[NonFalse++], C[I]);
    uint32_t Idx = static_cast<uint32_t>(Clauses.size());
    Clauses.push_back(std::move(C));
    Deleted.push_back(0);
    const std::vector<uint32_t> &Lits = Clauses.back();
    if (NonFalse == 0) {
      DbUnsat = true;
      return;
    }
    if (Lits.size() >= 2) {
      Watches[Lits[0]].push_back({Idx, Lits[1]});
      Watches[Lits[1]].push_back({Idx, Lits[0]});
    }
    if (NonFalse == 1 && litValue(Lits[0]) < 0)
      enqueue(Lits[0]);
  }

  /// Propagates to fixpoint; returns a conflicting clause or NoClause.
  int32_t propagate() {
    while (PropHead < Trail.size()) {
      uint32_t False = negCode(Trail[PropHead++]);
      std::vector<Watcher> &WL = Watches[False];
      size_t Keep = 0;
      for (size_t I = 0; I != WL.size(); ++I) {
        Watcher W = WL[I];
        if (Deleted[W.ClauseIdx])
          continue;
        if (litValue(W.Blocker) == 1) {
          WL[Keep++] = W;
          continue;
        }
        std::vector<uint32_t> &C = Clauses[W.ClauseIdx];
        if (C[0] == False)
          std::swap(C[0], C[1]);
        if (litValue(C[0]) == 1) {
          WL[Keep++] = {W.ClauseIdx, C[0]};
          continue;
        }
        bool Moved = false;
        for (size_t K = 2; K != C.size(); ++K)
          if (litValue(C[K]) != 0) {
            std::swap(C[1], C[K]);
            Watches[C[1]].push_back({W.ClauseIdx, C[0]});
            Moved = true;
            break;
          }
        if (Moved)
          continue;
        WL[Keep++] = W;
        if (litValue(C[0]) == 0) {
          for (size_t J = I + 1; J != WL.size(); ++J)
            WL[Keep++] = WL[J];
          WL.resize(Keep);
          PropHead = Trail.size();
          return static_cast<int32_t>(W.ClauseIdx);
        }
        enqueue(C[0]);
      }
      WL.resize(Keep);
    }
    return NoClause;
  }

  void unwindTo(size_t Mark) {
    while (Trail.size() > Mark) {
      Assigns[varOf(Trail.back())] = -1;
      Trail.pop_back();
    }
    PropHead = Mark;
  }

  /// Asserts \p Lits (negated when \p Negate) on top of the root
  /// trail; false, leaving the rest unasserted, at one already false.
  bool assertAll(const std::vector<uint32_t> &Lits, bool Negate) {
    for (uint32_t L : Lits) {
      uint32_t Assert = Negate ? negCode(L) : L;
      int8_t V = litValue(Assert);
      if (V == 0)
        return false;
      if (V < 0)
        enqueue(Assert);
    }
    return true;
  }

  /// Resolves a hint to a live clause index, or NoClause when it names
  /// nothing usable (out of range, absorbed at install, or deleted —
  /// deleted clauses must not justify later additions through hints any
  /// more than through full propagation).
  int32_t hintClause(int64_t Hint) const {
    int32_t Idx = NoClause;
    if (Hint > 0 && static_cast<uint64_t>(Hint) <= Additions.size())
      Idx = Additions[static_cast<size_t>(Hint) - 1];
    else if (Hint < 0 && Hint >= -static_cast<int64_t>(NumHeaderClauses))
      Idx = static_cast<int32_t>(-Hint - 1);
    if (Idx != NoClause && Deleted[Idx])
      return NoClause;
    return Idx;
  }
};

// -- Proof text parsing ------------------------------------------------------

/// Splits \p Text into whitespace-separated fields per line, dispatching
/// each record to the state machine below.
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
    }
    finish();
    return Result;
  }

private:
  enum class Phase { ExpectMagic, Header, Streams };

  CheckResult Result;
  Phase State = Phase::ExpectMagic;
  size_t NumVars = 0;
  std::vector<std::vector<uint32_t>> HeaderClauses;
  std::vector<SparseRow> XorSystem;
  std::vector<SparseRow> OriginalRows; // pr, BoolContext space
  bool SawTrivial = false;
  bool SpanChecked = false;
  RowBasis OriginalBasis;

  /// Built when the streams begin. Every stream replays from Pristine,
  /// the header alone. Table is the header plus the clause ¬core of every
  /// checked q; the trailer's additions extend it, and the proof stands
  /// only once it derives the empty clause.
  std::optional<Replay> Pristine, Table, Stream;
  /// Where a, d and q records replay: the open stream, or the table once
  /// the trailer began.
  Replay *Current = nullptr;

  bool fail(size_t LineNo, const std::string &What) {
    Result.Ok = false;
    Result.Error = "line " + std::to_string(LineNo) + ": " + What;
    return false;
  }

  /// Tokenizer and addition scratch, reused across the proof's millions
  /// of lines (a fresh vector per line is measurable at surface-code
  /// proof sizes).
  std::vector<std::string_view> TokScratch;
  std::vector<uint32_t> LitScratch;
  std::vector<int64_t> HintScratch;

  const std::vector<std::string_view> &split(std::string_view Line) {
    TokScratch.clear();
    size_t I = 0;
    while (I < Line.size()) {
      while (I < Line.size() && (Line[I] == ' ' || Line[I] == '\t' ||
                                 Line[I] == '\r'))
        ++I;
      size_t J = I;
      while (J < Line.size() && Line[J] != ' ' && Line[J] != '\t' &&
             Line[J] != '\r')
        ++J;
      if (J > I)
        TokScratch.push_back(Line.substr(I, J - I));
      I = J;
    }
    return TokScratch;
  }

  bool parseInt(std::string_view Tok, int64_t &Out) {
    auto [Ptr, Ec] =
        std::from_chars(Tok.data(), Tok.data() + Tok.size(), Out);
    return Ec == std::errc() && Ptr == Tok.data() + Tok.size();
  }

  /// Parses DIMACS literals from Toks[From..] up to a 0 terminator;
  /// advances From past the terminator. Codes are range-checked before
  /// any arithmetic, so no token can overflow them.
  bool parseLits(const std::vector<std::string_view> &Toks, size_t &From,
                 std::vector<uint32_t> &Out, size_t LineNo) {
    const int64_t Max = static_cast<int64_t>(NumVars);
    for (; From < Toks.size(); ++From) {
      int64_t L;
      if (!parseInt(Toks[From], L))
        return fail(LineNo, "bad literal token");
      if (L == 0) {
        ++From;
        return true;
      }
      if (L < -Max || L > Max)
        return fail(LineNo, "literal over undeclared variable");
      uint32_t V = static_cast<uint32_t>((L < 0 ? -L : L) - 1);
      Out.push_back(codeOf(V, L < 0));
    }
    return fail(LineNo, "missing 0 terminator");
  }

  /// Parses the optional 0-terminated hint (or g row) list at
  /// Toks[From..] into HintScratch (left empty when the record ends
  /// first); it must end the record.
  bool parseHints(const std::vector<std::string_view> &Toks, size_t From,
                  size_t LineNo) {
    HintScratch.clear();
    if (From == Toks.size())
      return true;
    for (; From < Toks.size(); ++From) {
      int64_t H;
      if (!parseInt(Toks[From], H))
        return fail(LineNo, "bad hint token");
      if (H == 0)
        return From + 1 == Toks.size() ||
               fail(LineNo, "trailing tokens after the hint list");
      if (H == std::numeric_limits<int64_t>::min())
        return fail(LineNo, "hint out of range");
      HintScratch.push_back(H);
    }
    return fail(LineNo, "missing 0 terminator");
  }

  /// Parses "rhs var..var 0" into a sorted parity row over variables
  /// 1..\p Max (1-based in the text).
  bool parseRow(const std::vector<std::string_view> &Toks, size_t From,
                uint64_t Max, SparseRow &Out, size_t LineNo) {
    int64_t Rhs;
    if (From >= Toks.size() || !parseInt(Toks[From], Rhs) ||
        (Rhs != 0 && Rhs != 1))
      return fail(LineNo, "bad parity rhs");
    for (++From; From < Toks.size(); ++From) {
      int64_t V;
      if (!parseInt(Toks[From], V))
        return fail(LineNo, "bad parity variable");
      if (V == 0) {
        Out.Rhs = static_cast<uint8_t>(Rhs);
        canonicalize(Out.Vars);
        return true;
      }
      if (V < 1 || static_cast<uint64_t>(V) > Max)
        return fail(LineNo, "parity variable out of range");
      Out.Vars.push_back(static_cast<uint32_t>(V - 1));
    }
    return fail(LineNo, "missing 0 terminator");
  }

  void ensureSpanChecks() {
    if (SpanChecked)
      return;
    SpanChecked = true;
    for (const SparseRow &R : OriginalRows)
      OriginalBasis.insert(R); // contradictions recorded, judged by 't'
  }

  /// Closes the header: builds the stream base and the table.
  void beginStreams() {
    if (State != Phase::Header)
      return;
    State = Phase::Streams;
    Pristine.emplace(NumVars, HeaderClauses);
    Table.emplace(*Pristine);
  }

  bool handleLine(std::string_view Line, size_t LineNo) {
    const std::vector<std::string_view> &Toks = split(Line);
    if (Toks.empty() || Toks[0].front() == '#')
      return true;
    std::string_view Tag = Toks[0];

    if (State == Phase::ExpectMagic) {
      if (Tag != "p" || Toks.size() < 4 || Toks[1] != "veriqec" ||
          Toks[2] != "proof" || Toks[3] != "1")
        return fail(LineNo, "not a veriqec proof (bad magic)");
      State = Phase::Header;
      return true;
    }

    if (Tag == "v") {
      // Literal codes are 2*var+sign in 32 bits.
      // Records already read were range-checked against the old count.
      int64_t N;
      if (State != Phase::Header || Toks.size() != 2 ||
          !parseInt(Toks[1], N) || N < 0 || N > INT32_MAX ||
          !HeaderClauses.empty() || !XorSystem.empty())
        return fail(LineNo, "bad variable-count record");
      NumVars = static_cast<size_t>(N);
      Result.NumVars = NumVars;
      return true;
    }
    if (Tag == "o" || Tag == "b") {
      if (State != Phase::Header)
        return fail(LineNo, "clause record after streams began");
      std::vector<uint32_t> Lits;
      size_t From = 1;
      if (!parseLits(Toks, From, Lits, LineNo))
        return false;
      HeaderClauses.push_back(std::move(Lits));
      ++Result.HeaderClauses;
      return true;
    }
    if (Tag == "x") {
      if (State != Phase::Header)
        return fail(LineNo, "xor record after streams began");
      SparseRow Row;
      if (!parseRow(Toks, 1, NumVars, Row, LineNo))
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
      if (Pe && (Toks.size() < 2 || !parseInt(Toks[1], V) || V < 1 ||
                 V > int64_t{UINT32_MAX} + 1))
        return fail(LineNo, "bad elimination record");
      SparseRow Row;
      if (!parseRow(Toks, Pe ? 2 : 1, uint64_t{UINT32_MAX} + 1, Row, LineNo))
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
      if (Toks.size() != 2 || !parseInt(Toks[1], Slot) || Slot < 0)
        return fail(LineNo, "bad stream record");
      beginStreams();
      Stream.emplace(*Pristine);
      Current = &*Stream;
      ++Result.Streams;
      return true;
    }
    if (Tag == "r") {
      if (Toks.size() != 1)
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
        LitScratch.clear();
        size_t From = 1;
        if (!parseLits(Toks, From, LitScratch, LineNo) ||
            !parseHints(Toks, From, LineNo))
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
        if (Toks.size() != 2 || !parseInt(Toks[1], Serial) || Serial < 1)
          return fail(LineNo, "bad deletion record");
        ++Result.Deletions;
        if (!Current->deleteDerived(static_cast<uint64_t>(Serial)))
          return fail(LineNo, "deletion of an unknown derived clause");
        return true;
      }
      // q: "<core lits> 0 <cube lits> 0 [hints 0]".
      std::vector<uint32_t> Core, Cube;
      size_t From = 1;
      if (!parseLits(Toks, From, Core, LineNo) ||
          !parseLits(Toks, From, Cube, LineNo) ||
          !parseHints(Toks, From, LineNo))
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
      Table->addImplied(std::move(Core));
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
