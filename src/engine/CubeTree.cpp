//===- engine/CubeTree.cpp - The cube tree of one cube set ----------------===//
//
// Part of the veriqec project.
//
//===----------------------------------------------------------------------===//

#include "engine/CubeTree.h"

#include "support/Assert.h"

#include <algorithm>
#include <utility>

using namespace veriqec;
using namespace veriqec::engine;
using sat::Lit;
using sat::Var;

CubeTree::CubeTree(std::vector<Lit> Bound) : Bound(std::move(Bound)) {
  Nodes.emplace_back();
}

uint32_t CubeTree::split(uint32_t Leaf, Var V, bool DropOne) {
  if (Leaf >= Nodes.size() || Nodes[Leaf].Zero || Nodes.size() > UINT32_MAX - 2)
    fatalError("CubeTree::split: not a leaf, or the tree is full");
  uint32_t Zero = static_cast<uint32_t>(Nodes.size());
  Nodes[Leaf].Zero = Zero;
  Nodes.push_back({~sat::mkLit(V)});
  if (!DropOne) {
    Nodes[Leaf].One = Zero + 1;
    Nodes.push_back({sat::mkLit(V)});
    ++Leaves;
  }
  return Zero;
}

uint32_t CubeTree::growEt(std::span<const Var> SplitVars, uint32_t Distance,
                          uint32_t MaxOnes, uint32_t MaxThreshold,
                          uint64_t TargetLeaves) {
  if (Nodes.size() != 1)
    fatalError("CubeTree::growEt: the tree is already split");
  if (MaxThreshold == 0 || SplitVars.empty())
    return 0;
  // The leaves that may still split, by ET. A child's ET exceeds its
  // parent's, so raising the threshold to T splits exactly the buckets
  // up to T, in order, and never revisits one. No leaf splits past Top.
  struct Open {
    uint32_t Node, Bits, Ones;
  };
  uint64_t N = SplitVars.size();
  uint64_t MaxEt = 2ull * Distance * std::min<uint64_t>(MaxOnes, N) + N;
  uint32_t Top = static_cast<uint32_t>(std::min<uint64_t>(MaxThreshold, MaxEt));
  std::vector<std::vector<Open>> ByEt(Top + 1);
  auto open = [&](uint32_t Node, uint32_t Bits, uint32_t Ones) {
    uint64_t Et = 2ull * Distance * Ones + Bits;
    if (Bits < N && Et <= Top)
      ByEt[Et].push_back({Node, Bits, Ones});
  };
  open(0, 0, 0);
  for (uint32_t T = 1, Et = 0;; ++T) {
    for (; Et <= std::min(T, Top); ++Et)
      for (const Open &O : std::exchange(ByEt[Et], {})) {
        bool DropOne = O.Ones >= MaxOnes;
        uint32_t Zero = split(O.Node, SplitVars[O.Bits], DropOne);
        open(Zero, O.Bits + 1, O.Ones);
        if (!DropOne)
          open(Zero + 1, O.Bits + 1, O.Ones + 1);
      }
    if (Leaves >= TargetLeaves)
      return T;
    if (T >= Top)
      return MaxThreshold; // the tree of every threshold from Top on
  }
}

std::vector<std::vector<Lit>> CubeTree::cubes() const {
  std::vector<std::vector<Lit>> Out;
  Out.reserve(Leaves);
  std::vector<Lit> Path = Bound;
  auto List = [&](auto &Self, uint32_t N) -> void {
    if (!Nodes[N].Zero)
      return Out.push_back(Path);
    for (uint32_t C : {Nodes[N].Zero, Nodes[N].One})
      if (C) {
        Path.push_back(Nodes[C].Lit);
        Self(Self, C);
        Path.pop_back();
      }
  };
  List(List, 0);
  return Out;
}

void CubeTree::forEachInternalPostOrder(
    const std::function<void(std::span<const Lit>)> &Visit) const {
  std::vector<Lit> Path;
  auto Walk = [&](auto &Self, uint32_t N) -> void {
    if (!Nodes[N].Zero)
      return;
    for (uint32_t C : {Nodes[N].One, Nodes[N].Zero})
      if (C) {
        Path.push_back(Nodes[C].Lit);
        Self(Self, C);
        Path.pop_back();
      }
    Visit(Path);
  };
  Walk(Walk, 0);
}
