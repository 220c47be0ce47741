//===- engine/CubeTree.h - The cube tree of one cube set --------*- C++ -*-===//
//
// Part of the veriqec project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one cube tree of a cube-and-conquer solve. Its root path is the
/// bound every cube assumes (empty for verification, the probe's weight
/// assumptions in the distance search); it grows by splitting leaves with
/// the paper's ET cut (Section 7.1 / Appendix D.4); its leaves are the
/// cubes a CubeBackend discharges; and its internal nodes are the
/// certificate's trailer (proof/ProofLog.h). A node is 12 bytes.
///
//===----------------------------------------------------------------------===//

#ifndef VERIQEC_ENGINE_CUBETREE_H
#define VERIQEC_ENGINE_CUBETREE_H

#include "sat/SatTypes.h"

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

namespace veriqec::engine {

class CubeTree {
public:
  /// A one-leaf tree whose single cube is \p Bound.
  explicit CubeTree(std::vector<sat::Lit> Bound = {});

  /// Splits leaf \p Leaf on \p V into a zero child (~V, listed first)
  /// and, unless \p DropOne, a one child (V). Returns the zero child's
  /// index; the one child's is the next. The root is node 0.
  uint32_t split(uint32_t Leaf, sat::Var V, bool DropOne = false);

  /// Grows a one-leaf tree by the ET cut over \p SplitVars, threshold by
  /// threshold from 1: a leaf that has placed `bits` split variables,
  /// `ones` of them positive, splits on SplitVars[bits] while
  /// 2*Distance*ones + bits <= the threshold, dropping its one branch
  /// once `ones` reaches \p MaxOnes. Stops at the first threshold whose
  /// tree has \p TargetLeaves leaves, or at \p MaxThreshold. Returns the
  /// threshold it stopped at: 0 (no split) when \p MaxThreshold is 0 or
  /// \p SplitVars is empty.
  uint32_t growEt(std::span<const sat::Var> SplitVars, uint32_t Distance,
                  uint32_t MaxOnes, uint32_t MaxThreshold,
                  uint64_t TargetLeaves = UINT64_MAX);

  std::span<const sat::Lit> bound() const { return Bound; }
  size_t numLeaves() const { return Leaves; }
  size_t numNodes() const { return Nodes.size(); }

  /// The leaves in zero-first depth-first order, each led by the bound.
  std::vector<std::vector<sat::Lit>> cubes() const;

  /// Calls \p Visit with the path below the bound of every internal
  /// node in post-order (one subtree, zero subtree, node): root last.
  void forEachInternalPostOrder(
      const std::function<void(std::span<const sat::Lit>)> &Visit) const;

private:
  struct Node {
    sat::Lit Lit;               ///< the branch literal; unused at the root
    uint32_t Zero = 0, One = 0; ///< children; 0 is none
  };
  std::vector<sat::Lit> Bound;
  std::vector<Node> Nodes;
  size_t Leaves = 1;
};

} // namespace veriqec::engine

#endif // VERIQEC_ENGINE_CUBETREE_H
