// Dominator tree over a rooted DAG (§4.4.1 step 2): the nearest common
// dominating barrier is the nearest common ancestor in this tree.
// Implemented with the Cooper–Harvey–Kennedy iterative algorithm.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/digraph.hpp"

namespace bm {

class DominatorTree {
 public:
  /// Builds the dominator tree of all nodes reachable from `root`.
  DominatorTree(const Digraph& g, NodeId root);

  NodeId root() const { return root_; }

  /// Immediate dominator; root's idom is itself; kInvalidNode for nodes
  /// unreachable from root.
  NodeId idom(NodeId n) const { return idom_.at(n); }

  bool reachable(NodeId n) const { return idom_.at(n) != kInvalidNode; }

  /// True iff a dominates b (every path root→b passes through a).
  /// Both must be reachable. Reflexive: dominates(x, x) is true.
  bool dominates(NodeId a, NodeId b) const;

  /// Nearest common dominator of a and b (nearest common ancestor in the
  /// dominator tree). Both must be reachable.
  NodeId common_dominator(NodeId a, NodeId b) const;

  /// Depth in the dominator tree (root = 0).
  std::size_t depth(NodeId n) const;

 private:
  NodeId root_ = kInvalidNode;
  std::vector<NodeId> idom_;
  std::vector<std::size_t> depth_;
};

}  // namespace bm
