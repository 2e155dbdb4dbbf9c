#include "graph/dominators.hpp"

#include <algorithm>

#include "support/scratch.hpp"

namespace bm {

DominatorTree::DominatorTree(const Digraph& g, NodeId root) {
  const std::size_t n = g.size();
  BM_REQUIRE(root < n, "root out of range");
  root_ = root;
  idom_.assign(n, kInvalidNode);
  depth_.assign(n, 0);

  // Reverse postorder of nodes reachable from root (iterative DFS), with
  // all traversal state in pooled scratch.
  ScratchVec<NodeId> rpo_s;
  ScratchVec<std::uint8_t> state_s;  // 0=unseen 1=open 2=done
  ScratchVec<std::pair<NodeId, std::uint32_t>> stack_s;
  ScratchVec<std::size_t> rpo_index_s;
  auto& rpo = *rpo_s;
  auto& state = *state_s;
  auto& stack = *stack_s;
  auto& rpo_index = *rpo_index_s;
  rpo.clear();
  state.assign(n, 0);
  stack.clear();
  stack.emplace_back(root, 0);
  state[root] = 1;
  while (!stack.empty()) {
    auto& [v, next_child] = stack.back();
    if (next_child < g.succs(v).size()) {
      const NodeId s = g.succs(v)[next_child++];
      if (state[s] == 0) {
        state[s] = 1;
        stack.emplace_back(s, 0);
      }
    } else {
      state[v] = 2;
      rpo.push_back(v);
      stack.pop_back();
    }
  }
  std::reverse(rpo.begin(), rpo.end());
  rpo_index.assign(n, ~std::size_t{0});
  for (std::size_t i = 0; i < rpo.size(); ++i) rpo_index[rpo[i]] = i;

  idom_[root] = root;

  auto intersect = [&](NodeId a, NodeId b) {
    while (a != b) {
      while (rpo_index[a] > rpo_index[b]) a = idom_[a];
      while (rpo_index[b] > rpo_index[a]) b = idom_[b];
    }
    return a;
  };

  bool changed = true;
  while (changed) {
    changed = false;
    for (NodeId v : rpo) {
      if (v == root) continue;
      NodeId new_idom = kInvalidNode;
      for (const NodeId p : g.preds(v)) {
        if (idom_[p] == kInvalidNode) continue;  // pred not processed yet
        new_idom = (new_idom == kInvalidNode) ? p : intersect(p, new_idom);
      }
      if (new_idom != kInvalidNode && idom_[v] != new_idom) {
        idom_[v] = new_idom;
        changed = true;
      }
    }
  }

  for (NodeId v : rpo) {
    if (v == root) continue;
    BM_ASSERT_INTERNAL(idom_[v] != kInvalidNode, "reachable node has no idom");
    depth_[v] = depth_[idom_[v]] + 1;
  }
}

bool DominatorTree::dominates(NodeId a, NodeId b) const {
  BM_REQUIRE(reachable(a) && reachable(b), "node unreachable from root");
  while (depth_[b] > depth_[a]) b = idom_[b];
  return a == b;
}

NodeId DominatorTree::common_dominator(NodeId a, NodeId b) const {
  BM_REQUIRE(reachable(a) && reachable(b), "node unreachable from root");
  while (a != b) {
    if (depth_[a] >= depth_[b])
      a = idom_[a];
    else
      b = idom_[b];
  }
  return a;
}

std::size_t DominatorTree::depth(NodeId n) const {
  BM_REQUIRE(reachable(n), "node unreachable from root");
  return depth_[n];
}

}  // namespace bm
