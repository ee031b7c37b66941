// Part of the reproduction of "VIP-Tree: An Effective Index for Indoor
// Spatial Queries" (Shao, Cheema, Taniar, Lu — PVLDB 10(4), 2016); all
// section/algorithm references below point into that paper.
//
// The Indoor Partitioning Tree (IP-Tree) of §2.1.
//
// Leaves group adjacent indoor partitions around at most one hallway each;
// levels above are formed by Algorithm 1 (merge nodes sharing the most
// access doors, minimum degree t). Every node stores a distance matrix:
//
//   * leaf N: doors(N) x AD(N) — distance from every door of the leaf to
//     every access door, plus a next-hop door per entry (first door on the
//     path when it stays inside N, first *leaf-access* door when it leaves
//     N, kInvalidId when the path has no intermediate door);
//   * non-leaf N: V(N) x V(N) where V(N) is the union of the children's
//     access doors, with next-hop = first door of V(N) on the path.
//
// All distances are *global* shortest distances (leaf matrices come from
// Dijkstra runs on the D2D graph, non-leaf matrices from Dijkstra runs on
// the level-l graphs of §2.1.2 whose edge weights are themselves global).
//
// Construct with IPTree::Build (or VIPTree::Build to add the §2.2
// materialization). The venue and D2D graph must outlive the tree.

#ifndef VIPTREE_CORE_IP_TREE_H_
#define VIPTREE_CORE_IP_TREE_H_

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/matrix.h"
#include "graph/d2d_graph.h"
#include "model/venue.h"
#include "common/span.h"
#include "common/storage.h"

namespace viptree {

struct TreeNode {
  NodeId id = kInvalidId;
  NodeId parent = kInvalidId;
  int level = 1;  // leaves are level 1, the root has the highest level
  std::vector<NodeId> children;  // empty for leaves

  // Leaf only: member partitions and all their doors (sorted, deduped;
  // doors shared with a neighbouring leaf appear in both leaves).
  std::vector<PartitionId> partitions;
  std::vector<DoorId> doors;

  // AD(N): doors connecting the node's interior to the outside, sorted.
  std::vector<DoorId> access_doors;

  // Non-leaf only: V(N) = union of children's access doors, sorted. Rows
  // and columns of `dist` / `next_hop` index into this vector. For leaves,
  // rows index `doors` and columns index `access_doors`.
  std::vector<DoorId> matrix_doors;

  FlatMatrix<float> dist;
  FlatMatrix<DoorId> next_hop;

  // Half-open interval of leaf DFS indices covered by this subtree,
  // giving O(1) "does node contain leaf X" tests.
  uint32_t leaf_begin = 0;
  uint32_t leaf_end = 0;

  bool is_leaf() const { return children.empty(); }
};

struct IPTreeOptions {
  // Minimum degree t of Algorithm 1 (the paper evaluates t in Fig. 7 and
  // uses t = 2 everywhere else).
  int min_degree = 2;
  // Optional externally supplied partition -> leaf assignment (dense ids);
  // when absent the §2.1.2 assembler is used.
  std::optional<std::vector<int>> forced_leaf_assignment;
};

class IPTree {
 public:
  // The (at most two) leaves containing a door, with the door's row index
  // in each leaf's distance matrix.
  struct DoorLeafEntry {
    NodeId leaf = kInvalidId;
    uint32_t row = 0;
  };
  using DoorLeafPair = std::array<DoorLeafEntry, 2>;
  // Persisted as raw bytes in snapshots (aliased out of the
  // mapped file), so the layout must stay padding-free.
  static_assert(sizeof(DoorLeafPair) == 16,
                "DoorLeafPair must stay a packed 16 bytes");

  // The complete serializable state of a built tree: the nodes (with their
  // distance/next-hop matrices) plus every derived lookup structure, stored
  // verbatim so a reconstructed tree answers queries bit-identically. The
  // flat lookup arrays are Storage, so a zero-copy snapshot load can hand
  // in arena views.
  struct Parts {
    std::vector<TreeNode> nodes;
    NodeId root = kInvalidId;
    size_t num_leaves = 0;
    Storage<NodeId> leaf_of_partition;
    Storage<DoorLeafPair> door_leaves;
    Storage<uint8_t> is_access_door;
    // CSR of partition -> superior doors.
    Storage<uint32_t> superior_offsets;
    Storage<DoorId> superior_doors;
  };

  // Builds the tree over `venue` / `graph` (which must outlive it).
  static IPTree Build(const Venue& venue, const D2DGraph& graph,
                      const IPTreeOptions& options = {});

  // See viptree::ValidationLevel (model/types.h): kStructure skips only
  // the per-cell matrix sweep (distances finite, next-hop entries in
  // range).
  using ValidationLevel = viptree::ValidationLevel;

  // Returns an error description if `parts` is structurally inconsistent
  // with the venue/graph (sizes, id ranges, matrix shapes), std::nullopt if
  // it passes. Semantic validity (the distances being correct) is protected
  // by the snapshot checksums, not re-derived here.
  static std::optional<std::string> ValidateParts(
      const Venue& venue, const Parts& parts,
      ValidationLevel level = ValidationLevel::kFull);

  // Reconstructs a tree from deserialized parts over `venue` / `graph`
  // (which must outlive it). Aborts on malformed input (run ValidateParts
  // first when the parts come from an untrusted file).
  static IPTree FromParts(const Venue& venue, const D2DGraph& graph,
                          Parts parts);

  // Same, for callers that have *just* run ValidateParts themselves (the
  // snapshot loader): skips the redundant validation pass.
  static IPTree FromValidatedParts(const Venue& venue, const D2DGraph& graph,
                                   Parts parts);

  Parts ToParts() const;

  IPTree(const IPTree&) = delete;
  IPTree& operator=(const IPTree&) = delete;
  IPTree(IPTree&&) = default;
  IPTree& operator=(IPTree&&) = default;

  const Venue& venue() const { return *venue_; }
  const D2DGraph& graph() const { return *graph_; }
  const std::vector<TreeNode>& nodes() const { return nodes_; }
  const TreeNode& node(NodeId n) const { return nodes_[n]; }
  NodeId root() const { return root_; }
  size_t num_leaves() const { return num_leaves_; }
  int height() const { return nodes_[root_].level; }

  // The leaf containing partition `p`.
  NodeId LeafOfPartition(PartitionId p) const { return leaf_of_partition_[p]; }

  // The (at most two) leaves containing door `d`, with the door's row index
  // in each leaf's distance matrix.
  Span<const DoorLeafEntry> LeavesOfDoor(DoorId d) const {
    return {door_leaves_[d].data(),
            static_cast<size_t>(door_leaves_[d][1].leaf == kInvalidId ? 1 : 2)};
  }

  // True if `d` is an access door of at least one leaf (the global access
  // door notion of §3.2).
  bool IsAccessDoor(DoorId d) const { return is_access_door_[d]; }

  // Superior doors of a partition (§3.1.1 Definition 2).
  Span<const DoorId> SuperiorDoors(PartitionId p) const {
    return {superior_doors_.data() + superior_offsets_[p],
            superior_offsets_[p + 1] - superior_offsets_[p]};
  }

  bool NodeContainsLeaf(NodeId n, NodeId leaf) const {
    const uint32_t idx = nodes_[leaf].leaf_begin;
    return idx >= nodes_[n].leaf_begin && idx < nodes_[n].leaf_end;
  }
  bool NodeContainsPartition(NodeId n, PartitionId p) const {
    return NodeContainsLeaf(n, LeafOfPartition(p));
  }

  // Lowest common ancestor of two nodes.
  NodeId Lca(NodeId a, NodeId b) const;

  // Distance between two doors of the same node matrix; both must be
  // present (rows/cols as described in TreeNode). Helpers for readability:
  float LeafMatrixDist(const TreeNode& leaf, DoorId door,
                       DoorId access_door) const;
  DoorId LeafMatrixNextHop(const TreeNode& leaf, DoorId door,
                           DoorId access_door) const;

  // Index of `d` within `doors` (binary search); -1 if absent.
  static int IndexOf(Span<const DoorId> doors, DoorId d);

  // Aggregate statistics (Table 1 / Fig. 7 reporting).
  struct Stats {
    size_t num_nodes = 0;
    size_t num_leaves = 0;
    int height = 0;
    double avg_access_doors = 0.0;  // rho
    size_t max_access_doors = 0;
    double avg_children = 0.0;  // f (over non-leaf nodes)
    double avg_superior_doors = 0.0;  // alpha
    size_t max_superior_doors = 0;
    uint64_t memory_bytes = 0;
  };
  Stats ComputeStats() const;

  uint64_t MemoryBytes() const;

 private:
  friend class TreeBuilder;
  friend class VIPTree;  // takes ownership in VIPTree::Extend
  IPTree() = default;

  const Venue* venue_ = nullptr;
  const D2DGraph* graph_ = nullptr;
  std::vector<TreeNode> nodes_;
  NodeId root_ = kInvalidId;
  size_t num_leaves_ = 0;
  Storage<NodeId> leaf_of_partition_;
  Storage<DoorLeafPair> door_leaves_;
  Storage<uint8_t> is_access_door_;
  // CSR of partition -> superior doors.
  Storage<uint32_t> superior_offsets_;
  Storage<DoorId> superior_doors_;
};

}  // namespace viptree

#endif  // VIPTREE_CORE_IP_TREE_H_
