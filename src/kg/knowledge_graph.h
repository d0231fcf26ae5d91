// Property-graph knowledge graph in the WikiData mold: entities with
// labels/aliases/descriptions, typed predicates (with distinguished
// `instance of` / `subclass of`), and one-hop neighbourhood queries — the
// exact surface KGLink's Part-1 algorithms consume.
//
// The graph has one layout. AddEntity/AddPredicate/AddTriple only build
// it; Finalize() compacts the triples into CSR arrays (per-entity edge
// runs and sorted, deduplicated neighbour runs) plus a qid-sorted and a
// (label, id)-sorted entity index. Those are exactly the arrays the
// snapshot store serializes, so FromFrozen() points the same query
// pointers at a read-only snapshot mapping instead of at owned arrays.
// Every query reads through those pointers: a built graph and a mapped
// one cannot differ, and the snapshot parity tests pin them equal.
#ifndef KGLINK_KG_KNOWLEDGE_GRAPH_H_
#define KGLINK_KG_KNOWLEDGE_GRAPH_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "util/span.h"
#include "util/status.h"

namespace kglink::kg {

using EntityId = int32_t;
using PredicateId = int32_t;
inline constexpr EntityId kInvalidEntity = -1;

// A node in the KG. `is_person` / `is_date` carry the named-entity schema
// tags the paper obtains from spaCy (used by the candidate-type filter);
// `is_type` marks class entities (objects of `instance of` / `subclass of`).
struct Entity {
  std::string qid;          // external identifier, e.g. "Q42"
  std::string label;        // primary surface form
  std::vector<std::string> aliases;
  std::string description;
  bool is_type = false;
  bool is_person = false;
  bool is_date = false;
};

// A directed labelled edge viewed from some entity. The layout is pinned
// (see the static_asserts below) because the snapshot store serializes
// edge arrays field-by-field into exactly this byte pattern and a mapped
// graph reinterprets the mapping in place.
struct Edge {
  PredicateId predicate;
  EntityId target;
  bool forward;  // true: this entity is the subject
};
static_assert(sizeof(Edge) == 12 && alignof(Edge) == 4,
              "Edge layout is part of the snapshot format");
static_assert(offsetof(Edge, predicate) == 0 && offsetof(Edge, target) == 4 &&
                  offsetof(Edge, forward) == 8,
              "Edge layout is part of the snapshot format");

// Borrowed view of a finalized topology: the flat CSR arrays and sorted
// lookup indexes, owned by a finalized graph or by a read-only snapshot
// mapping that must outlive any graph constructed from it.
struct FrozenTopologyView {
  uint64_t num_entities = 0;
  const Edge* edges = nullptr;             // [edge_offsets[num_entities]]
  const uint64_t* edge_offsets = nullptr;  // [num_entities + 1]
  const EntityId* neighbors = nullptr;  // [neighbor_offsets[num_entities]]
  const uint64_t* neighbor_offsets = nullptr;  // [num_entities + 1]
  // The entities with a non-empty qid, in strictly ascending qid order.
  const EntityId* qid_sorted = nullptr;  // [qid_sorted_count]
  uint64_t qid_sorted_count = 0;
  // Every entity, in (label, id) order.
  const EntityId* label_sorted = nullptr;  // [num_entities]
};

class KnowledgeGraph {
 public:
  // Distinguished predicates, created by the constructor.
  static constexpr PredicateId kInstanceOf = 0;
  static constexpr PredicateId kSubclassOf = 1;

  KnowledgeGraph();

  // Move-only: the finalized arrays are reached through raw pointers (owned
  // heap arrays or a borrowed mapping) that stay valid across moves but
  // would dangle across a naive copy.
  KnowledgeGraph(const KnowledgeGraph&) = delete;
  KnowledgeGraph& operator=(const KnowledgeGraph&) = delete;
  KnowledgeGraph(KnowledgeGraph&&) = default;
  KnowledgeGraph& operator=(KnowledgeGraph&&) = default;

  // ----- construction -----
  // Mutators are a checked programming error once the graph is finalized.
  EntityId AddEntity(Entity entity);
  PredicateId AddPredicate(const std::string& label);
  void AddTriple(EntityId subject, PredicateId predicate, EntityId object);

  // Freezes the graph: lays the edges out per entity (insertion order, a
  // forward edge at the subject and a reverse one at the object), builds
  // each entity's sorted neighbour run and sorts the qid and label
  // indexes. Must be called once, before any topology or lookup query.
  // Two entities sharing a non-empty qid are reported as kCorruption and
  // leave the graph unfinalized.
  Status Finalize();

  // Borrowed view over the finalized arrays, for snapshot serialization.
  // Valid only while the graph is alive. Requires finalized().
  FrozenTopologyView View() const;

  // Constructs a finalized graph whose topology and indexes *borrow*
  // `topo`'s arrays — nothing is copied; only the entity and predicate
  // metadata are owned. The memory behind `topo` must outlive the graph.
  // The caller must have validated the view (bounds, sorted runs and
  // indexes, two edges per triple); the snapshot loader does.
  static KnowledgeGraph FromFrozen(std::vector<Entity> entities,
                                   std::vector<std::string> predicate_labels,
                                   const FrozenTopologyView& topo);

  bool finalized() const { return finalized_; }
  // True when the arrays live in external memory (FromFrozen).
  bool borrowed() const { return borrowed_; }

  // ----- lookup -----
  int64_t num_entities() const { return static_cast<int64_t>(entities_.size()); }
  int64_t num_triples() const { return num_triples_; }
  int64_t num_predicates() const {
    return static_cast<int64_t>(predicate_labels_.size());
  }
  const Entity& entity(EntityId id) const;
  const std::string& predicate_label(PredicateId id) const;
  EntityId FindByQid(const std::string& qid) const;
  // All entities whose primary label matches exactly (case-sensitive), in
  // ascending id order.
  std::vector<EntityId> FindByLabel(const std::string& label) const;

  // ----- topology -----
  // All edges incident to `id` (both directions), insertion order.
  Span<Edge> Edges(EntityId id) const;
  // Deduplicated, sorted one-hop neighbour entity ids (both directions).
  // Like every query on a finalized graph, a plain read of immutable
  // arrays: safe from any number of threads.
  Span<EntityId> NeighborSet(EntityId id) const;
  // True if `candidate` is a one-hop neighbour of `id`.
  bool IsNeighbor(EntityId id, EntityId candidate) const;

  // Objects of `id --instance of--> *`.
  std::vector<EntityId> InstanceTypes(EntityId id) const;
  // Transitive closure of `subclass of` starting from (and excluding) `id`.
  std::vector<EntityId> SuperClasses(EntityId id) const;
  // True if `a` equals `b` or `b` is in a's subclass-of closure.
  bool IsSubtypeOf(EntityId a, EntityId b) const;

  // ----- persistence (TSV) -----
  Status SaveToFile(const std::string& path) const;
  // Returns a finalized graph; kCorruption on a malformed file.
  static StatusOr<KnowledgeGraph> LoadFromFile(const std::string& path);

 private:
  struct Triple {
    EntityId subject;
    PredicateId predicate;
    EntityId object;
  };

  // Checked index of `id` into the finalized topology.
  size_t Slot(EntityId id) const;

  std::vector<Entity> entities_;
  std::vector<std::string> predicate_labels_;
  int64_t num_triples_ = 0;
  bool finalized_ = false;
  bool borrowed_ = false;
  // Build-time triples in insertion order; released by Finalize().
  std::vector<Triple> triples_;

  // Arrays Finalize() builds (empty when borrowed).
  std::vector<Edge> owned_edges_;
  std::vector<uint64_t> owned_edge_offsets_;
  std::vector<EntityId> owned_neighbors_;
  std::vector<uint64_t> owned_neighbor_offsets_;
  std::vector<EntityId> owned_qid_sorted_;
  std::vector<EntityId> owned_label_sorted_;

  // The query path reads only this; it points at the owned arrays above or
  // at a snapshot mapping. Stable across moves either way.
  FrozenTopologyView topo_;
};

}  // namespace kglink::kg

#endif  // KGLINK_KG_KNOWLEDGE_GRAPH_H_
