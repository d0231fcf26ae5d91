#include "kg/knowledge_graph.h"

#include <algorithm>
#include <cstddef>
#include <utility>

#include "util/csv.h"
#include "util/string_util.h"

namespace kglink::kg {

KnowledgeGraph::KnowledgeGraph() {
  PredicateId inst = AddPredicate("instance of");
  PredicateId sub = AddPredicate("subclass of");
  KGLINK_CHECK_EQ(inst, kInstanceOf);
  KGLINK_CHECK_EQ(sub, kSubclassOf);
}

EntityId KnowledgeGraph::AddEntity(Entity entity) {
  KGLINK_CHECK(!finalized_) << "AddEntity on a frozen (finalized) graph";
  entities_.push_back(std::move(entity));
  return static_cast<EntityId>(entities_.size() - 1);
}

PredicateId KnowledgeGraph::AddPredicate(const std::string& label) {
  KGLINK_CHECK(!finalized_) << "AddPredicate on a frozen (finalized) graph";
  predicate_labels_.push_back(label);
  return static_cast<PredicateId>(predicate_labels_.size() - 1);
}

void KnowledgeGraph::AddTriple(EntityId subject, PredicateId predicate,
                               EntityId object) {
  KGLINK_CHECK(!finalized_) << "AddTriple on a frozen (finalized) graph";
  KGLINK_CHECK(subject >= 0 && subject < num_entities());
  KGLINK_CHECK(object >= 0 && object < num_entities());
  KGLINK_CHECK(predicate >= 0 && predicate < num_predicates());
  triples_.push_back({subject, predicate, object});
  ++num_triples_;
}

Status KnowledgeGraph::Finalize() {
  KGLINK_CHECK(!finalized_) << "Finalize called twice";
  const size_t n = entities_.size();
  auto qid_of = [this](EntityId id) -> const std::string& {
    return entities_[static_cast<size_t>(id)].qid;
  };
  auto label_of = [this](EntityId id) -> const std::string& {
    return entities_[static_cast<size_t>(id)].label;
  };

  // Lookup indexes first, so a duplicate qid fails before anything else
  // is built.
  std::vector<EntityId> qid_sorted;
  std::vector<EntityId> label_sorted(n);
  for (size_t i = 0; i < n; ++i) {
    const EntityId id = static_cast<EntityId>(i);
    if (!qid_of(id).empty()) qid_sorted.push_back(id);
    label_sorted[i] = id;
  }
  std::sort(qid_sorted.begin(), qid_sorted.end(),
            [&](EntityId a, EntityId b) { return qid_of(a) < qid_of(b); });
  for (size_t i = 1; i < qid_sorted.size(); ++i) {
    if (qid_of(qid_sorted[i - 1]) == qid_of(qid_sorted[i])) {
      return Status::Corruption("duplicate qid " + qid_of(qid_sorted[i]));
    }
  }
  std::sort(label_sorted.begin(), label_sorted.end(),
            [&](EntityId a, EntityId b) {
              const std::string& la = label_of(a);
              const std::string& lb = label_of(b);
              return la != lb ? la < lb : a < b;
            });

  // Edge runs: a counting sort of the triples, which keeps each entity's
  // edges in insertion order.
  owned_edge_offsets_.assign(n + 1, 0);
  for (const Triple& t : triples_) {
    ++owned_edge_offsets_[static_cast<size_t>(t.subject) + 1];
    ++owned_edge_offsets_[static_cast<size_t>(t.object) + 1];
  }
  for (size_t i = 0; i < n; ++i) {
    owned_edge_offsets_[i + 1] += owned_edge_offsets_[i];
  }
  owned_edges_.resize(owned_edge_offsets_[n]);
  std::vector<uint64_t> cursor(owned_edge_offsets_.begin(),
                               owned_edge_offsets_.end() - 1);
  for (const Triple& t : triples_) {
    owned_edges_[cursor[static_cast<size_t>(t.subject)]++] = {
        t.predicate, t.object, /*forward=*/true};
    owned_edges_[cursor[static_cast<size_t>(t.object)]++] = {
        t.predicate, t.subject, /*forward=*/false};
  }
  std::vector<Triple>().swap(triples_);

  // Neighbour runs: each entity's edge targets, sorted and deduplicated.
  owned_neighbor_offsets_.assign(1, 0);
  owned_neighbor_offsets_.reserve(n + 1);
  owned_neighbors_.reserve(owned_edges_.size());
  for (size_t i = 0; i < n; ++i) {
    const size_t begin = owned_neighbors_.size();
    for (uint64_t e = owned_edge_offsets_[i]; e < owned_edge_offsets_[i + 1];
         ++e) {
      owned_neighbors_.push_back(owned_edges_[e].target);
    }
    auto first = owned_neighbors_.begin() + static_cast<std::ptrdiff_t>(begin);
    std::sort(first, owned_neighbors_.end());
    owned_neighbors_.erase(std::unique(first, owned_neighbors_.end()),
                           owned_neighbors_.end());
    owned_neighbor_offsets_.push_back(owned_neighbors_.size());
  }
  owned_qid_sorted_ = std::move(qid_sorted);
  owned_label_sorted_ = std::move(label_sorted);

  topo_.num_entities = n;
  topo_.edges = owned_edges_.data();
  topo_.edge_offsets = owned_edge_offsets_.data();
  topo_.neighbors = owned_neighbors_.data();
  topo_.neighbor_offsets = owned_neighbor_offsets_.data();
  topo_.qid_sorted = owned_qid_sorted_.data();
  topo_.qid_sorted_count = owned_qid_sorted_.size();
  topo_.label_sorted = owned_label_sorted_.data();
  finalized_ = true;
  return Status::Ok();
}

FrozenTopologyView KnowledgeGraph::View() const {
  KGLINK_CHECK(finalized_) << "View() before Finalize";
  return topo_;
}

KnowledgeGraph KnowledgeGraph::FromFrozen(
    std::vector<Entity> entities, std::vector<std::string> predicate_labels,
    const FrozenTopologyView& topo) {
  KGLINK_CHECK_EQ(static_cast<int64_t>(topo.num_entities),
                  static_cast<int64_t>(entities.size()));
  KGLINK_CHECK(predicate_labels.size() >= 2 &&
               predicate_labels[0] == "instance of" &&
               predicate_labels[1] == "subclass of")
      << "frozen predicate table missing the built-in predicates";
  KnowledgeGraph kg;
  kg.predicate_labels_ = std::move(predicate_labels);
  kg.entities_ = std::move(entities);
  // Every triple is stored as a forward and a reverse edge.
  kg.num_triples_ =
      static_cast<int64_t>(topo.edge_offsets[topo.num_entities] / 2);
  kg.topo_ = topo;
  kg.finalized_ = true;
  kg.borrowed_ = true;
  return kg;
}

const Entity& KnowledgeGraph::entity(EntityId id) const {
  KGLINK_CHECK(id >= 0 && id < num_entities()) << "bad entity id " << id;
  return entities_[static_cast<size_t>(id)];
}

const std::string& KnowledgeGraph::predicate_label(PredicateId id) const {
  KGLINK_CHECK(id >= 0 && id < num_predicates());
  return predicate_labels_[static_cast<size_t>(id)];
}

size_t KnowledgeGraph::Slot(EntityId id) const {
  // One compare: a negative id wraps high, and an unfinalized graph has an
  // empty topology.
  KGLINK_CHECK(static_cast<uint64_t>(id) < topo_.num_entities)
      << "bad entity id " << id << ", or a query before Finalize";
  return static_cast<size_t>(id);
}

EntityId KnowledgeGraph::FindByQid(const std::string& qid) const {
  KGLINK_CHECK(finalized_) << "KnowledgeGraph query before Finalize";
  if (qid.empty()) return kInvalidEntity;  // empty qids are never indexed
  const EntityId* end = topo_.qid_sorted + topo_.qid_sorted_count;
  const EntityId* it = std::lower_bound(
      topo_.qid_sorted, end, qid, [this](EntityId id, const std::string& q) {
        return entities_[static_cast<size_t>(id)].qid < q;
      });
  if (it != end && entities_[static_cast<size_t>(*it)].qid == qid) return *it;
  return kInvalidEntity;
}

std::vector<EntityId> KnowledgeGraph::FindByLabel(
    const std::string& label) const {
  KGLINK_CHECK(finalized_) << "KnowledgeGraph query before Finalize";
  const EntityId* end = topo_.label_sorted + topo_.num_entities;
  const EntityId* lo = std::lower_bound(
      topo_.label_sorted, end, label,
      [this](EntityId id, const std::string& l) {
        return entities_[static_cast<size_t>(id)].label < l;
      });
  std::vector<EntityId> out;
  for (; lo != end && entities_[static_cast<size_t>(*lo)].label == label;
       ++lo) {
    out.push_back(*lo);
  }
  return out;
}

Span<Edge> KnowledgeGraph::Edges(EntityId id) const {
  const size_t i = Slot(id);
  const uint64_t begin = topo_.edge_offsets[i];
  return {topo_.edges + begin,
          static_cast<size_t>(topo_.edge_offsets[i + 1] - begin)};
}

Span<EntityId> KnowledgeGraph::NeighborSet(EntityId id) const {
  const size_t i = Slot(id);
  const uint64_t begin = topo_.neighbor_offsets[i];
  return {topo_.neighbors + begin,
          static_cast<size_t>(topo_.neighbor_offsets[i + 1] - begin)};
}

bool KnowledgeGraph::IsNeighbor(EntityId id, EntityId candidate) const {
  Span<EntityId> nbrs = NeighborSet(id);
  return std::binary_search(nbrs.begin(), nbrs.end(), candidate);
}

std::vector<EntityId> KnowledgeGraph::InstanceTypes(EntityId id) const {
  std::vector<EntityId> out;
  for (const Edge& e : Edges(id)) {
    if (e.forward && e.predicate == kInstanceOf) out.push_back(e.target);
  }
  return out;
}

std::vector<EntityId> KnowledgeGraph::SuperClasses(EntityId id) const {
  std::vector<EntityId> out;
  std::vector<EntityId> frontier = {id};
  std::vector<bool> seen(static_cast<size_t>(num_entities()), false);
  seen[static_cast<size_t>(id)] = true;
  while (!frontier.empty()) {
    EntityId cur = frontier.back();
    frontier.pop_back();
    for (const Edge& e : Edges(cur)) {
      if (e.forward && e.predicate == kSubclassOf &&
          !seen[static_cast<size_t>(e.target)]) {
        seen[static_cast<size_t>(e.target)] = true;
        out.push_back(e.target);
        frontier.push_back(e.target);
      }
    }
  }
  return out;
}

bool KnowledgeGraph::IsSubtypeOf(EntityId a, EntityId b) const {
  if (a == b) return true;
  for (EntityId super : SuperClasses(a)) {
    if (super == b) return true;
  }
  return false;
}

// ----- persistence -----
//
// Format (TSV, one record per line):
//   E <qid> <label> <flags TPD-> <description> <alias1;alias2;...>
//   P <label>                       (predicates beyond the two built-ins)
//   T <subject-id> <predicate-id> <object-id>

Status KnowledgeGraph::SaveToFile(const std::string& path) const {
  std::string out;
  for (PredicateId p = 2; p < num_predicates(); ++p) {
    out += "P\t" + predicate_labels_[static_cast<size_t>(p)] + "\n";
  }
  for (const Entity& e : entities_) {
    std::string flags;
    if (e.is_type) flags += 'T';
    if (e.is_person) flags += 'P';
    if (e.is_date) flags += 'D';
    if (flags.empty()) flags = "-";
    out += "E\t" + e.qid + "\t" + e.label + "\t" + flags + "\t" +
           e.description + "\t" + Join(e.aliases, ";") + "\n";
  }
  for (EntityId s = 0; s < num_entities(); ++s) {
    for (const Edge& e : Edges(s)) {
      if (!e.forward) continue;
      out += "T\t" + std::to_string(s) + "\t" + std::to_string(e.predicate) +
             "\t" + std::to_string(e.target) + "\n";
    }
  }
  return WriteFile(path, out);
}

StatusOr<KnowledgeGraph> KnowledgeGraph::LoadFromFile(
    const std::string& path) {
  KGLINK_ASSIGN_OR_RETURN(std::string text, ReadFile(path));
  KnowledgeGraph kg;
  for (const auto& line : Split(text, '\n')) {
    if (line.empty()) continue;
    auto fields = Split(line, '\t');
    if (fields[0] == "P") {
      if (fields.size() != 2) return Status::Corruption("bad P record");
      kg.AddPredicate(fields[1]);
    } else if (fields[0] == "E") {
      if (fields.size() != 6) return Status::Corruption("bad E record");
      Entity e;
      e.qid = fields[1];
      e.label = fields[2];
      e.is_type = fields[3].find('T') != std::string::npos;
      e.is_person = fields[3].find('P') != std::string::npos;
      e.is_date = fields[3].find('D') != std::string::npos;
      e.description = fields[4];
      if (!fields[5].empty()) e.aliases = Split(fields[5], ';');
      kg.AddEntity(std::move(e));
    } else if (fields[0] == "T") {
      if (fields.size() != 4) return Status::Corruption("bad T record");
      int s = 0, p = 0, o = 0;
      double tmp = 0;
      if (!ParseDouble(fields[1], &tmp)) return Status::Corruption("bad T");
      s = static_cast<int>(tmp);
      if (!ParseDouble(fields[2], &tmp)) return Status::Corruption("bad T");
      p = static_cast<int>(tmp);
      if (!ParseDouble(fields[3], &tmp)) return Status::Corruption("bad T");
      o = static_cast<int>(tmp);
      if (s < 0 || s >= kg.num_entities() || o < 0 ||
          o >= kg.num_entities() || p < 0 || p >= kg.num_predicates()) {
        return Status::Corruption("triple references unknown id");
      }
      kg.AddTriple(s, p, o);
    } else {
      return Status::Corruption("unknown record type: " + fields[0]);
    }
  }
  KGLINK_RETURN_IF_ERROR(kg.Finalize());
  return kg;
}

}  // namespace kglink::kg
