#include "store/snapshot.h"

#include <algorithm>
#include <cstring>
#include <string_view>
#include <thread>
#include <utility>

#include "robust/fault_injector.h"
#include "util/crc32.h"

namespace kglink::store {

namespace {

Status CorruptSection(SectionId id, const std::string& why) {
  return Status::Corruption(std::string("section ") + SectionName(id) + ": " +
                            why);
}

uint64_t AlignUp(uint64_t v) {
  return (v + kSectionAlign - 1) / kSectionAlign * kSectionAlign;
}

}  // namespace

const char* SectionName(SectionId id) {
  switch (id) {
    case SectionId::kSearchMeta: return "search.meta";
    case SectionId::kSearchDocLens: return "search.doc_lens";
    case SectionId::kSearchDocNorms: return "search.doc_norms";
    case SectionId::kSearchDocIds: return "search.doc_ids";
    case SectionId::kSearchTermEntries: return "search.term_entries";
    case SectionId::kSearchTermBlob: return "search.term_blob";
    case SectionId::kSearchPostings: return "search.postings";
    case SectionId::kKgMeta: return "kg.meta";
    case SectionId::kKgStrings: return "kg.strings";
    case SectionId::kKgEntities: return "kg.entities";
    case SectionId::kKgAliases: return "kg.aliases";
    case SectionId::kKgPredicates: return "kg.predicates";
    case SectionId::kKgEdgeOffsets: return "kg.edge_offsets";
    case SectionId::kKgEdges: return "kg.edges";
    case SectionId::kKgNeighborOffsets: return "kg.neighbor_offsets";
    case SectionId::kKgNeighbors: return "kg.neighbors";
    case SectionId::kKgQidIndex: return "kg.qid_index";
    case SectionId::kKgLabelIndex: return "kg.label_index";
  }
  return "unknown";
}

StatusOr<std::unique_ptr<Snapshot>> Snapshot::Open(
    const std::string& path, const LoadOptions& options) {
  // "store.load" fault: the load step fails transiently (a vanished file,
  // an allocation failure). Distinct from corruption — no quarantine.
  if (robust::MaybeInject(robust::FaultSite::kStoreLoad)) {
    return Status::IoError("injected store.load fault: " + path);
  }
  KGLINK_ASSIGN_OR_RETURN(MappedFile file, MappedFile::Open(path));
  const uint64_t size = file.size();
  const uint64_t min_size =
      sizeof(SnapshotHeader) + sizeof(uint32_t) + kFooterBytes;
  if (size < min_size) {
    return Status::Corruption("snapshot too small: " + path);
  }

  SnapshotHeader header;
  std::memcpy(&header, file.data(), sizeof(header));
  if (header.magic != kSnapshotMagic) {
    return Status::Corruption("bad snapshot magic: " + path);
  }
  if (header.format_version > kSnapshotFormatVersion) {
    return Status::VersionSkew(
        "snapshot format v" + std::to_string(header.format_version) +
        " is newer than this binary's v" +
        std::to_string(kSnapshotFormatVersion) + ": " + path);
  }
  if (header.format_version != kSnapshotFormatVersion) {
    return Status::Corruption("unsupported snapshot version v" +
                              std::to_string(header.format_version) + ": " +
                              path);
  }
  // A size mismatch is the truncation signature: the header said how many
  // bytes were published, the filesystem disagrees.
  if (header.file_size != size) {
    return Status::Corruption("snapshot size mismatch (truncated?): " + path);
  }
  if (header.section_count == 0 || header.section_count > 1024) {
    return Status::Corruption("implausible section count: " + path);
  }
  const uint64_t header_area = sizeof(SnapshotHeader) +
                               header.section_count * sizeof(SectionEntry) +
                               sizeof(uint32_t);
  if (AlignUp(header_area) + kFooterBytes > size) {
    return Status::Corruption("section table exceeds file: " + path);
  }
  uint32_t stored_header_crc = 0;
  std::memcpy(&stored_header_crc,
              file.data() + header_area - sizeof(uint32_t), sizeof(uint32_t));
  if (Crc32({file.data(), header_area - sizeof(uint32_t)}) !=
      stored_header_crc) {
    return Status::Corruption("snapshot header CRC mismatch: " + path);
  }

  std::vector<SectionEntry> table(header.section_count);
  std::memcpy(table.data(), file.data() + sizeof(SnapshotHeader),
              header.section_count * sizeof(SectionEntry));
  uint64_t cursor = AlignUp(header_area);
  for (const SectionEntry& e : table) {
    if (e.offset % kSectionAlign != 0 || e.offset != cursor ||
        e.size > size - kFooterBytes ||
        e.offset > size - kFooterBytes - e.size) {
      return Status::Corruption("section table entry out of bounds: " + path);
    }
    cursor = AlignUp(e.offset + e.size);
  }
  if (cursor + kFooterBytes != size) {
    return Status::Corruption("section layout does not cover file: " + path);
  }

  uint32_t trailing_magic = 0;
  std::memcpy(&trailing_magic, file.data() + size - sizeof(uint32_t),
              sizeof(uint32_t));
  if (trailing_magic != kSnapshotTrailingMagic) {
    return Status::Corruption("bad snapshot trailing magic: " + path);
  }

  auto snapshot = std::unique_ptr<Snapshot>(new Snapshot());
  snapshot->path_ = path;
  snapshot->file_ = std::move(file);
  snapshot->header_ = header;
  snapshot->table_ = std::move(table);

  if (options.validate == ValidateMode::kEager) {
    uint32_t stored_file_crc = 0;
    std::memcpy(&stored_file_crc,
                snapshot->file_.data() + size - kFooterBytes,
                sizeof(uint32_t));
    // The whole-file CRC covers every section payload byte, so the group
    // validators skip their per-section CRC passes — an eager load
    // checksums the file exactly once. All three sweeps are read-only
    // over the (bounds-checked) mapping, so on multi-core hosts they
    // overlap on threads: cold-start latency is max(file CRC, search
    // sweep, kg sweep), not the sum. On a single core the spawns only add
    // scheduling latency, so the sweeps run inline. The optimistic skip
    // is safe because a CRC mismatch below discards the memoized
    // structural verdicts and fails the open.
    snapshot->file_crc_verified_ = true;
    uint32_t actual_file_crc = 0;
    if (std::thread::hardware_concurrency() != 1) {
      std::thread crc_thread([&] {
        actual_file_crc =
            Crc32({snapshot->file_.data(), size - kFooterBytes});
      });
      std::thread search_thread([&] { snapshot->ValidateSearch(); });
      snapshot->ValidateKg();
      search_thread.join();
      crc_thread.join();
    } else {
      actual_file_crc = Crc32({snapshot->file_.data(), size - kFooterBytes});
      snapshot->ValidateSearch();
      snapshot->ValidateKg();
    }
    if (actual_file_crc != stored_file_crc) {
      // One of the per-section CRCs usually pinpoints the damage; re-run
      // them so the quarantine log can name the failing section. When
      // they all pass the corruption is in padding or the footer itself.
      snapshot->file_crc_verified_ = false;
      snapshot->search_valid_.reset();
      snapshot->kg_valid_.reset();
      for (const SectionEntry& e : snapshot->table_) {
        KGLINK_RETURN_IF_ERROR(snapshot->CheckCrc(e));
      }
      return Status::Corruption("snapshot file CRC mismatch: " + path);
    }
    KGLINK_RETURN_IF_ERROR(snapshot->ValidateSearch());  // memoized
    KGLINK_RETURN_IF_ERROR(snapshot->ValidateKg());
  }
  return snapshot;
}

StatusOr<const SectionEntry*> Snapshot::Find(SectionId id) const {
  for (const SectionEntry& e : table_) {
    if (e.id == static_cast<uint32_t>(id)) return &e;
  }
  return Status::Corruption(std::string("missing section ") +
                            SectionName(id) + ": " + path_);
}

Status Snapshot::CheckCrc(const SectionEntry& e) const {
  if (file_crc_verified_) return Status::Ok();
  if (Crc32({SectionData(e), e.size}) != e.crc32) {
    return CorruptSection(static_cast<SectionId>(e.id),
                          "CRC mismatch in " + path_);
  }
  return Status::Ok();
}

Status Snapshot::ValidateSearch() {
  std::lock_guard<std::mutex> lock(search_valid_mu_);
  if (search_valid_.has_value()) return *search_valid_;
  auto validate = [this]() -> Status {
    const SectionEntry* sec[7];
    const SectionId ids[7] = {
        SectionId::kSearchMeta,        SectionId::kSearchDocLens,
        SectionId::kSearchDocNorms,    SectionId::kSearchDocIds,
        SectionId::kSearchTermEntries, SectionId::kSearchTermBlob,
        SectionId::kSearchPostings};
    for (int i = 0; i < 7; ++i) {
      KGLINK_ASSIGN_OR_RETURN(sec[i], Find(ids[i]));
      KGLINK_RETURN_IF_ERROR(CheckCrc(*sec[i]));
    }
    if (sec[0]->size != sizeof(SearchMeta)) {
      return CorruptSection(SectionId::kSearchMeta, "bad size");
    }
    SearchMeta meta;
    std::memcpy(&meta, SectionData(*sec[0]), sizeof(meta));
    // Array sections must agree exactly with the meta element counts. The
    // counts themselves are bounded by the (already bounds-checked)
    // section sizes, so the multiplications cannot overflow.
    if (meta.num_docs > file_.size() || meta.num_terms > file_.size() ||
        meta.num_postings > file_.size() ||
        meta.term_blob_size > file_.size()) {
      return CorruptSection(SectionId::kSearchMeta, "implausible counts");
    }
    if (sec[1]->size != meta.num_docs * sizeof(int32_t)) {
      return CorruptSection(SectionId::kSearchDocLens, "size/count mismatch");
    }
    if (sec[2]->size != meta.num_docs * sizeof(double)) {
      return CorruptSection(SectionId::kSearchDocNorms, "size/count mismatch");
    }
    if (sec[3]->size != meta.num_docs * sizeof(int32_t)) {
      return CorruptSection(SectionId::kSearchDocIds, "size/count mismatch");
    }
    if (sec[4]->size != meta.num_terms * sizeof(search::TermEntry)) {
      return CorruptSection(SectionId::kSearchTermEntries,
                            "size/count mismatch");
    }
    if (sec[5]->size != meta.term_blob_size) {
      return CorruptSection(SectionId::kSearchTermBlob, "size/count mismatch");
    }
    if (sec[6]->size != meta.num_postings * sizeof(search::Posting)) {
      return CorruptSection(SectionId::kSearchPostings, "size/count mismatch");
    }
    // Every offset/index the borrowed engine will dereference, and the
    // strict term order its binary-search lookup relies on.
    const auto* terms =
        reinterpret_cast<const search::TermEntry*>(SectionData(*sec[4]));
    const char* blob = SectionData(*sec[5]);
    std::string_view prev_term;
    for (uint64_t i = 0; i < meta.num_terms; ++i) {
      const search::TermEntry& t = terms[i];
      if (t.blob_offset > meta.term_blob_size ||
          t.term_len > meta.term_blob_size - t.blob_offset) {
        return CorruptSection(SectionId::kSearchTermEntries,
                              "term bytes out of blob bounds");
      }
      std::string_view term(blob + t.blob_offset, t.term_len);
      if (i > 0 && prev_term >= term) {
        return CorruptSection(SectionId::kSearchTermEntries,
                              "terms not in strictly ascending order");
      }
      prev_term = term;
      if (t.posting_begin < 0 ||
          static_cast<uint64_t>(t.posting_begin) > meta.num_postings ||
          t.posting_count >
              meta.num_postings - static_cast<uint64_t>(t.posting_begin)) {
        return CorruptSection(SectionId::kSearchTermEntries,
                              "posting slice out of bounds");
      }
    }
    const auto* postings =
        reinterpret_cast<const search::Posting*>(SectionData(*sec[6]));
    for (uint64_t i = 0; i < meta.num_postings; ++i) {
      if (postings[i].doc_index < 0 ||
          static_cast<uint64_t>(postings[i].doc_index) >= meta.num_docs) {
        return CorruptSection(SectionId::kSearchPostings,
                              "doc index out of range");
      }
    }
    return Status::Ok();
  };
  search_valid_ = validate();
  return *search_valid_;
}

Status Snapshot::ValidateKg() {
  std::lock_guard<std::mutex> lock(kg_valid_mu_);
  if (kg_valid_.has_value()) return *kg_valid_;
  auto validate = [this]() -> Status {
    const SectionEntry* sec[11];
    const SectionId ids[11] = {
        SectionId::kKgMeta,          SectionId::kKgStrings,
        SectionId::kKgEntities,      SectionId::kKgAliases,
        SectionId::kKgPredicates,    SectionId::kKgEdgeOffsets,
        SectionId::kKgEdges,         SectionId::kKgNeighborOffsets,
        SectionId::kKgNeighbors,     SectionId::kKgQidIndex,
        SectionId::kKgLabelIndex};
    for (int i = 0; i < 11; ++i) {
      KGLINK_ASSIGN_OR_RETURN(sec[i], Find(ids[i]));
      KGLINK_RETURN_IF_ERROR(CheckCrc(*sec[i]));
    }
    if (sec[0]->size != sizeof(KgMeta)) {
      return CorruptSection(SectionId::kKgMeta, "bad size");
    }
    KgMeta meta;
    std::memcpy(&meta, SectionData(*sec[0]), sizeof(meta));
    if (meta.num_entities > file_.size() ||
        meta.num_predicates > file_.size() ||
        meta.num_aliases > file_.size() || meta.num_edges > file_.size() ||
        meta.num_neighbors > file_.size() || meta.num_triples < 0) {
      return CorruptSection(SectionId::kKgMeta, "implausible counts");
    }
    if (meta.num_predicates < 2) {
      return CorruptSection(SectionId::kKgMeta, "missing built-in predicates");
    }
    if (meta.num_edges != 2 * static_cast<uint64_t>(meta.num_triples)) {
      return CorruptSection(SectionId::kKgMeta,
                            "edge count does not match triple count");
    }
    if (sec[1]->size != meta.string_blob_size) {
      return CorruptSection(SectionId::kKgStrings, "size/count mismatch");
    }
    if (sec[2]->size != meta.num_entities * sizeof(EntityRecord)) {
      return CorruptSection(SectionId::kKgEntities, "size/count mismatch");
    }
    if (sec[3]->size != meta.num_aliases * sizeof(StringRef)) {
      return CorruptSection(SectionId::kKgAliases, "size/count mismatch");
    }
    if (sec[4]->size != meta.num_predicates * sizeof(StringRef)) {
      return CorruptSection(SectionId::kKgPredicates, "size/count mismatch");
    }
    if (sec[5]->size != (meta.num_entities + 1) * sizeof(uint64_t)) {
      return CorruptSection(SectionId::kKgEdgeOffsets, "size/count mismatch");
    }
    if (sec[6]->size != meta.num_edges * sizeof(kg::Edge)) {
      return CorruptSection(SectionId::kKgEdges, "size/count mismatch");
    }
    if (sec[7]->size != (meta.num_entities + 1) * sizeof(uint64_t)) {
      return CorruptSection(SectionId::kKgNeighborOffsets,
                            "size/count mismatch");
    }
    if (sec[8]->size != meta.num_neighbors * sizeof(kg::EntityId)) {
      return CorruptSection(SectionId::kKgNeighbors, "size/count mismatch");
    }
    if (meta.num_qid_entries > meta.num_entities) {
      return CorruptSection(SectionId::kKgMeta, "implausible counts");
    }
    if (sec[9]->size != meta.num_qid_entries * sizeof(kg::EntityId)) {
      return CorruptSection(SectionId::kKgQidIndex, "size/count mismatch");
    }
    if (sec[10]->size != meta.num_entities * sizeof(kg::EntityId)) {
      return CorruptSection(SectionId::kKgLabelIndex, "size/count mismatch");
    }

    auto in_blob = [&meta](uint64_t off, uint32_t len) {
      return off <= meta.string_blob_size &&
             len <= meta.string_blob_size - off;
    };
    const char* strings = SectionData(*sec[1]);
    const auto* entities =
        reinterpret_cast<const EntityRecord*>(SectionData(*sec[2]));
    uint64_t nonempty_qids = 0;
    for (uint64_t i = 0; i < meta.num_entities; ++i) {
      const EntityRecord& e = entities[i];
      if (!in_blob(e.qid_offset, e.qid_length) ||
          !in_blob(e.label_offset, e.label_length) ||
          !in_blob(e.desc_offset, e.desc_length)) {
        return CorruptSection(SectionId::kKgEntities,
                              "string ref out of blob bounds");
      }
      if (e.alias_begin > meta.num_aliases ||
          e.alias_count > meta.num_aliases - e.alias_begin) {
        return CorruptSection(SectionId::kKgEntities,
                              "alias run out of bounds");
      }
      if (e.qid_length > 0) ++nonempty_qids;
    }
    const auto* aliases =
        reinterpret_cast<const StringRef*>(SectionData(*sec[3]));
    for (uint64_t i = 0; i < meta.num_aliases; ++i) {
      if (!in_blob(aliases[i].offset, aliases[i].length)) {
        return CorruptSection(SectionId::kKgAliases,
                              "string ref out of blob bounds");
      }
    }
    const auto* predicates =
        reinterpret_cast<const StringRef*>(SectionData(*sec[4]));
    for (uint64_t i = 0; i < meta.num_predicates; ++i) {
      if (!in_blob(predicates[i].offset, predicates[i].length)) {
        return CorruptSection(SectionId::kKgPredicates,
                              "string ref out of blob bounds");
      }
    }
    auto pred_is = [&](uint64_t idx, std::string_view want) {
      return std::string_view(strings + predicates[idx].offset,
                              predicates[idx].length) == want;
    };
    if (!pred_is(0, "instance of") || !pred_is(1, "subclass of")) {
      return CorruptSection(SectionId::kKgPredicates,
                            "built-in predicates missing or reordered");
    }

    auto check_offsets = [&](const SectionEntry& e, uint64_t total,
                             SectionId id) -> Status {
      const auto* off =
          reinterpret_cast<const uint64_t*>(SectionData(e));
      if (off[0] != 0 || off[meta.num_entities] != total) {
        return CorruptSection(id, "offset array endpoints wrong");
      }
      for (uint64_t i = 0; i < meta.num_entities; ++i) {
        if (off[i] > off[i + 1]) {
          return CorruptSection(id, "offset array not monotone");
        }
      }
      return Status::Ok();
    };
    KGLINK_RETURN_IF_ERROR(
        check_offsets(*sec[5], meta.num_edges, SectionId::kKgEdgeOffsets));
    KGLINK_RETURN_IF_ERROR(check_offsets(*sec[7], meta.num_neighbors,
                                         SectionId::kKgNeighborOffsets));

    const auto* edges =
        reinterpret_cast<const kg::Edge*>(SectionData(*sec[6]));
    const auto* edge_bytes =
        reinterpret_cast<const unsigned char*>(SectionData(*sec[6]));
    for (uint64_t i = 0; i < meta.num_edges; ++i) {
      if (edges[i].predicate < 0 ||
          static_cast<uint64_t>(edges[i].predicate) >= meta.num_predicates ||
          edges[i].target < 0 ||
          static_cast<uint64_t>(edges[i].target) >= meta.num_entities) {
        return CorruptSection(SectionId::kKgEdges, "edge id out of range");
      }
      // Reading `forward` through the bool member would be UB for byte
      // values other than 0/1; check the raw byte first.
      if (edge_bytes[i * sizeof(kg::Edge) + offsetof(kg::Edge, forward)] >
          1) {
        return CorruptSection(SectionId::kKgEdges, "bad forward flag");
      }
    }
    const auto* neighbors =
        reinterpret_cast<const kg::EntityId*>(SectionData(*sec[8]));
    const auto* noff =
        reinterpret_cast<const uint64_t*>(SectionData(*sec[7]));
    for (uint64_t i = 0; i < meta.num_entities; ++i) {
      for (uint64_t j = noff[i]; j < noff[i + 1]; ++j) {
        if (neighbors[j] < 0 ||
            static_cast<uint64_t>(neighbors[j]) >= meta.num_entities) {
          return CorruptSection(SectionId::kKgNeighbors,
                                "neighbor id out of range");
        }
        // Strictly ascending per entity: IsNeighbor binary-searches.
        if (j > noff[i] && neighbors[j - 1] >= neighbors[j]) {
          return CorruptSection(SectionId::kKgNeighbors,
                                "neighbor list not sorted/unique");
        }
      }
    }

    // Sorted lookup indexes: FindByQid/FindByLabel binary-search these in
    // place, so ordering is a correctness precondition, not just hygiene.
    // Strict qid ordering plus the count check proves the index is a
    // bijection onto the non-empty-qid entities (a duplicated qid would
    // break strictness; a missing entity would break the count).
    auto ent_str = [&](uint64_t off, uint32_t len) {
      return std::string_view(strings + off, len);
    };
    if (nonempty_qids != meta.num_qid_entries) {
      return CorruptSection(SectionId::kKgQidIndex,
                            "entry count does not match non-empty qids");
    }
    const auto* qid_idx =
        reinterpret_cast<const kg::EntityId*>(SectionData(*sec[9]));
    for (uint64_t i = 0; i < meta.num_qid_entries; ++i) {
      if (qid_idx[i] < 0 ||
          static_cast<uint64_t>(qid_idx[i]) >= meta.num_entities) {
        return CorruptSection(SectionId::kKgQidIndex, "id out of range");
      }
      const EntityRecord& e = entities[qid_idx[i]];
      if (e.qid_length == 0) {
        return CorruptSection(SectionId::kKgQidIndex,
                              "entry references empty qid");
      }
      if (i > 0) {
        const EntityRecord& prev = entities[qid_idx[i - 1]];
        std::string_view pq = ent_str(prev.qid_offset, prev.qid_length);
        std::string_view cq = ent_str(e.qid_offset, e.qid_length);
        if (pq == cq) {
          return CorruptSection(SectionId::kKgQidIndex,
                                "duplicate qid " + std::string(cq));
        }
        if (pq > cq) {
          return CorruptSection(SectionId::kKgQidIndex, "not sorted by qid");
        }
      }
    }
    const auto* label_idx =
        reinterpret_cast<const kg::EntityId*>(SectionData(*sec[10]));
    for (uint64_t i = 0; i < meta.num_entities; ++i) {
      if (label_idx[i] < 0 ||
          static_cast<uint64_t>(label_idx[i]) >= meta.num_entities) {
        return CorruptSection(SectionId::kKgLabelIndex, "id out of range");
      }
      if (i > 0) {
        const EntityRecord& prev = entities[label_idx[i - 1]];
        const EntityRecord& cur = entities[label_idx[i]];
        std::string_view pl = ent_str(prev.label_offset, prev.label_length);
        std::string_view cl = ent_str(cur.label_offset, cur.label_length);
        // Strict (label, id) order ⇒ the index is a permutation of the
        // entity ids (ties on label must advance the id).
        if (pl > cl || (pl == cl && label_idx[i - 1] >= label_idx[i])) {
          return CorruptSection(SectionId::kKgLabelIndex,
                                "not sorted by (label, id)");
        }
      }
    }
    return Status::Ok();
  };
  kg_valid_ = validate();
  return *kg_valid_;
}

StatusOr<search::SearchEngine> Snapshot::MakeEngine() {
  KGLINK_RETURN_IF_ERROR(ValidateSearch());
  search::FrozenIndexView view;
  const SectionEntry* meta_sec = Find(SectionId::kSearchMeta).value();
  SearchMeta meta;
  std::memcpy(&meta, SectionData(*meta_sec), sizeof(meta));
  view.params.k1 = meta.k1;
  view.params.b = meta.b;
  view.avg_doc_len = meta.avg_doc_len;
  view.num_docs = meta.num_docs;
  view.doc_len = reinterpret_cast<const int32_t*>(
      SectionData(*Find(SectionId::kSearchDocLens).value()));
  view.doc_norm = reinterpret_cast<const double*>(
      SectionData(*Find(SectionId::kSearchDocNorms).value()));
  view.external_ids = reinterpret_cast<const int32_t*>(
      SectionData(*Find(SectionId::kSearchDocIds).value()));
  view.num_terms = meta.num_terms;
  view.terms = reinterpret_cast<const search::TermEntry*>(
      SectionData(*Find(SectionId::kSearchTermEntries).value()));
  view.term_blob = SectionData(*Find(SectionId::kSearchTermBlob).value());
  view.term_blob_size = meta.term_blob_size;
  view.num_postings = meta.num_postings;
  view.postings = reinterpret_cast<const search::Posting*>(
      SectionData(*Find(SectionId::kSearchPostings).value()));
  return search::SearchEngine::FromFrozenView(view);
}

StatusOr<kg::KnowledgeGraph> Snapshot::MakeKg() {
  KGLINK_RETURN_IF_ERROR(ValidateKg());
  KgMeta meta;
  std::memcpy(&meta, SectionData(*Find(SectionId::kKgMeta).value()),
              sizeof(meta));
  const char* strings = SectionData(*Find(SectionId::kKgStrings).value());
  const auto* entities = reinterpret_cast<const EntityRecord*>(
      SectionData(*Find(SectionId::kKgEntities).value()));
  const auto* aliases = reinterpret_cast<const StringRef*>(
      SectionData(*Find(SectionId::kKgAliases).value()));
  const auto* predicates = reinterpret_cast<const StringRef*>(
      SectionData(*Find(SectionId::kKgPredicates).value()));

  // Entity metadata is the one copied part of the load (strings must be
  // owned); for big graphs the per-entity string allocations dominate
  // cold start, so the parse shards across threads into disjoint slots.
  std::vector<kg::Entity> parsed(meta.num_entities);
  auto parse_range = [&](uint64_t begin, uint64_t end) {
    for (uint64_t i = begin; i < end; ++i) {
      const EntityRecord& rec = entities[i];
      kg::Entity& e = parsed[i];
      e.qid.assign(strings + rec.qid_offset, rec.qid_length);
      e.label.assign(strings + rec.label_offset, rec.label_length);
      e.description.assign(strings + rec.desc_offset, rec.desc_length);
      e.aliases.reserve(rec.alias_count);
      for (uint32_t a = 0; a < rec.alias_count; ++a) {
        const StringRef& ref = aliases[rec.alias_begin + a];
        e.aliases.emplace_back(strings + ref.offset, ref.length);
      }
      e.is_type = (rec.flags & kEntityFlagType) != 0;
      e.is_person = (rec.flags & kEntityFlagPerson) != 0;
      e.is_date = (rec.flags & kEntityFlagDate) != 0;
    }
  };
  constexpr uint64_t kParallelParseThreshold = 8192;
  // hardware_concurrency() == 0 means unknown; assume threads help then.
  const unsigned hc = std::thread::hardware_concurrency();
  const uint64_t shards =
      hc == 0 ? 4 : std::min<uint64_t>(hc, 8);
  if (meta.num_entities >= kParallelParseThreshold && shards > 1) {
    const uint64_t per = (meta.num_entities + shards - 1) / shards;
    std::vector<std::thread> workers;
    for (uint64_t s = 1; s < shards; ++s) {
      const uint64_t begin = s * per;
      if (begin >= meta.num_entities) break;
      workers.emplace_back(parse_range, begin,
                           std::min(begin + per, meta.num_entities));
    }
    parse_range(0, std::min(per, meta.num_entities));
    for (std::thread& w : workers) w.join();
  } else {
    parse_range(0, meta.num_entities);
  }
  std::vector<std::string> predicate_labels;
  predicate_labels.reserve(meta.num_predicates);
  for (uint64_t i = 0; i < meta.num_predicates; ++i) {
    predicate_labels.emplace_back(strings + predicates[i].offset,
                                  predicates[i].length);
  }

  kg::FrozenTopologyView topo;
  topo.num_entities = meta.num_entities;
  topo.edges = reinterpret_cast<const kg::Edge*>(
      SectionData(*Find(SectionId::kKgEdges).value()));
  topo.edge_offsets = reinterpret_cast<const uint64_t*>(
      SectionData(*Find(SectionId::kKgEdgeOffsets).value()));
  topo.neighbors = reinterpret_cast<const kg::EntityId*>(
      SectionData(*Find(SectionId::kKgNeighbors).value()));
  topo.neighbor_offsets = reinterpret_cast<const uint64_t*>(
      SectionData(*Find(SectionId::kKgNeighborOffsets).value()));
  topo.qid_sorted = reinterpret_cast<const kg::EntityId*>(
      SectionData(*Find(SectionId::kKgQidIndex).value()));
  topo.qid_sorted_count = meta.num_qid_entries;
  topo.label_sorted = reinterpret_cast<const kg::EntityId*>(
      SectionData(*Find(SectionId::kKgLabelIndex).value()));
  return kg::KnowledgeGraph::FromFrozen(std::move(parsed),
                                        std::move(predicate_labels), topo);
}

}  // namespace kglink::store
