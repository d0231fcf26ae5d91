#include "store/snapshot_writer.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <utility>
#include <vector>

#include "robust/fault_injector.h"
#include "util/crc32.h"
#include "util/csv.h"

namespace kglink::store {

namespace {

template <typename T>
void AppendPod(std::string& out, const T& v) {
  out.append(reinterpret_cast<const char*>(&v), sizeof(v));
}

// Appends `count` elements of a padding-free POD array, byte for byte.
template <typename T>
void AppendArray(std::string& out, const T* data, uint64_t count) {
  out.append(reinterpret_cast<const char*>(data), count * sizeof(T));
}

void PadTo(std::string& out, uint64_t align) {
  while (out.size() % align != 0) out.push_back('\0');
}

// kg::Edge has 3 trailing padding bytes in memory whose contents are
// unspecified; serialize field-by-field with explicit zero padding so the
// byte pattern matches the (static_assert-pinned) in-memory layout AND the
// file is deterministic.
void AppendEdge(std::string& out, const kg::Edge& e) {
  AppendPod(out, e.predicate);
  AppendPod(out, e.target);
  AppendPod(out, static_cast<uint8_t>(e.forward ? 1 : 0));
  out.append(3, '\0');
}

struct SectionPayload {
  SectionId id;
  std::string bytes;
};

// Appends `s` to `blob` and returns its StringRef.
StringRef AddString(std::string& blob, const std::string& s) {
  StringRef ref;
  ref.offset = blob.size();
  ref.length = static_cast<uint32_t>(s.size());
  blob.append(s);
  return ref;
}

}  // namespace

Status WriteSnapshot(const std::string& path, const kg::KnowledgeGraph& kg,
                     const search::SearchEngine& engine,
                     const WriterOptions& options) {
  if (!engine.finalized()) {
    return Status::FailedPrecondition("snapshot of a non-finalized engine");
  }
  if (!kg.finalized()) {
    return Status::FailedPrecondition("snapshot of a non-finalized graph");
  }
  const search::FrozenIndexView index = engine.View();
  const kg::FrozenTopologyView topo = kg.View();

  std::vector<SectionPayload> sections;
  sections.reserve(kNumSections);
  auto add = [&sections](SectionId id) -> std::string& {
    sections.push_back({id, {}});
    return sections.back().bytes;
  };

  // ----- search sections -----
  {
    SearchMeta meta;
    meta.num_docs = index.num_docs;
    meta.num_terms = index.num_terms;
    meta.num_postings = index.num_postings;
    meta.term_blob_size = index.term_blob_size;
    meta.k1 = index.params.k1;
    meta.b = index.params.b;
    meta.avg_doc_len = index.avg_doc_len;
    AppendPod(add(SectionId::kSearchMeta), meta);
  }
  AppendArray(add(SectionId::kSearchDocLens), index.doc_len, index.num_docs);
  AppendArray(add(SectionId::kSearchDocNorms), index.doc_norm,
              index.num_docs);
  AppendArray(add(SectionId::kSearchDocIds), index.external_ids,
              index.num_docs);
  AppendArray(add(SectionId::kSearchTermEntries), index.terms,
              index.num_terms);
  AppendArray(add(SectionId::kSearchTermBlob), index.term_blob,
              index.term_blob_size);
  AppendArray(add(SectionId::kSearchPostings), index.postings,
              index.num_postings);

  // ----- kg sections -----
  const int64_t num_entities = kg.num_entities();
  std::string strings;
  std::string entities;
  std::string aliases;
  std::string predicates;
  std::string edges;
  uint64_t num_aliases = 0;

  for (kg::EntityId id = 0; id < num_entities; ++id) {
    const kg::Entity& e = kg.entity(id);
    EntityRecord rec;
    StringRef qid = AddString(strings, e.qid);
    rec.qid_offset = qid.offset;
    rec.qid_length = qid.length;
    StringRef label = AddString(strings, e.label);
    rec.label_offset = label.offset;
    rec.label_length = label.length;
    StringRef desc = AddString(strings, e.description);
    rec.desc_offset = desc.offset;
    rec.desc_length = desc.length;
    rec.alias_begin = num_aliases;
    rec.alias_count = static_cast<uint32_t>(e.aliases.size());
    for (const std::string& alias : e.aliases) {
      AppendPod(aliases, AddString(strings, alias));
      ++num_aliases;
    }
    if (e.is_type) rec.flags |= kEntityFlagType;
    if (e.is_person) rec.flags |= kEntityFlagPerson;
    if (e.is_date) rec.flags |= kEntityFlagDate;
    AppendPod(entities, rec);
  }
  for (kg::PredicateId p = 0; p < kg.num_predicates(); ++p) {
    AppendPod(predicates, AddString(strings, kg.predicate_label(p)));
  }
  // Topology and lookup indexes: the graph's own finalized arrays.
  const uint64_t n = static_cast<uint64_t>(num_entities);
  const uint64_t num_edges = topo.edge_offsets[n];
  const uint64_t num_neighbors = topo.neighbor_offsets[n];
  for (uint64_t i = 0; i < num_edges; ++i) AppendEdge(edges, topo.edges[i]);

  {
    KgMeta meta;
    meta.num_entities = static_cast<uint64_t>(num_entities);
    meta.num_predicates = static_cast<uint64_t>(kg.num_predicates());
    meta.num_aliases = num_aliases;
    meta.num_edges = num_edges;
    meta.num_neighbors = num_neighbors;
    meta.string_blob_size = strings.size();
    meta.num_triples = kg.num_triples();
    meta.num_qid_entries = topo.qid_sorted_count;
    AppendPod(add(SectionId::kKgMeta), meta);
  }
  add(SectionId::kKgStrings) = std::move(strings);
  add(SectionId::kKgEntities) = std::move(entities);
  add(SectionId::kKgAliases) = std::move(aliases);
  add(SectionId::kKgPredicates) = std::move(predicates);
  AppendArray(add(SectionId::kKgEdgeOffsets), topo.edge_offsets, n + 1);
  add(SectionId::kKgEdges) = std::move(edges);
  AppendArray(add(SectionId::kKgNeighborOffsets), topo.neighbor_offsets,
              n + 1);
  AppendArray(add(SectionId::kKgNeighbors), topo.neighbors, num_neighbors);
  AppendArray(add(SectionId::kKgQidIndex), topo.qid_sorted,
              topo.qid_sorted_count);
  AppendArray(add(SectionId::kKgLabelIndex), topo.label_sorted, n);

  // ----- assemble: header, section table, header crc, payloads, footer --
  uint64_t header_area = sizeof(SnapshotHeader) +
                         sections.size() * sizeof(SectionEntry) +
                         sizeof(uint32_t);
  uint64_t cursor = (header_area + kSectionAlign - 1) / kSectionAlign *
                    kSectionAlign;
  std::vector<SectionEntry> table;
  table.reserve(sections.size());
  for (const SectionPayload& s : sections) {
    SectionEntry entry;
    entry.id = static_cast<uint32_t>(s.id);
    entry.crc32 = Crc32(s.bytes);
    entry.offset = cursor;
    entry.size = s.bytes.size();
    table.push_back(entry);
    cursor += (s.bytes.size() + kSectionAlign - 1) / kSectionAlign *
              kSectionAlign;
  }
  uint64_t file_size = cursor + kFooterBytes;

  std::string out;
  out.reserve(file_size);
  SnapshotHeader header;
  header.format_version = options.format_version;
  header.file_size = file_size;
  header.generation = options.generation;
  header.section_count = static_cast<uint32_t>(sections.size());
  AppendPod(out, header);
  for (const SectionEntry& entry : table) AppendPod(out, entry);
  AppendPod(out, Crc32(out));  // header crc
  PadTo(out, kSectionAlign);
  for (size_t i = 0; i < sections.size(); ++i) {
    KGLINK_CHECK_EQ(static_cast<int64_t>(out.size()),
                    static_cast<int64_t>(table[i].offset));
    out.append(sections[i].bytes);
    PadTo(out, kSectionAlign);
  }
  AppendPod(out, Crc32(out));  // whole-file crc over [0, file_size - 8)
  AppendPod(out, kSnapshotTrailingMagic);
  KGLINK_CHECK_EQ(static_cast<int64_t>(out.size()),
                  static_cast<int64_t>(file_size));

  // "io.write" fault: simulate a torn write — a truncated temp file is
  // left behind and the previous snapshot at `path` stays untouched.
  if (robust::MaybeInject(robust::FaultSite::kIoWrite)) {
    int fd = ::open((path + ".tmp").c_str(),
                    O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
    if (fd >= 0) {
      ssize_t ignored = ::write(fd, out.data(), out.size() / 2);
      (void)ignored;
      ::close(fd);
    }
    return Status::IoError("injected torn write: " + path);
  }
  // Durable publish: temp + fsync + rename + directory fsync. The
  // destination is replaced only after the temp file's bytes have
  // reached the disk.
  return WriteFileDurable(path, out);
}

}  // namespace kglink::store
