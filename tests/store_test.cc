// Snapshot store tests: write/load roundtrip with bit-identical parity
// against the in-memory build, deterministic writer output, version-skew
// handling (snapshot AND checkpoint), the quarantine policy, torn-write
// crash safety, injected mmap/load faults, and lazy-vs-eager validation.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "data/world.h"
#include "kg/knowledge_graph.h"
#include "nn/checkpoint.h"
#include "obs/metrics.h"
#include "robust/fault_injector.h"
#include "search/search_engine.h"
#include "store/snapshot.h"
#include "store/snapshot_format.h"
#include "store/snapshot_store.h"
#include "store/snapshot_writer.h"
#include "util/crc32.h"
#include "util/csv.h"

namespace kglink::store {
namespace {

int64_t CounterValue(const char* name) {
  return obs::MetricsRegistry::Global().GetCounter(name).value();
}

bool FileExists(const std::string& path) {
  return ReadFile(path).ok();
}

// Applies `mutate` to one section's payload, then reseals that section's
// CRC, the header CRC and the whole-file CRC, so that only the loader's
// structural checks can catch the change.
std::string Resealed(std::string bytes, SectionId id,
                     const std::function<void(char*, uint64_t)>& mutate) {
  SnapshotHeader header;
  std::memcpy(&header, bytes.data(), sizeof(header));
  for (uint32_t i = 0; i < header.section_count; ++i) {
    char* slot = bytes.data() + sizeof(header) + i * sizeof(SectionEntry);
    SectionEntry entry;
    std::memcpy(&entry, slot, sizeof(entry));
    if (entry.id != static_cast<uint32_t>(id)) continue;
    mutate(bytes.data() + entry.offset, entry.size);
    entry.crc32 = Crc32(std::string_view(bytes.data() + entry.offset,
                                         entry.size));
    std::memcpy(slot, &entry, sizeof(entry));
  }
  const size_t header_area =
      sizeof(header) + header.section_count * sizeof(SectionEntry);
  const uint32_t header_crc =
      Crc32(std::string_view(bytes.data(), header_area));
  std::memcpy(bytes.data() + header_area, &header_crc, sizeof(header_crc));
  const size_t footer = bytes.size() - kFooterBytes;
  const uint32_t file_crc = Crc32(std::string_view(bytes.data(), footer));
  std::memcpy(bytes.data() + footer, &file_crc, sizeof(file_crc));
  return bytes;
}

class StoreTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    data::WorldConfig wc;
    wc.scale = 0.25;
    world_ = new data::World(data::GenerateWorld(wc));
    engine_ = new search::SearchEngine(
        search::IndexKnowledgeGraph(world_->kg));
  }
  static void TearDownTestSuite() {
    delete engine_;
    delete world_;
  }
  void TearDown() override { robust::FaultInjector::Global().Disable(); }

  // Unique path per test so quarantine renames don't leak across tests.
  // Stale quarantine files from an earlier run of the same binary would
  // shift the .corrupt/.corrupt.N suffixes, so clear them up front.
  std::string Path(const std::string& name) const {
    std::string path = ::testing::TempDir() + "store_test_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name() +
           "_" + name;
    ::unlink(path.c_str());
    ::unlink((path + ".corrupt").c_str());
    for (int i = 1; i < 10; ++i) {
      ::unlink((path + ".corrupt." + std::to_string(i)).c_str());
    }
    return path;
  }

  std::string WriteGood(const std::string& name, uint64_t generation = 1) {
    std::string path = Path(name);
    WriterOptions options;
    options.generation = generation;
    Status s = WriteSnapshot(path, world_->kg, *engine_, options);
    EXPECT_TRUE(s.ok()) << s.ToString();
    return path;
  }

  static data::World* world_;
  static search::SearchEngine* engine_;
};
data::World* StoreTest::world_ = nullptr;
search::SearchEngine* StoreTest::engine_ = nullptr;

// ---------------------------------------------------------------------------
// Roundtrip + parity

TEST_F(StoreTest, RoundTripSearchParityBitIdentical) {
  std::string path = WriteGood("snap");
  auto snap = Snapshot::Open(path);
  ASSERT_TRUE(snap.ok()) << snap.status().ToString();
  auto loaded = (*snap)->MakeEngine();
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const search::SearchEngine& mapped = *loaded;
  EXPECT_TRUE(mapped.borrowed());
  EXPECT_FALSE(engine_->borrowed());
  EXPECT_EQ(mapped.num_documents(), engine_->num_documents());

  // Query with real entity labels plus junk; scores must match to the bit.
  std::vector<std::string> queries;
  for (kg::EntityId id = 0; id < world_->kg.num_entities();
       id += world_->kg.num_entities() / 37 + 1) {
    queries.push_back(world_->kg.entity(id).label);
  }
  queries.push_back("completely unseen query text");
  for (const std::string& q : queries) {
    auto a = engine_->TopK(q, 10);
    auto b = mapped.TopK(q, 10);
    ASSERT_EQ(a.size(), b.size()) << q;
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].doc_id, b[i].doc_id) << q;
      // Bit-level equality, not approximate.
      EXPECT_EQ(std::memcmp(&a[i].score, &b[i].score, sizeof(double)), 0)
          << q << " rank " << i;
    }
    if (!a.empty()) {
      EXPECT_EQ(engine_->Score(q, a[0].doc_id), mapped.Score(q, a[0].doc_id));
      auto ea = engine_->ExplainScore(q, a[0].doc_id);
      auto eb = mapped.ExplainScore(q, a[0].doc_id);
      ASSERT_EQ(ea.size(), eb.size());
      for (size_t i = 0; i < ea.size(); ++i) {
        EXPECT_EQ(ea[i].term, eb[i].term);
        EXPECT_EQ(ea[i].contribution, eb[i].contribution);
      }
    }
  }
}

TEST_F(StoreTest, RoundTripKgParity) {
  std::string path = WriteGood("snap");
  auto snap = Snapshot::Open(path);
  ASSERT_TRUE(snap.ok()) << snap.status().ToString();
  auto loaded = (*snap)->MakeKg();
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const kg::KnowledgeGraph& mapped = *loaded;
  const kg::KnowledgeGraph& orig = world_->kg;

  EXPECT_TRUE(mapped.borrowed());
  EXPECT_FALSE(orig.borrowed());
  ASSERT_EQ(mapped.num_entities(), orig.num_entities());
  EXPECT_EQ(mapped.num_triples(), orig.num_triples());
  ASSERT_EQ(mapped.num_predicates(), orig.num_predicates());
  for (kg::PredicateId p = 0; p < orig.num_predicates(); ++p) {
    EXPECT_EQ(mapped.predicate_label(p), orig.predicate_label(p));
  }
  for (kg::EntityId id = 0; id < orig.num_entities(); ++id) {
    const kg::Entity& a = orig.entity(id);
    const kg::Entity& b = mapped.entity(id);
    ASSERT_EQ(a.qid, b.qid);
    ASSERT_EQ(a.label, b.label);
    ASSERT_EQ(a.description, b.description);
    ASSERT_EQ(a.aliases, b.aliases);
    ASSERT_EQ(a.is_type, b.is_type);
    ASSERT_EQ(a.is_person, b.is_person);
    ASSERT_EQ(a.is_date, b.is_date);
    EXPECT_EQ(mapped.FindByQid(a.qid), id);
    // Label lookups binary-search the borrowed index on the mapped side
    // and the owned one on the built side; order included.
    EXPECT_EQ(mapped.FindByLabel(a.label), orig.FindByLabel(a.label));

    auto ea = orig.Edges(id);
    auto eb = mapped.Edges(id);
    ASSERT_EQ(ea.size(), eb.size()) << "entity " << id;
    for (size_t i = 0; i < ea.size(); ++i) {
      ASSERT_EQ(ea[i].predicate, eb[i].predicate);
      ASSERT_EQ(ea[i].target, eb[i].target);
      ASSERT_EQ(ea[i].forward, eb[i].forward);
    }
    auto na = orig.NeighborSet(id);
    auto nb = mapped.NeighborSet(id);
    ASSERT_EQ(na.size(), nb.size()) << "entity " << id;
    for (size_t i = 0; i < na.size(); ++i) ASSERT_EQ(na[i], nb[i]);
  }
  // Derived queries ride on the same topology.
  for (kg::EntityId id = 0; id < orig.num_entities();
       id += orig.num_entities() / 53 + 1) {
    EXPECT_EQ(mapped.InstanceTypes(id), orig.InstanceTypes(id));
    EXPECT_EQ(mapped.SuperClasses(id), orig.SuperClasses(id));
  }
  // Misses agree too.
  EXPECT_EQ(mapped.FindByQid("Q-no-such-entity"), kg::kInvalidEntity);
  EXPECT_EQ(mapped.FindByQid(""), kg::kInvalidEntity);
  EXPECT_TRUE(mapped.FindByLabel("no such label anywhere").empty());
}

TEST_F(StoreTest, FrozenGraphRejectsMutation) {
  std::string path = WriteGood("snap");
  auto snap = Snapshot::Open(path);
  ASSERT_TRUE(snap.ok());
  auto loaded = (*snap)->MakeKg();
  ASSERT_TRUE(loaded.ok());
  EXPECT_DEATH(loaded->AddTriple(0, kg::KnowledgeGraph::kInstanceOf, 1),
               "frozen");
}

TEST_F(StoreTest, WriterIsDeterministic) {
  std::string a = WriteGood("a");
  std::string b = WriteGood("b");
  auto bytes_a = ReadFile(a);
  auto bytes_b = ReadFile(b);
  ASSERT_TRUE(bytes_a.ok() && bytes_b.ok());
  EXPECT_EQ(*bytes_a, *bytes_b);
}

TEST_F(StoreTest, UnfinalizedEngineRejected) {
  search::SearchEngine empty;
  Status s = WriteSnapshot(Path("snap"), world_->kg, empty, {});
  EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition);
}

TEST_F(StoreTest, UnsortedTermTableIsCorruption) {
  std::string path = WriteGood("snap");
  auto bytes = ReadFile(path);
  ASSERT_TRUE(bytes.ok());
  // Resealing an untouched section reproduces the file, so the swap below
  // is the only thing the loader can object to.
  ASSERT_EQ(Resealed(*bytes, SectionId::kSearchTermEntries,
                     [](char*, uint64_t) {}),
            *bytes);
  // Swapping the first two term entries keeps every bound intact but
  // breaks the order the engine's binary-search lookup relies on.
  std::string swapped = Resealed(
      *bytes, SectionId::kSearchTermEntries, [](char* data, uint64_t size) {
        ASSERT_GE(size, 2 * sizeof(search::TermEntry));
        std::swap_ranges(data, data + sizeof(search::TermEntry),
                         data + sizeof(search::TermEntry));
      });
  ASSERT_TRUE(WriteFile(path, swapped).ok());

  auto snap = Snapshot::Open(path);
  ASSERT_FALSE(snap.ok());
  EXPECT_EQ(snap.status().code(), StatusCode::kCorruption);
  std::string msg = snap.status().ToString();
  EXPECT_NE(msg.find("search.term_entries"), std::string::npos) << msg;
  EXPECT_NE(msg.find("ascending order"), std::string::npos) << msg;
}

// ---------------------------------------------------------------------------
// Version skew

TEST_F(StoreTest, SnapshotVersionSkewNamesBothVersions) {
  std::string path = Path("snap");
  WriterOptions options;
  options.format_version = kSnapshotFormatVersion + 1;
  ASSERT_TRUE(WriteSnapshot(path, world_->kg, *engine_, options).ok());

  auto snap = Snapshot::Open(path);
  ASSERT_FALSE(snap.ok());
  EXPECT_EQ(snap.status().code(), StatusCode::kVersionSkew);
  std::string msg = snap.status().ToString();
  EXPECT_NE(msg.find(std::to_string(kSnapshotFormatVersion + 1)),
            std::string::npos)
      << msg;
  EXPECT_NE(msg.find(std::to_string(kSnapshotFormatVersion)),
            std::string::npos)
      << msg;
}

TEST_F(StoreTest, VersionSkewIsNotQuarantined) {
  std::string path = Path("snap");
  WriterOptions options;
  options.format_version = kSnapshotFormatVersion + 1;
  ASSERT_TRUE(WriteSnapshot(path, world_->kg, *engine_, options).ok());

  int64_t quarantined_before = CounterValue("store.snapshot.quarantined");
  int64_t skew_before = CounterValue("store.snapshot.version_skew");
  SnapshotStore store;
  auto loaded = store.Load(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kVersionSkew);
  // The file is fine (a newer binary wants it): it must stay in place.
  EXPECT_TRUE(FileExists(path));
  EXPECT_FALSE(FileExists(path + ".corrupt"));
  EXPECT_EQ(CounterValue("store.snapshot.quarantined"), quarantined_before);
  EXPECT_EQ(CounterValue("store.snapshot.version_skew"), skew_before + 1);
}

TEST_F(StoreTest, CheckpointVersionSkewNamesBothVersions) {
  // Hand-build a v3 checkpoint payload (magic, version, count=0) with a
  // valid CRC: the only failing check must be the version gate.
  std::string payload;
  const uint32_t magic = 0x4b474c4bu;
  const uint32_t version = 3;
  const uint32_t count = 0;
  payload.append(reinterpret_cast<const char*>(&magic), sizeof(magic));
  payload.append(reinterpret_cast<const char*>(&version), sizeof(version));
  payload.append(reinterpret_cast<const char*>(&count), sizeof(count));
  uint32_t crc = Crc32(payload);
  payload.append(reinterpret_cast<const char*>(&crc), sizeof(crc));
  std::string path = Path("ckpt");
  ASSERT_TRUE(WriteFile(path, payload).ok());

  std::vector<nn::NamedParam> params;
  Status s = nn::LoadTensors(path, &params);
  EXPECT_EQ(s.code(), StatusCode::kVersionSkew);
  std::string msg = s.ToString();
  EXPECT_NE(msg.find("v3"), std::string::npos) << msg;
  EXPECT_NE(msg.find("v2"), std::string::npos) << msg;
  // The skewed checkpoint must stay on disk too.
  EXPECT_TRUE(FileExists(path));
}

// ---------------------------------------------------------------------------
// Quarantine policy

TEST_F(StoreTest, CorruptionQuarantinesAndPreservesBytes) {
  std::string path = WriteGood("snap");
  auto bytes = ReadFile(path);
  ASSERT_TRUE(bytes.ok());
  std::string corrupt = *bytes;
  corrupt[corrupt.size() / 2] ^= 0x40;
  ASSERT_TRUE(WriteFile(path, corrupt).ok());

  int64_t quarantined_before = CounterValue("store.snapshot.quarantined");
  int64_t failures_before = CounterValue("store.snapshot.load_failures");
  SnapshotStore store;
  auto loaded = store.Load(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
  EXPECT_EQ(store.current(), nullptr);
  // Renamed out of the load path, bytes preserved for forensics.
  EXPECT_FALSE(FileExists(path));
  auto preserved = ReadFile(path + ".corrupt");
  ASSERT_TRUE(preserved.ok());
  EXPECT_EQ(*preserved, corrupt);
  EXPECT_EQ(CounterValue("store.snapshot.quarantined"),
            quarantined_before + 1);
  EXPECT_EQ(CounterValue("store.snapshot.load_failures"),
            failures_before + 1);

  // A second corrupt file at the same path must not overwrite the first
  // quarantined one.
  ASSERT_TRUE(WriteFile(path, corrupt).ok());
  ASSERT_FALSE(store.Load(path).ok());
  EXPECT_TRUE(FileExists(path + ".corrupt"));
  EXPECT_TRUE(FileExists(path + ".corrupt.1"));
}

TEST_F(StoreTest, MissingFileIsIoErrorNotQuarantine) {
  int64_t quarantined_before = CounterValue("store.snapshot.quarantined");
  SnapshotStore store;
  auto loaded = store.Load(Path("nonexistent"));
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIoError);
  EXPECT_EQ(CounterValue("store.snapshot.quarantined"), quarantined_before);
}

TEST_F(StoreTest, GoodLoadPublishesGeneration) {
  std::string path = WriteGood("snap", /*generation=*/7);
  SnapshotStore store;
  auto loaded = store.Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ((*loaded)->generation, 7u);
  EXPECT_EQ((*loaded)->sequence, 1u);
  EXPECT_EQ(store.current(), *loaded);
  // A failed load never clobbers the published generation.
  ASSERT_FALSE(store.Load(Path("nonexistent")).ok());
  EXPECT_EQ(store.current(), *loaded);
}

// ---------------------------------------------------------------------------
// Crash safety: torn writes and injected faults

TEST_F(StoreTest, TornWriteLeavesOldSnapshotIntact) {
  std::string path = WriteGood("snap");
  auto before = ReadFile(path);
  ASSERT_TRUE(before.ok());

  ASSERT_TRUE(robust::FaultInjector::Global()
                  .ConfigureFromSpec("io.write:1.0", 42)
                  .ok());
  Status s = WriteSnapshot(path, world_->kg, *engine_, {});
  EXPECT_EQ(s.code(), StatusCode::kIoError);
  robust::FaultInjector::Global().Disable();

  // The torn temp file exists, the published file is byte-identical, and
  // it still loads.
  EXPECT_TRUE(FileExists(path + ".tmp"));
  auto after = ReadFile(path);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(*after, *before);
  SnapshotStore store;
  EXPECT_TRUE(store.Load(path).ok());
}

TEST_F(StoreTest, InjectedMmapAndLoadFaultsAreTransient) {
  std::string path = WriteGood("snap");
  int64_t quarantined_before = CounterValue("store.snapshot.quarantined");
  for (const char* spec : {"io.mmap:1.0", "store.load:1.0"}) {
    ASSERT_TRUE(
        robust::FaultInjector::Global().ConfigureFromSpec(spec, 42).ok());
    SnapshotStore store;
    auto loaded = store.Load(path);
    ASSERT_FALSE(loaded.ok()) << spec;
    EXPECT_EQ(loaded.status().code(), StatusCode::kIoError) << spec;
    robust::FaultInjector::Global().Disable();
    // Transient: not quarantined, and the very next load succeeds.
    EXPECT_TRUE(FileExists(path)) << spec;
    EXPECT_TRUE(store.Load(path).ok()) << spec;
  }
  EXPECT_EQ(CounterValue("store.snapshot.quarantined"), quarantined_before);
}

// ---------------------------------------------------------------------------
// Lazy vs eager validation

TEST_F(StoreTest, LazyValidationDefersSectionChecksToFirstUse) {
  std::string path = WriteGood("snap");
  auto bytes = ReadFile(path);
  ASSERT_TRUE(bytes.ok());

  // Parse the section table to aim the corruption at a KG payload byte.
  SnapshotHeader header;
  std::memcpy(&header, bytes->data(), sizeof(header));
  uint64_t target = 0;
  for (uint32_t i = 0; i < header.section_count; ++i) {
    SectionEntry entry;
    std::memcpy(&entry,
                bytes->data() + sizeof(header) + i * sizeof(SectionEntry),
                sizeof(entry));
    if (entry.id == static_cast<uint32_t>(SectionId::kKgEdges)) {
      target = entry.offset + entry.size / 2;
    }
  }
  ASSERT_NE(target, 0u);
  std::string corrupt = *bytes;
  corrupt[target] ^= 0x01;
  ASSERT_TRUE(WriteFile(path, corrupt).ok());

  // Eager: rejected at Open.
  LoadOptions eager;
  eager.validate = ValidateMode::kEager;
  EXPECT_EQ(Snapshot::Open(path, eager).status().code(),
            StatusCode::kCorruption);

  // Lazy: Open passes (header area is intact), the search group still
  // validates clean, and the corruption surfaces on first KG use.
  LoadOptions lazy;
  lazy.validate = ValidateMode::kLazy;
  auto snap = Snapshot::Open(path, lazy);
  ASSERT_TRUE(snap.ok()) << snap.status().ToString();
  EXPECT_TRUE((*snap)->MakeEngine().ok());
  auto kg = (*snap)->MakeKg();
  ASSERT_FALSE(kg.ok());
  EXPECT_EQ(kg.status().code(), StatusCode::kCorruption);
  std::string msg = kg.status().ToString();
  EXPECT_NE(msg.find("kg.edges"), std::string::npos) << msg;

  // The store applies quarantine on the lazily-surfaced corruption too.
  SnapshotStore store(lazy);
  int64_t quarantined_before = CounterValue("store.snapshot.quarantined");
  ASSERT_FALSE(store.Load(path).ok());
  EXPECT_EQ(CounterValue("store.snapshot.quarantined"),
            quarantined_before + 1);
  EXPECT_FALSE(FileExists(path));
}

}  // namespace
}  // namespace kglink::store
