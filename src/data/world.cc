#include "data/world.h"

#include "data/names.h"

namespace kglink::data {

namespace {

// Incremental builder around World with noise injection.
class WorldBuilder {
 public:
  explicit WorldBuilder(const WorldConfig& config)
      : config_(config), rng_(config.seed), names_(&rng_) {}

  World Build();

 private:
  kg::EntityId AddType(const std::string& label,
                       const std::string& parent = "") {
    kg::Entity e;
    e.qid = "T" + std::to_string(next_qid_++);
    e.label = label;
    e.is_type = true;
    kg::EntityId id = world_.kg.AddEntity(std::move(e));
    world_.types[label] = id;
    world_.used_labels.insert(label);
    if (!parent.empty()) {
      world_.kg.AddTriple(id, kg::KnowledgeGraph::kSubclassOf,
                          world_.TypeId(parent));
    }
    return id;
  }

  kg::PredicateId Pred(const std::string& label) {
    auto it = world_.predicates.find(label);
    if (it != world_.predicates.end()) return it->second;
    kg::PredicateId id = world_.kg.AddPredicate(label);
    world_.predicates[label] = id;
    return id;
  }

  kg::EntityId AddInstance(const std::string& category,
                           const std::string& type_label, std::string label,
                           std::vector<std::string> aliases = {},
                           bool is_person = false) {
    kg::Entity e;
    e.qid = "Q" + std::to_string(next_qid_++);
    e.label = label;
    e.aliases = std::move(aliases);
    e.is_person = is_person;
    kg::EntityId id = world_.kg.AddEntity(std::move(e));
    world_.kg.AddTriple(id, kg::KnowledgeGraph::kInstanceOf,
                        world_.TypeId(type_label));
    world_.catalog[category].push_back(id);
    world_.used_labels.insert(label);

    // Linking-ambiguity noise: a same-label decoy entity with no useful
    // edges, kept out of the catalog (tables never anchor on it) but
    // visible to BM25. Half the decoys carry a *different* type — the
    // real-world failure mode where the top BM25 hit is the wrong entity
    // of the right name (the paper's critique of single-cell linking).
    if (rng_.Bernoulli(config_.duplicate_entity_prob)) {
      kg::Entity dup;
      dup.qid = "Q" + std::to_string(next_qid_++);
      dup.label = world_.kg.entity(id).label;
      dup.is_person = is_person;
      kg::EntityId dup_id = world_.kg.AddEntity(std::move(dup));
      kg::EntityId dup_type = world_.TypeId(type_label);
      if (rng_.Bernoulli(0.5) && !world_.types.empty()) {
        auto it = world_.types.begin();
        std::advance(it, static_cast<long>(rng_.Uniform(
                             world_.types.size())));
        dup_type = it->second;
      }
      world_.kg.AddTriple(dup_id, kg::KnowledgeGraph::kInstanceOf,
                          dup_type);
    }
    return id;
  }

  // Adds a relation unless it falls to missing-edge noise.
  void Relate(kg::EntityId s, const std::string& pred, kg::EntityId o) {
    if (rng_.Bernoulli(config_.missing_edge_prob)) return;
    world_.kg.AddTriple(s, Pred(pred), o);
  }

  // Person instance, WikiData-style: `instance of` points at the coarse
  // "human" type (the paper's Fig. 1: "we would only obtain Human" from
  // the type attribute); the fine type arrives as an `occupation` edge to
  // the occupation/class entity, subject to missing-edge noise. This is
  // what makes the type-granularity gap — and HNN's reliance on the type
  // attribute — behave as in the paper.
  kg::EntityId AddPerson(const std::string& category,
                         const std::string& occupation_label,
                         std::string label,
                         std::vector<std::string> aliases = {}) {
    kg::EntityId id = AddInstance(category, "human", std::move(label),
                                  std::move(aliases), /*is_person=*/true);
    Relate(id, "occupation", world_.TypeId(occupation_label));
    return id;
  }

  // Random member of a category.
  kg::EntityId Sample(const std::string& category) {
    const auto& pool = world_.Instances(category);
    KGLINK_CHECK(!pool.empty()) << "empty category " << category;
    return pool[rng_.Uniform(pool.size())];
  }

  int Scaled(int base) {
    int v = static_cast<int>(base * config_.scale);
    return v < 2 ? 2 : v;
  }

  // Open-class instance count (see WorldConfig::open_class_scale).
  int ScaledOpen(int base) {
    int v = static_cast<int>(base * config_.scale *
                             config_.open_class_scale);
    return v < 2 ? 2 : v;
  }

  std::string UniqueName(std::string (NameGenerator::*gen)()) {
    for (int attempt = 0; attempt < 1000; ++attempt) {
      std::string name = (names_.*gen)();
      if (!world_.used_labels.count(name)) return name;
    }
    KGLINK_CHECK(false) << "name space exhausted";
    return {};
  }

  WorldConfig config_;
  Rng rng_;
  NameGenerator names_;
  World world_;
  int64_t next_qid_ = 1;
};

struct SportSpec {
  const char* sport;
  const char* player_type;
  const char* team_type;  // nullptr: no teams (tennis)
  std::vector<const char*> positions;
};

World WorldBuilder::Build() {
  // ----- type hierarchy -----
  AddType("human");
  AddType("athlete", "human");
  AddType("basketball player", "athlete");
  AddType("football player", "athlete");
  AddType("cricketer", "athlete");
  AddType("tennis player", "athlete");
  AddType("musician", "human");
  AddType("actor", "human");
  AddType("film director", "human");
  AddType("writer", "human");
  AddType("scientist", "human");
  AddType("organization");
  AddType("sports team", "organization");
  AddType("basketball team", "sports team");
  AddType("football club", "sports team");
  AddType("cricket club", "sports team");
  AddType("musical group", "organization");
  AddType("company", "organization");
  AddType("film studio", "company");
  AddType("university", "organization");
  AddType("creative work");
  AddType("album", "creative work");
  AddType("film", "creative work");
  AddType("book", "creative work");
  AddType("place");
  AddType("city", "place");
  AddType("country", "place");
  AddType("sport");
  AddType("music genre");
  AddType("industry");
  AddType("position");
  AddType("protein");
  AddType("gene");
  AddType("award");

  // ----- closed-class instances -----
  const SportSpec sports[] = {
      {"basketball", "basketball player", "basketball team",
       {"Point Guard", "Shooting Guard", "Small Forward", "Power Forward",
        "Center"}},
      {"football", "football player", "football club",
       {"Goalkeeper", "Defender", "Midfielder", "Forward"}},
      {"cricket", "cricketer", "cricket club",
       {"Batsman", "Bowler", "Wicketkeeper", "All-rounder"}},
      {"tennis", "tennis player", nullptr, {}},
  };
  // Ids of each sport and of its positions, for the wiring below.
  std::map<std::string, kg::EntityId> sport_ids;
  std::map<std::string, std::vector<kg::EntityId>> position_ids;
  for (const auto& s : sports) {
    sport_ids[s.sport] = AddInstance("sport", "sport", s.sport);
    for (const char* pos : s.positions) {
      kg::EntityId pid = AddInstance("position", "position", pos);
      Relate(pid, "position of sport",
             world_.Instances("sport").back());  // best-effort link
      position_ids[s.sport].push_back(pid);
    }
  }

  const char* kGenres[] = {"Rock", "Jazz", "Folk",      "Blues", "Electronic",
                           "Pop",  "Metal", "Classical", "Soul",  "Country"};
  for (const char* g : kGenres) AddInstance("music genre", "music genre", g);
  const char* kIndustries[] = {"Software", "Finance",  "Energy",
                               "Retail",   "Aerospace", "Telecom",
                               "Media",    "Automotive", "Pharmaceuticals",
                               "Agriculture"};
  for (const char* ind : kIndustries) AddInstance("industry", "industry", ind);
  for (int i = 0; i < Scaled(12); ++i) {
    AddInstance("award", "award", UniqueName(&NameGenerator::WorkTitle) +
                                      " Award");
  }

  // ----- geography -----
  for (int i = 0; i < Scaled(20); ++i) {
    AddInstance("country", "country", UniqueName(&NameGenerator::CountryName));
  }
  for (int i = 0; i < Scaled(70); ++i) {
    kg::EntityId city = AddInstance("city", "city",
                                    UniqueName(&NameGenerator::CityName));
    Relate(city, "located in", Sample("country"));
  }

  // ----- sports -----
  for (const auto& s : sports) {
    std::string pos_category = std::string(s.sport) + " position";
    // Index per-sport position pools for table generation.
    for (kg::EntityId pid : position_ids[s.sport]) {
      world_.catalog[pos_category].push_back(pid);
    }
    if (s.team_type != nullptr) {
      for (int i = 0; i < Scaled(10); ++i) {
        // The city is resampled on retry: a fixed city only offers a few
        // mascot combinations and can exhaust under heavy reuse.
        kg::EntityId city = Sample("city");
        std::string name = names_.Unique(&world_.used_labels, [&] {
          city = Sample("city");
          return names_.TeamName(world_.kg.entity(city).label);
        });
        kg::EntityId team = AddInstance(s.team_type, s.team_type, name);
        Relate(team, "located in", city);
        Relate(team, "plays sport", sport_ids[s.sport]);
      }
    }
    for (int i = 0; i < ScaledOpen(70); ++i) {
      std::string name = UniqueName(&NameGenerator::PersonName);
      std::vector<std::string> aliases;
      if (rng_.Bernoulli(0.7)) aliases.push_back(NameGenerator::PersonAlias(name));
      kg::EntityId p =
          AddPerson(s.player_type, s.player_type, name, std::move(aliases));
      Relate(p, "plays sport", sport_ids[s.sport]);
      Relate(p, "place of birth", Sample("city"));
      if (s.team_type != nullptr) {
        Relate(p, "member of sports team", Sample(s.team_type));
      }
      if (!s.positions.empty()) {
        Relate(p, "position played", Sample(pos_category));
      }
      if (rng_.Bernoulli(0.25)) Relate(p, "award received", Sample("award"));
    }
  }

  // ----- music -----
  for (int i = 0; i < Scaled(30); ++i) {
    kg::EntityId band = AddInstance("musical group", "musical group",
                                    UniqueName(&NameGenerator::BandName));
    Relate(band, "genre", Sample("music genre"));
    Relate(band, "located in", Sample("city"));
  }
  for (int i = 0; i < ScaledOpen(120); ++i) {
    std::string name = UniqueName(&NameGenerator::PersonName);
    std::vector<std::string> aliases;
    if (rng_.Bernoulli(0.6)) aliases.push_back(NameGenerator::PersonAlias(name));
    kg::EntityId m =
        AddPerson("musician", "musician", name, std::move(aliases));
    Relate(m, "place of birth", Sample("city"));
    Relate(m, "genre", Sample("music genre"));
    if (rng_.Bernoulli(0.5)) Relate(m, "member of", Sample("musical group"));
    if (rng_.Bernoulli(0.2)) Relate(m, "award received", Sample("award"));
  }
  for (int i = 0; i < ScaledOpen(150); ++i) {
    kg::EntityId album = AddInstance("album", "album",
                                     UniqueName(&NameGenerator::WorkTitle));
    kg::EntityId artist = Sample("musician");
    Relate(album, "performer", artist);
    Relate(album, "genre", Sample("music genre"));
  }

  // ----- film -----
  for (int i = 0; i < Scaled(12); ++i) {
    kg::EntityId studio = AddInstance("film studio", "film studio",
                                      UniqueName(&NameGenerator::CompanyName));
    Relate(studio, "headquartered in", Sample("city"));
  }
  for (int i = 0; i < ScaledOpen(30); ++i) {
    kg::EntityId d = AddPerson("film director", "film director",
                               UniqueName(&NameGenerator::PersonName));
    Relate(d, "place of birth", Sample("city"));
  }
  for (int i = 0; i < ScaledOpen(90); ++i) {
    kg::EntityId a =
        AddPerson("actor", "actor", UniqueName(&NameGenerator::PersonName));
    Relate(a, "place of birth", Sample("city"));
  }
  for (int i = 0; i < ScaledOpen(110); ++i) {
    kg::EntityId f = AddInstance("film", "film",
                                 UniqueName(&NameGenerator::WorkTitle));
    Relate(f, "director", Sample("film director"));
    Relate(f, "cast member", Sample("actor"));
    if (rng_.Bernoulli(0.6)) Relate(f, "cast member", Sample("actor"));
    Relate(f, "production company", Sample("film studio"));
    Relate(f, "country of origin", Sample("country"));
  }

  // ----- literature -----
  for (int i = 0; i < ScaledOpen(60); ++i) {
    kg::EntityId w = AddPerson("writer", "writer",
                               UniqueName(&NameGenerator::PersonName));
    Relate(w, "place of birth", Sample("city"));
  }
  for (int i = 0; i < ScaledOpen(90); ++i) {
    kg::EntityId b = AddInstance("book", "book",
                                 UniqueName(&NameGenerator::WorkTitle));
    Relate(b, "author", Sample("writer"));
    Relate(b, "country of origin", Sample("country"));
  }

  // ----- academia & science -----
  for (int i = 0; i < Scaled(35); ++i) {
    kg::EntityId city = Sample("city");
    std::string name = names_.Unique(&world_.used_labels, [&] {
      city = Sample("city");  // resample on retry, see team naming above
      return rng_.Bernoulli(0.5)
                 ? "University of " + world_.kg.entity(city).label
                 : world_.kg.entity(city).label + " University";
    });
    kg::EntityId u = AddInstance("university", "university", name);
    Relate(u, "located in", city);
  }
  for (int i = 0; i < ScaledOpen(60); ++i) {
    kg::EntityId g = AddInstance("gene", "gene",
                                 UniqueName(&NameGenerator::GeneSymbol));
    (void)g;
  }
  for (int i = 0; i < ScaledOpen(50); ++i) {
    kg::EntityId s = AddPerson("scientist", "scientist",
                               UniqueName(&NameGenerator::PersonName));
    Relate(s, "educated at", Sample("university"));
  }
  for (int i = 0; i < ScaledOpen(60); ++i) {
    kg::EntityId p = AddInstance("protein", "protein",
                                 UniqueName(&NameGenerator::ProteinName));
    Relate(p, "encoded by", Sample("gene"));
    Relate(p, "discovered by", Sample("scientist"));
  }

  // ----- business -----
  for (int i = 0; i < ScaledOpen(80); ++i) {
    kg::EntityId c = AddInstance("company", "company",
                                 UniqueName(&NameGenerator::CompanyName));
    Relate(c, "headquartered in", Sample("city"));
    Relate(c, "industry", Sample("industry"));
  }

  KGLINK_CHECK(world_.kg.Finalize().ok());  // qids are unique by construction
  return std::move(world_);
}

}  // namespace

const std::vector<kg::EntityId>& World::Instances(
    const std::string& category) const {
  auto it = catalog.find(category);
  KGLINK_CHECK(it != catalog.end()) << "unknown category " << category;
  return it->second;
}

kg::EntityId World::TypeId(const std::string& type_label) const {
  auto it = types.find(type_label);
  KGLINK_CHECK(it != types.end()) << "unknown type " << type_label;
  return it->second;
}

kg::PredicateId World::PredicateIdOf(const std::string& label) const {
  auto it = predicates.find(label);
  KGLINK_CHECK(it != predicates.end()) << "unknown predicate " << label;
  return it->second;
}

World GenerateWorld(const WorldConfig& config) {
  return WorldBuilder(config).Build();
}

}  // namespace kglink::data
