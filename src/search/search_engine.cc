#include "search/search_engine.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <thread>

#include "obs/metrics.h"
#include "obs/scope.h"
#include "util/string_util.h"

namespace kglink::search {

namespace {

#if defined(KGLINK_OBS_ENABLED)
// Resolved once; afterwards updates are relaxed atomics on the hot path.
// A short TopK query runs in under a microsecond, so even these are gated
// behind KGLINK_OBS_HOT and vanish in obs-disabled builds.
struct TopKMetrics {
  obs::Counter& calls;
  obs::Counter& docs_scanned;
  obs::Counter& candidates;

  static TopKMetrics& Get() {
    static TopKMetrics& m = *[] {
      auto& reg = obs::MetricsRegistry::Global();
      return new TopKMetrics{reg.GetCounter("search.topk.calls"),
                             reg.GetCounter("search.topk.docs_scanned"),
                             reg.GetCounter("search.topk.candidates")};
    }();
    return m;
  }
};
#endif  // KGLINK_OBS_ENABLED

// Thread-local dense score accumulator for TopK. The score slot for a
// document is valid only when its stamp equals the current query's stamp,
// so successive queries never pay an O(num_docs) clear — only the touched
// list is walked. Shared across engines on a thread (sized to the largest
// engine seen); TopK is re-entrant per thread by construction (no
// recursion), so one scratch per thread suffices.
struct TopKScratch {
  std::vector<double> score;
  std::vector<uint32_t> stamp;
  std::vector<int32_t> touched;
  std::string token;  // ForEachWord's reusable token buffer
  uint32_t cur = 0;

  void Begin(size_t num_docs) {
    if (score.size() < num_docs) {
      score.resize(num_docs);
      stamp.resize(num_docs, 0);
    }
    touched.clear();
    if (++cur == 0) {  // stamp wrap: invalidate everything once per 2^32
      std::fill(stamp.begin(), stamp.end(), 0);
      cur = 1;
    }
  }

  static TopKScratch& Get() {
    thread_local TopKScratch scratch;
    return scratch;
  }
};

// Result ordering: score descending, doc id ascending on ties.
inline bool BetterResult(const SearchResult& a, const SearchResult& b) {
  if (a.score != b.score) return a.score > b.score;
  return a.doc_id < b.doc_id;
}

}  // namespace

TokenizedDoc TokenizeDocument(int32_t doc_id, std::string_view text) {
  TokenizedDoc doc;
  doc.doc_id = doc_id;
  auto terms = SplitWords(text);
  doc.length = static_cast<int32_t>(terms.size());
  std::sort(terms.begin(), terms.end());
  for (size_t i = 0; i < terms.size();) {
    size_t j = i;
    while (j < terms.size() && terms[j] == terms[i]) ++j;
    doc.term_freqs.emplace_back(std::move(terms[i]),
                                static_cast<int32_t>(j - i));
    i = j;
  }
  return doc;
}

SearchEngine::SearchEngine(Bm25Params params) : params_(params) {}

void SearchEngine::AddDocument(int32_t doc_id, std::string_view text) {
  AddTokenized(TokenizeDocument(doc_id, text));
}

void SearchEngine::AddTokenized(const TokenizedDoc& doc) {
  KGLINK_CHECK(!finalized_) << "AddDocument after Finalize";
  auto [it, inserted] = id_to_index_.emplace(
      doc.doc_id, static_cast<int32_t>(owned_doc_len_.size()));
  KGLINK_CHECK(inserted) << "duplicate doc id " << doc.doc_id;
  (void)it;
  owned_external_ids_.push_back(doc.doc_id);
  owned_doc_len_.push_back(doc.length);
  for (const auto& [term, freq] : doc.term_freqs) {
    postings_[term].push_back(
        {static_cast<int32_t>(owned_doc_len_.size()) - 1, freq});
  }
}

void SearchEngine::Finalize() {
  KGLINK_CHECK(!finalized_);
  finalized_ = true;
  int64_t total = 0;
  for (int32_t len : owned_doc_len_) total += len;
  avg_doc_len_ = owned_doc_len_.empty()
                     ? 1.0
                     : static_cast<double>(total) /
                           static_cast<double>(owned_doc_len_.size());
  if (avg_doc_len_ <= 0) avg_doc_len_ = 1.0;

  // Precompute each document's Eq. 1 length norm k1*(1 - b + b*len/avgdl):
  // the only per-document factor of the BM25 denominator.
  owned_doc_norm_.resize(owned_doc_len_.size());
  for (size_t i = 0; i < owned_doc_len_.size(); ++i) {
    double len = static_cast<double>(owned_doc_len_[i]);
    owned_doc_norm_[i] = params_.k1 * (1.0 - params_.b +
                                       params_.b * len / avg_doc_len_);
  }

  // Compact the per-term posting vectors into one contiguous array with
  // per-term entries, and precompute each term's Eq. 2 IDF. Terms are laid
  // out in lexicographic order so the frozen tables — and any snapshot
  // written from them — are deterministic regardless of hash-map iteration
  // order. Postings within a slice keep their build order, which is
  // ascending doc_index (documents are added one at a time), so
  // Score/ExplainScore can binary-search.
  std::vector<const std::pair<const std::string, std::vector<Posting>>*>
      sorted;
  sorted.reserve(postings_.size());
  for (const auto& kv : postings_) sorted.push_back(&kv);
  std::sort(sorted.begin(), sorted.end(),
            [](const auto* a, const auto* b) { return a->first < b->first; });

  size_t blob_size = 0;
  size_t total_postings = 0;
  for (const auto* kv : sorted) {
    blob_size += kv->first.size();
    total_postings += kv->second.size();
  }
  owned_term_blob_ = std::make_unique<char[]>(blob_size > 0 ? blob_size : 1);
  owned_terms_.reserve(sorted.size());
  owned_postings_.reserve(total_postings);
  double num_docs = static_cast<double>(owned_doc_len_.size());
  uint64_t blob_offset = 0;
  for (const auto* kv : sorted) {
    const std::string& term = kv->first;
    const std::vector<Posting>& plist = kv->second;
    TermEntry entry;
    entry.blob_offset = blob_offset;
    entry.term_len = static_cast<uint32_t>(term.size());
    entry.posting_begin = static_cast<int64_t>(owned_postings_.size());
    entry.posting_count = static_cast<uint32_t>(plist.size());
    double n = static_cast<double>(plist.size());
    // Paper Eq. 2: ln((N - n + 0.5) / (n + 0.5) + 1).
    entry.idf = std::log((num_docs - n + 0.5) / (n + 0.5) + 1.0);
    std::memcpy(owned_term_blob_.get() + blob_offset, term.data(),
                term.size());
    blob_offset += term.size();
    owned_postings_.insert(owned_postings_.end(), plist.begin(), plist.end());
    owned_terms_.push_back(entry);
  }
  postings_.clear();

  FrozenIndexView view;
  view.params = params_;
  view.avg_doc_len = avg_doc_len_;
  view.num_docs = owned_doc_len_.size();
  view.doc_len = owned_doc_len_.data();
  view.doc_norm = owned_doc_norm_.data();
  view.external_ids = owned_external_ids_.data();
  view.num_terms = owned_terms_.size();
  view.terms = owned_terms_.data();
  view.term_blob = owned_term_blob_.get();
  view.term_blob_size = blob_size;
  view.num_postings = owned_postings_.size();
  view.postings = owned_postings_.data();
  BindFrozenTables(view);
}

FrozenIndexView SearchEngine::View() const {
  KGLINK_CHECK(finalized_) << "View() before Finalize";
  FrozenIndexView view;
  view.params = params_;
  view.avg_doc_len = avg_doc_len_;
  view.num_docs = num_docs_;
  view.doc_len = doc_len_;
  view.doc_norm = doc_norm_;
  view.external_ids = external_ids_;
  view.num_terms = num_terms_;
  view.terms = term_entries_;
  view.term_blob = term_blob_;
  view.term_blob_size = term_blob_size_;
  view.num_postings = num_postings_;
  view.postings = flat_postings_;
  return view;
}

SearchEngine SearchEngine::FromFrozenView(const FrozenIndexView& view) {
  SearchEngine engine(view.params);
  engine.finalized_ = true;
  engine.borrowed_ = true;
  engine.avg_doc_len_ = view.avg_doc_len;
  engine.BindFrozenTables(view);
  return engine;
}

void SearchEngine::BindFrozenTables(const FrozenIndexView& view) {
  num_docs_ = view.num_docs;
  doc_len_ = view.doc_len;
  doc_norm_ = view.doc_norm;
  external_ids_ = view.external_ids;
  num_terms_ = view.num_terms;
  term_entries_ = view.terms;
  term_blob_ = view.term_blob;
  term_blob_size_ = view.term_blob_size;
  num_postings_ = view.num_postings;
  flat_postings_ = view.postings;

  // Docs added in ascending id order (IndexKnowledgeGraph, hence every
  // snapshot) are found by binary search; any other order gets the map.
  external_ids_sorted_ = true;
  for (uint64_t i = 1; i < num_docs_; ++i) {
    if (external_ids_[i - 1] >= external_ids_[i]) {
      external_ids_sorted_ = false;
      break;
    }
  }
  id_to_index_.clear();
  if (!external_ids_sorted_) {
    id_to_index_.reserve(num_docs_);
    for (uint64_t i = 0; i < num_docs_; ++i) {
      id_to_index_.emplace(external_ids_[i], static_cast<int32_t>(i));
    }
  }
}

const TermEntry* SearchEngine::FindTerm(std::string_view term) const {
  const TermEntry* end = term_entries_ + num_terms_;
  const TermEntry* it = std::lower_bound(
      term_entries_, end, term, [this](const TermEntry& e, std::string_view t) {
        return TermText(e) < t;
      });
  return it != end && TermText(*it) == term ? it : nullptr;
}

int32_t SearchEngine::DocIndexOf(int32_t doc_id) const {
  if (external_ids_sorted_) {
    const int32_t* end = external_ids_ + num_docs_;
    const int32_t* it = std::lower_bound(external_ids_, end, doc_id);
    KGLINK_CHECK(it != end && *it == doc_id) << "unknown doc id " << doc_id;
    return static_cast<int32_t>(it - external_ids_);
  }
  auto it = id_to_index_.find(doc_id);
  KGLINK_CHECK(it != id_to_index_.end()) << "unknown doc id " << doc_id;
  return it->second;
}

double SearchEngine::PostingScore(double idf, const Posting& p) const {
  double f = static_cast<double>(p.term_freq);
  // Paper Eq. 1 per-term contribution, with the precomputed length norm.
  double tf = f * (params_.k1 + 1.0) / (f + doc_norm_[p.doc_index]);
  return idf * tf;
}

double SearchEngine::Idf(std::string_view term) const {
  KGLINK_CHECK(finalized_);
  const TermEntry* entry = FindTerm(term);
  if (entry != nullptr) return entry->idf;
  double total = static_cast<double>(num_docs_);
  // Unseen term: n(w) = 0 in Eq. 2.
  return std::log((total + 0.5) / 0.5 + 1.0);
}

std::vector<SearchResult> SearchEngine::TopK(std::string_view query, int k,
                                             const RequestContext* rc) const {
  KGLINK_CHECK(finalized_) << "query before Finalize";
  KGLINK_OBS_HOT(TopKMetrics::Get().calls.Add());
  // "search.topk": clock reads only for a request that carries telemetry.
  KGLINK_SCOPE(obs::Stage::kTopK, rc);
  if (k <= 0 || num_docs_ == 0) return {};
  bool bounded = rc != nullptr && !rc->Unbounded();
  if (bounded && rc->Expired()) return {};

  TopKScratch& scratch = TopKScratch::Get();
  scratch.Begin(num_docs_);
  bool expired_mid_query = false;
  // Tokenize in place (no per-term allocation) and accumulate into the
  // stamped dense array.
  ForEachWord(query, scratch.token, [&](const std::string& term) {
    // An expired request gets nothing rather than a partial (and therefore
    // timing-dependent) score accumulation.
    if (bounded && rc->Expired()) {
      expired_mid_query = true;
      return false;
    }
    const TermEntry* entry = FindTerm(term);
    if (entry == nullptr) return true;
    const Posting* postings = flat_postings_ + entry->posting_begin;
    for (uint32_t i = 0; i < entry->posting_count; ++i) {
      const Posting& p = postings[i];
      double contribution = PostingScore(entry->idf, p);
      size_t d = static_cast<size_t>(p.doc_index);
      if (scratch.stamp[d] == scratch.cur) {
        scratch.score[d] += contribution;
      } else {
        scratch.stamp[d] = scratch.cur;
        scratch.score[d] = contribution;
        scratch.touched.push_back(p.doc_index);
      }
    }
    return true;
  });
  if (expired_mid_query) return {};

  KGLINK_OBS_HOT(TopKMetrics::Get().docs_scanned.Add(
      static_cast<int64_t>(scratch.touched.size())));

  // Bounded top-k selection: a k-element heap with the *worst* kept result
  // at the front (BetterResult as the heap comparator makes push/pop_heap
  // sift the best elements down), so each touched doc costs one compare
  // against the current cutoff and at most O(log k) on improvement.
  std::vector<SearchResult> results;
  size_t want = static_cast<size_t>(k);
  results.reserve(std::min(want, scratch.touched.size()));
  for (int32_t index : scratch.touched) {
    SearchResult r{external_ids_[static_cast<size_t>(index)],
                   scratch.score[static_cast<size_t>(index)]};
    if (results.size() < want) {
      results.push_back(r);
      std::push_heap(results.begin(), results.end(), BetterResult);
    } else if (BetterResult(r, results.front())) {
      std::pop_heap(results.begin(), results.end(), BetterResult);
      results.back() = r;
      std::push_heap(results.begin(), results.end(), BetterResult);
    }
  }
  std::sort_heap(results.begin(), results.end(), BetterResult);
  KGLINK_OBS_HOT(TopKMetrics::Get().candidates.Add(
      static_cast<int64_t>(results.size())));
  return results;
}

double SearchEngine::Score(std::string_view query, int32_t doc_id) const {
  KGLINK_CHECK(finalized_);
  int32_t index = DocIndexOf(doc_id);
  double score = 0.0;
  for (const auto& term : SplitWords(query)) {
    const TermEntry* entry = FindTerm(term);
    if (entry == nullptr) continue;
    const Posting* begin = flat_postings_ + entry->posting_begin;
    const Posting* end = begin + entry->posting_count;
    const Posting* pit = std::lower_bound(
        begin, end, index,
        [](const Posting& p, int32_t v) { return p.doc_index < v; });
    if (pit == end || pit->doc_index != index) continue;
    score += PostingScore(entry->idf, *pit);
  }
  return score;
}

std::vector<TermScore> SearchEngine::ExplainScore(std::string_view query,
                                                  int32_t doc_id) const {
  KGLINK_CHECK(finalized_);
  int32_t index = DocIndexOf(doc_id);
  std::vector<TermScore> out;
  for (const auto& term : SplitWords(query)) {
    const TermEntry* entry = FindTerm(term);
    if (entry == nullptr) continue;
    const Posting* begin = flat_postings_ + entry->posting_begin;
    const Posting* end = begin + entry->posting_count;
    const Posting* pit = std::lower_bound(
        begin, end, index,
        [](const Posting& p, int32_t v) { return p.doc_index < v; });
    if (pit == end || pit->doc_index != index) continue;
    double contribution = PostingScore(entry->idf, *pit);
    // Fold repeated query terms into one entry (Score sums per occurrence).
    bool merged = false;
    for (TermScore& ts : out) {
      if (ts.term == term) {
        ts.contribution += contribution;
        merged = true;
        break;
      }
    }
    if (!merged) {
      out.push_back({term, entry->idf, pit->term_freq, contribution});
    }
  }
  return out;
}

SearchEngine IndexKnowledgeGraph(const kg::KnowledgeGraph& kg,
                                 Bm25Params params) {
  SearchEngine engine(params);
  const int64_t n = kg.num_entities();

  auto tokenize_one = [&kg](kg::EntityId id) {
    const kg::Entity& e = kg.entity(id);
    std::string doc = e.label;
    for (const auto& alias : e.aliases) {
      doc += " ";
      doc += alias;
    }
    return TokenizeDocument(id, doc);
  };

  // Tokenization (SplitWords + sort) dominates the build, and is a pure
  // per-entity function — shard it across threads. Documents are then fed
  // to the index in entity order, so the result is bit-identical to the
  // sequential build for any thread count.
  constexpr int64_t kMinEntitiesPerShard = 2048;
  int64_t threads = std::min<int64_t>(
      {static_cast<int64_t>(std::thread::hardware_concurrency()),
       n / kMinEntitiesPerShard, 8});
  if (threads > 1) {
    std::vector<TokenizedDoc> docs(static_cast<size_t>(n));
    std::vector<std::thread> workers;
    workers.reserve(static_cast<size_t>(threads));
    for (int64_t t = 0; t < threads; ++t) {
      int64_t lo = n * t / threads;
      int64_t hi = n * (t + 1) / threads;
      workers.emplace_back([&docs, &tokenize_one, lo, hi] {
        for (int64_t id = lo; id < hi; ++id) {
          docs[static_cast<size_t>(id)] =
              tokenize_one(static_cast<kg::EntityId>(id));
        }
      });
    }
    for (std::thread& w : workers) w.join();
    for (const TokenizedDoc& doc : docs) engine.AddTokenized(doc);
  } else {
    for (kg::EntityId id = 0; id < n; ++id) {
      engine.AddTokenized(tokenize_one(id));
    }
  }
  engine.Finalize();
  return engine;
}

}  // namespace kglink::search
