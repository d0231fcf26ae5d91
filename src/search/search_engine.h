// Inverted-index BM25 retrieval over short text documents — the stand-in
// for the paper's Elasticsearch index of WikiData entity labels. Scores are
// exactly the paper's Eq. 1 (BM25) with Eq. 2 (IDF).
//
// The index is built incrementally (AddDocument) into per-term posting
// vectors and then *frozen* by Finalize(), which compacts every posting
// list into one contiguous array with per-term slices and precomputes the
// two per-query-invariant factors of Eq. 1: each term's IDF and each
// document's length norm k1*(1-b+b*len/avgdl). TopK, Score and
// ExplainScore all read the same frozen tables, so the three stay
// bit-identical with each other — and with the retained naive scorer in
// reference_scorer.h, which tests pin them against.
//
// Frozen storage comes in two flavours with one query path:
//  - owned: Finalize() compacts into heap arrays the engine owns;
//  - borrowed: FromFrozenView() points the same table pointers at an
//    external read-only mapping (the mmap'd snapshot store), copying
//    nothing. Terms are found by binary search over the lexicographically
//    ordered term table, which the snapshot loader verifies.
// Both flavours produce bit-identical TopK/Score/ExplainScore results; the
// snapshot parity tests pin that.
#ifndef KGLINK_SEARCH_SEARCH_ENGINE_H_
#define KGLINK_SEARCH_SEARCH_ENGINE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "kg/knowledge_graph.h"
#include "util/check.h"
#include "util/deadline.h"

namespace kglink::search {

// BM25 free parameters (Elasticsearch defaults).
struct Bm25Params {
  double k1 = 1.2;
  double b = 0.75;
};

struct SearchResult {
  int32_t doc_id;
  double score;
};

// One posting of the frozen flat index. Trivially copyable with no
// padding, so posting arrays can be serialized and mmap'd byte-for-byte.
struct Posting {
  int32_t doc_index;  // dense internal index
  int32_t term_freq;
};
static_assert(sizeof(Posting) == 8 && alignof(Posting) == 4,
              "Posting must be a packed POD for snapshot serialization");

// Frozen per-term record: where the term's bytes live in the term blob,
// where its postings live in the flat posting array, and its precomputed
// Eq. 2 IDF. Laid out padding-free (8-byte members first) so term tables
// serialize and mmap byte-for-byte.
struct TermEntry {
  uint64_t blob_offset = 0;   // into the term blob
  int64_t posting_begin = 0;  // into the flat posting array
  double idf = 0.0;           // Eq. 2
  uint32_t term_len = 0;
  uint32_t posting_count = 0;
};
static_assert(sizeof(TermEntry) == 32,
              "TermEntry must be a packed POD for snapshot serialization");

// Borrowed view of a frozen index: raw pointers into memory owned by
// someone else (a finalized engine, or a read-only snapshot mapping that
// must outlive any engine constructed from the view).
struct FrozenIndexView {
  Bm25Params params;
  double avg_doc_len = 1.0;
  uint64_t num_docs = 0;
  const int32_t* doc_len = nullptr;       // [num_docs]
  const double* doc_norm = nullptr;       // [num_docs]
  const int32_t* external_ids = nullptr;  // [num_docs] dense -> doc_id
  uint64_t num_terms = 0;
  const TermEntry* terms = nullptr;  // [num_terms], strictly ascending text
  const char* term_blob = nullptr;   // concatenated sorted term bytes
  uint64_t term_blob_size = 0;
  uint64_t num_postings = 0;
  const Posting* postings = nullptr;  // [num_postings], term-major
};

// Per-term breakdown of one document's BM25 score — the Eq. 1 summand for
// a single query term. Used by the decision-provenance records to show
// which tokens of a cell mention actually matched an entity.
struct TermScore {
  std::string term;
  double idf = 0.0;        // Eq. 2
  int32_t term_freq = 0;   // f(w, e): occurrences in the document
  double contribution = 0.0;  // idf * saturated-tf (summed over the query)
};

// A pre-tokenized document: distinct terms with their in-document
// frequencies, plus the total token count (the BM25 document length).
// Produced by TokenizeDocument; lets callers tokenize off-thread (the
// parallel IndexKnowledgeGraph path) and feed the index in a deterministic
// order.
struct TokenizedDoc {
  int32_t doc_id = 0;
  int32_t length = 0;  // total tokens, including repeats
  std::vector<std::pair<std::string, int32_t>> term_freqs;  // sorted by term
};

// Splits `text` with the shared analyzer (SplitWords) and folds repeats
// into term frequencies. Pure function, safe from any thread.
TokenizedDoc TokenizeDocument(int32_t doc_id, std::string_view text);

class SearchEngine {
 public:
  explicit SearchEngine(Bm25Params params = {});

  // Move-only: the frozen tables are reached through raw pointers (owned
  // heap arrays or a borrowed mapping) that stay valid across moves but
  // would dangle across a naive copy.
  SearchEngine(const SearchEngine&) = delete;
  SearchEngine& operator=(const SearchEngine&) = delete;
  SearchEngine(SearchEngine&&) = default;
  SearchEngine& operator=(SearchEngine&&) = default;

  // Adds a document. doc_id is caller-defined (entity id); duplicates are a
  // programming error. Call before Finalize().
  void AddDocument(int32_t doc_id, std::string_view text);

  // Adds a pre-tokenized document (see TokenizeDocument). Equivalent to
  // AddDocument(doc.doc_id, original_text); the parallel indexing path uses
  // it to keep tokenization off the single-threaded build loop.
  void AddTokenized(const TokenizedDoc& doc);

  // Freezes the index: compacts the posting lists into one contiguous
  // array (terms in lexicographic order, so the layout — and any snapshot
  // written from it — is deterministic), and precomputes IDF per term and
  // the BM25 length norm per document. Must be called once before queries.
  void Finalize();

  // Borrowed view over this engine's frozen tables, suitable for snapshot
  // serialization. Valid only while the engine is alive and unmoved.
  // Requires finalized().
  FrozenIndexView View() const;

  // Constructs a queryable engine that *borrows* every frozen table from
  // `view` — no posting/norm/blob copies. The memory behind `view` must
  // outlive the returned engine. The caller is responsible for having
  // validated the view — bounds, and terms in strictly ascending order —
  // as the snapshot loader does before handing views out.
  static SearchEngine FromFrozenView(const FrozenIndexView& view);

  // True when the frozen tables live in external memory (FromFrozenView).
  bool borrowed() const { return borrowed_; }

  // Top-k documents by BM25 score for a free-text query. Ties broken by
  // doc id for determinism. Documents with zero overlap are not returned.
  //
  // `rc` (optional, borrowed) is the serving path's deadline/cancellation:
  // an expired or cancelled request returns an empty result immediately
  // (checked once at entry and once per query term), which upstream treats
  // as an unlinkable cell. A null or unbounded context costs nothing.
  //
  // Thread safety: const queries on a finalized engine are safe from any
  // number of threads concurrently (the index is immutable after Finalize;
  // the score accumulator is thread-local scratch).
  std::vector<SearchResult> TopK(std::string_view query, int k,
                                 const RequestContext* rc = nullptr) const;

  // BM25 score of one document for a query (0 if no term overlap).
  double Score(std::string_view query, int32_t doc_id) const;

  // Per-term decomposition of Score(query, doc_id): one entry per distinct
  // matching query term (query-side repeats fold into its contribution).
  // The contributions sum to Score(query, doc_id). Non-matching terms are
  // omitted.
  std::vector<TermScore> ExplainScore(std::string_view query,
                                      int32_t doc_id) const;

  // Eq. 2 IDF of a term. Unseen terms do NOT get IDF 0: with n(w) = 0,
  // Eq. 2 yields the maximum value ln((N + 0.5) / 0.5 + 1) — unseen terms
  // are maximally discriminative, they just never match any document.
  double Idf(std::string_view term) const;

  int64_t num_documents() const { return static_cast<int64_t>(num_docs_); }
  double average_doc_length() const { return avg_doc_len_; }
  bool finalized() const { return finalized_; }
  const Bm25Params& params() const { return params_; }

 private:
  // Points the query-path table pointers at `view`'s arrays and builds
  // the doc-id index when needed. Shared by Finalize and FromFrozenView.
  void BindFrozenTables(const FrozenIndexView& view);

  // Locates a term in the frozen index by binary search over the
  // lexicographically ordered term table; nullptr when unseen.
  const TermEntry* FindTerm(std::string_view term) const;
  // External doc id -> dense index; a checked error for unknown ids.
  // Binary search over external_ids_ when ascending, else the hash map.
  int32_t DocIndexOf(int32_t doc_id) const;
  // Eq. 1 contribution of one posting against doc_norm_[doc_index].
  double PostingScore(double idf, const Posting& p) const;
  // The term's bytes inside the frozen blob.
  std::string_view TermText(const TermEntry& entry) const {
    return {term_blob_ + entry.blob_offset, entry.term_len};
  }

  Bm25Params params_;
  bool finalized_ = false;
  bool borrowed_ = false;
  // Build-time postings; cleared by Finalize() after compaction.
  std::unordered_map<std::string, std::vector<Posting>> postings_;
  double avg_doc_len_ = 0.0;

  // Owned frozen tables (valid once finalized in owned mode; empty in
  // borrowed mode). The term blob is a unique_ptr<char[]>, not a string,
  // so term_blob_ survives moves (no SSO relocation).
  std::vector<int32_t> owned_doc_len_;
  std::vector<double> owned_doc_norm_;
  std::vector<int32_t> owned_external_ids_;
  std::vector<TermEntry> owned_terms_;
  std::unique_ptr<char[]> owned_term_blob_;
  std::vector<Posting> owned_postings_;

  // The query path reads only these; they point at the owned arrays above
  // or at a borrowed snapshot mapping. Stable across moves either way.
  uint64_t num_docs_ = 0;
  const int32_t* doc_len_ = nullptr;
  const double* doc_norm_ = nullptr;
  const int32_t* external_ids_ = nullptr;
  uint64_t num_terms_ = 0;
  const TermEntry* term_entries_ = nullptr;
  const char* term_blob_ = nullptr;
  uint64_t term_blob_size_ = 0;
  uint64_t num_postings_ = 0;
  const Posting* flat_postings_ = nullptr;

  // External doc id -> dense index. BindFrozenTables leaves it EMPTY when
  // the ids ascend (IndexKnowledgeGraph adds docs in id order, so every
  // snapshot does) and DocIndexOf binary-searches them in place; callers
  // that add docs out of id order get the map. It is also the build-time
  // duplicate-id check.
  bool external_ids_sorted_ = false;
  std::unordered_map<int32_t, int32_t> id_to_index_;
};

// Indexes every KG entity: document text = label + aliases. Finalized.
// Tokenization is parallelized across entity shards for large graphs; the
// resulting index is bit-identical to the sequential build regardless of
// thread count.
SearchEngine IndexKnowledgeGraph(const kg::KnowledgeGraph& kg,
                                 Bm25Params params = {});

}  // namespace kglink::search

#endif  // KGLINK_SEARCH_SEARCH_ENGINE_H_
