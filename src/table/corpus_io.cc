#include "table/corpus_io.h"

#include <filesystem>

#include "robust/fault_injector.h"
#include "util/csv.h"
#include "util/string_util.h"

namespace kglink::table {

namespace fs = std::filesystem;

namespace {

// All corpus reads go through the "io.read" fault site: a trip fails the
// read with kIoError, as a real storage error would, so tests exercise the
// error path.
StatusOr<std::string> ReadCorpusFile(const std::string& path) {
  if (robust::MaybeInject(robust::FaultSite::kIoRead)) {
    return Status::IoError("injected fault at io.read: " + path);
  }
  return ReadFile(path);
}

}  // namespace

Status SaveCorpus(const Corpus& corpus, const std::string& dir) {
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) return Status::IoError("cannot create directory " + dir);

  std::string meta = corpus.name + "\n";
  for (const auto& label : corpus.label_names) meta += label + "\n";
  KGLINK_RETURN_IF_ERROR(WriteFile(dir + "/corpus.meta", meta));

  std::string manifest;
  for (size_t i = 0; i < corpus.tables.size(); ++i) {
    const LabeledTable& lt = corpus.tables[i];
    std::string file = "t" + std::to_string(i) + ".csv";
    std::vector<std::vector<std::string>> rows;
    rows.reserve(static_cast<size_t>(lt.table.num_rows()));
    for (int r = 0; r < lt.table.num_rows(); ++r) {
      std::vector<std::string> row;
      row.reserve(static_cast<size_t>(lt.table.num_cols()));
      for (int c = 0; c < lt.table.num_cols(); ++c) {
        row.push_back(lt.table.at(r, c).text);
      }
      rows.push_back(std::move(row));
    }
    KGLINK_RETURN_IF_ERROR(WriteFile(dir + "/" + file, WriteCsv(rows)));
    std::vector<std::string> label_strs;
    for (int label : lt.column_labels) {
      label_strs.push_back(std::to_string(label));
    }
    manifest += file + "\t" + Join(label_strs, ",") + "\n";
  }
  return WriteFile(dir + "/tables.tsv", manifest);
}

StatusOr<Corpus> LoadCorpus(const std::string& dir) {
  KGLINK_ASSIGN_OR_RETURN(std::string meta,
                          ReadCorpusFile(dir + "/corpus.meta"));
  Corpus corpus;
  bool first = true;
  for (auto& line : Split(meta, '\n')) {
    if (first) {
      corpus.name = line;
      first = false;
    } else if (!line.empty()) {
      corpus.label_names.push_back(std::move(line));
    }
  }
  if (first) return Status::Corruption("empty corpus.meta");

  KGLINK_ASSIGN_OR_RETURN(std::string manifest,
                          ReadCorpusFile(dir + "/tables.tsv"));
  for (const auto& line : Split(manifest, '\n')) {
    if (line.empty()) continue;
    auto fields = Split(line, '\t');
    if (fields.size() != 2) return Status::Corruption("bad manifest line");
    KGLINK_ASSIGN_OR_RETURN(std::string csv_text,
                            ReadCorpusFile(dir + "/" + fields[0]));
    KGLINK_ASSIGN_OR_RETURN(auto rows, ParseCsv(csv_text));
    if (rows.empty()) {
      return Status::Corruption("empty table file: " + fields[0]);
    }
    LabeledTable lt;
    KGLINK_ASSIGN_OR_RETURN(lt.table,
                            Table::TryFromStrings(fields[0], rows));
    if (!fields[1].empty()) {
      for (const auto& label_str : Split(fields[1], ',')) {
        double v = 0;
        if (!ParseDouble(label_str, &v)) {
          return Status::Corruption("bad label id: " + label_str);
        }
        int label = static_cast<int>(v);
        if (label != kUnlabeled &&
            (label < 0 || label >= corpus.num_labels())) {
          return Status::Corruption("label id out of range");
        }
        lt.column_labels.push_back(label);
      }
    }
    if (static_cast<int>(lt.column_labels.size()) != lt.table.num_cols()) {
      return Status::Corruption("label count != column count in " +
                                fields[0]);
    }
    corpus.tables.push_back(std::move(lt));
  }
  return corpus;
}

}  // namespace kglink::table
