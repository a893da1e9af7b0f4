#include "storage/snapshot.h"

#include <cstdio>
#include <span>
#include <utility>

#include "util/fault.h"

namespace csr {

namespace {

constexpr uint32_t kCorpusMagic = 0x43535243;    // "CSRC"
constexpr uint32_t kViewsMagic = 0x43535256;     // "CSRV"
constexpr uint32_t kPostingsMagic = 0x43535250;  // "CSRP"
constexpr uint32_t kManifestMagic = 0x4353524D;  // "CSRM"
constexpr uint32_t kCorpusVersion = 1;
// v2: per-view framing + directory. v3: the header records the base doc
// count the views aggregate over, so a torn segmented save (views from a
// newer save paired with an older/absent manifest, or vice versa) is
// detected instead of silently mis-ranking; v2 files load with the base
// unknown (no check possible — they predate segmented snapshots).
constexpr uint32_t kViewsVersion = 3;
constexpr uint32_t kViewsMinVersion = 2;
// v2: blocks may carry the bitmap container tag (BlockCodec::kBitmap).
// The framing is unchanged — block bytes are persisted verbatim, tag
// included — so v1 snapshots load as-is; they simply predate bitmap
// blocks. FromParts rejects unknown tags with InvalidArgument, which the
// loader surfaces as a corrupt file (rebuild fallback).
constexpr uint32_t kPostingsVersion = 2;
constexpr uint32_t kPostingsMinVersion = 1;
constexpr uint32_t kSegmentMagic = 0x43535253;  // "CSRS"
constexpr uint32_t kSegmentVersion = 1;
// Manifest v2 / format v3: segmented snapshots. After the version fields
// the manifest carries the collection layout (base_docs, total_docs, the
// sealed-segment inventory) before the file list. v1 manifests — whole
// collection in the base, no segments — load unchanged.
constexpr uint32_t kManifestVersion = 2;
constexpr uint32_t kManifestMinVersion = 1;
constexpr uint32_t kSnapshotFormatVersion = 3;
constexpr uint32_t kSnapshotFormatMinVersion = 2;

/// Open options for the snapshot load paths: transient read faults
/// (kUnavailable) are retried within the process-wide RetryBudget before
/// the loader gives up and falls back to its rebuild/quarantine path.
/// Integrity failures are not retried (OpenOptions contract).
OpenOptions SnapshotOpen(bool strict = true) {
  OpenOptions o;
  o.strict = strict;
  o.retry = RetryPolicy{/*max_attempts=*/3, /*base_ms=*/0.05,
                        /*cap_ms=*/1.0};
  return o;
}

void PutConfig(BinaryWriter& w, const CorpusConfig& c) {
  w.PutU64(c.seed);
  w.PutU32(c.num_docs);
  w.PutU32(c.vocab_size);
  w.PutVarintVector(c.ontology_fanouts);
  w.PutDouble(c.leaf_zipf_exponent);
  w.PutU32(c.max_concepts_per_doc);
  w.PutU32(c.title_len_mean);
  w.PutU32(c.abstract_len_mean);
  w.PutDouble(c.topical_prob);
  w.PutU32(c.topical_window);
  w.PutDouble(c.background_zipf_exponent);
  w.PutDouble(c.topical_zipf_exponent);
  w.PutVarint(c.year_min);
  w.PutVarint(c.year_max);
}

Status GetConfig(BinaryReader& r, CorpusConfig* c) {
  CSR_RETURN_NOT_OK(r.GetU64(&c->seed));
  CSR_RETURN_NOT_OK(r.GetU32(&c->num_docs));
  CSR_RETURN_NOT_OK(r.GetU32(&c->vocab_size));
  CSR_RETURN_NOT_OK(r.GetVarintVector(&c->ontology_fanouts));
  CSR_RETURN_NOT_OK(r.GetDouble(&c->leaf_zipf_exponent));
  CSR_RETURN_NOT_OK(r.GetU32(&c->max_concepts_per_doc));
  CSR_RETURN_NOT_OK(r.GetU32(&c->title_len_mean));
  CSR_RETURN_NOT_OK(r.GetU32(&c->abstract_len_mean));
  CSR_RETURN_NOT_OK(r.GetDouble(&c->topical_prob));
  CSR_RETURN_NOT_OK(r.GetU32(&c->topical_window));
  CSR_RETURN_NOT_OK(r.GetDouble(&c->background_zipf_exponent));
  CSR_RETURN_NOT_OK(r.GetDouble(&c->topical_zipf_exponent));
  uint64_t ymin, ymax;
  CSR_RETURN_NOT_OK(r.GetVarint(&ymin));
  CSR_RETURN_NOT_OK(r.GetVarint(&ymax));
  c->year_min = static_cast<uint16_t>(ymin);
  c->year_max = static_cast<uint16_t>(ymax);
  return Status::OK();
}

}  // namespace

Status SaveCorpus(const Corpus& corpus, const std::string& path) {
  BinaryWriter w;
  w.PutU32(kCorpusVersion);
  PutConfig(w, corpus.config);

  // Ontology: ids are assigned in construction order, so parents always
  // precede children and the (parent, name) arrays rebuild it exactly.
  w.PutVarint(corpus.ontology.size());
  for (TermId t = 0; t < corpus.ontology.size(); ++t) {
    TermId p = corpus.ontology.parent(t);
    w.PutVarint(p == kInvalidTermId ? 0 : static_cast<uint64_t>(p) + 1);
    w.PutString(corpus.ontology.name(t));
  }

  w.PutVarint(corpus.docs.size());
  for (const Document& d : corpus.docs) {
    w.PutVarint(d.year);
    w.PutVarintVector(d.title);
    w.PutVarintVector(d.abstract_text);
    w.PutVarintVector(d.annotations);
  }
  return w.WriteFile(path, kCorpusMagic);
}

Result<Corpus> LoadCorpus(const std::string& path) {
  CSR_ASSIGN_OR_RETURN(
      BinaryReader r, BinaryReader::OpenFile(path, kCorpusMagic,
                                             SnapshotOpen()));
  uint32_t version;
  CSR_RETURN_NOT_OK(r.GetU32(&version));
  if (version != kCorpusVersion) {
    return Status::InvalidArgument("unsupported corpus version");
  }
  Corpus corpus;
  CSR_RETURN_NOT_OK(GetConfig(r, &corpus.config));

  uint64_t num_concepts;
  CSR_RETURN_NOT_OK(r.GetVarint(&num_concepts));
  for (uint64_t t = 0; t < num_concepts; ++t) {
    uint64_t parent_plus1;
    std::string name;
    CSR_RETURN_NOT_OK(r.GetVarint(&parent_plus1));
    CSR_RETURN_NOT_OK(r.GetString(&name));
    if (parent_plus1 == 0) {
      corpus.ontology.AddRoot(std::move(name));
    } else {
      TermId parent = static_cast<TermId>(parent_plus1 - 1);
      if (parent >= t) {
        return Status::InvalidArgument("corrupt ontology: child before parent");
      }
      CSR_RETURN_NOT_OK(
          corpus.ontology.AddChild(parent, std::move(name)).status());
    }
  }

  uint64_t num_docs;
  CSR_RETURN_NOT_OK(r.GetVarint(&num_docs));
  corpus.docs.reserve(num_docs);
  for (uint64_t i = 0; i < num_docs; ++i) {
    Document d;
    d.id = static_cast<DocId>(i);
    uint64_t year;
    CSR_RETURN_NOT_OK(r.GetVarint(&year));
    d.year = static_cast<uint16_t>(year);
    CSR_RETURN_NOT_OK(r.GetVarintVector(&d.title));
    CSR_RETURN_NOT_OK(r.GetVarintVector(&d.abstract_text));
    CSR_RETURN_NOT_OK(r.GetVarintVector(&d.annotations));
    corpus.docs.push_back(std::move(d));
  }
  return corpus;
}

/// Accesses MaterializedView internals for persistence (friend).
class ViewSerializer {
 public:
  static void Save(const MaterializedView& v, BinaryWriter& w) {
    w.PutVarintVector(v.def_.keyword_columns);
    w.PutU8(v.options_.track_df);
    w.PutU8(v.options_.track_tc);
    w.PutVarint(v.options_.year_bucket_size);
    w.PutU32(v.num_tracked_);
    w.PutVarint(v.NumTuples());
    // Views v3 stores rows, not columns: each row is rebuilt from the
    // column store, so the bytes match a row-by-row encoding of the same
    // sorted rows.
    v.ForEachRow([&](const MaterializedView::TupleKey& key,
                     const MaterializedView::Row& row) {
      w.PutVarint(key.bucket);
      w.PutVarintVector(key.sig.raw_words());
      w.PutVarint(row.count);
      w.PutVarint(row.sum_len);
      w.PutVarintVector(row.df);
      w.PutVarintVector(row.tc);
    });
  }

  static Result<MaterializedView> Load(BinaryReader& r) {
    ViewDefinition def;
    CSR_RETURN_NOT_OK(r.GetVarintVector(&def.keyword_columns));
    uint8_t track_df, track_tc;
    CSR_RETURN_NOT_OK(r.GetU8(&track_df));
    CSR_RETURN_NOT_OK(r.GetU8(&track_tc));
    uint64_t bucket_size;
    CSR_RETURN_NOT_OK(r.GetVarint(&bucket_size));
    uint32_t num_tracked;
    CSR_RETURN_NOT_OK(r.GetU32(&num_tracked));
    ViewParamOptions options{track_df != 0, track_tc != 0,
                             static_cast<uint16_t>(bucket_size)};
    MaterializedView v(std::move(def), options, num_tracked);

    uint64_t num_rows;
    CSR_RETURN_NOT_OK(r.GetVarint(&num_rows));
    v.compacted_ = false;  // rows arrive in any order: fold, then compact
    size_t expected_words =
        (v.def_.keyword_columns.size() + 63) / 64;
    for (uint64_t i = 0; i < num_rows; ++i) {
      uint64_t bucket;
      CSR_RETURN_NOT_OK(r.GetVarint(&bucket));
      std::vector<uint64_t> words;
      CSR_RETURN_NOT_OK(r.GetVarintVector(&words));
      const uint32_t tail_bits = v.def_.num_columns() % 64;
      if (words.size() != expected_words ||
          (tail_bits != 0 && (words.back() >> tail_bits) != 0)) {
        return Status::InvalidArgument("corrupt view row signature");
      }
      MaterializedView::Row row;
      CSR_RETURN_NOT_OK(r.GetVarint(&row.count));
      CSR_RETURN_NOT_OK(r.GetVarint(&row.sum_len));
      CSR_RETURN_NOT_OK(r.GetVarintVector(&row.df));
      CSR_RETURN_NOT_OK(r.GetVarintVector(&row.tc));
      if (row.df.size() != (track_df != 0 ? num_tracked : 0) ||
          row.tc.size() != (track_tc != 0 ? num_tracked : 0)) {
        return Status::InvalidArgument("corrupt view parameter columns");
      }
      v.rows_.emplace(
          MaterializedView::TupleKey{
              BitSignature::FromWords(std::move(words)),
              static_cast<uint16_t>(bucket)},
          std::move(row));
    }
    v.Compact();
    return v;
  }
};

// views.csr v2 payload layout (the outer container is opened *tolerantly*;
// integrity lives in the header and frame checksums below, so corruption in
// one view frame cannot take down the whole catalog):
//
//   varint  header_len
//   u64     fnv1a(header)
//   header:
//     u32     views format version
//     varint* tracked keyword terms
//     varint  num_views
//     per view (the frame directory):
//       varint  frame_len
//       u64     fnv1a(frame)
//       varint* keyword_columns     (def, for quarantine attribution)
//   view frames, concatenated (frame i decoded by ViewSerializer::Load)
namespace {

struct ViewFrameEntry {
  uint64_t frame_len = 0;
  uint64_t frame_sum = 0;
  TermIdSet keyword_columns;
};

}  // namespace

Status SaveViews(const ViewCatalog& catalog, const TrackedKeywords& tracked,
                 const std::string& path, uint64_t base_docs) {
  std::vector<std::string> frames;
  frames.reserve(catalog.size());
  for (size_t i = 0; i < catalog.size(); ++i) {
    BinaryWriter fw;
    ViewSerializer::Save(catalog.view(i), fw);
    frames.push_back(fw.buffer());
  }

  BinaryWriter header;
  header.PutU32(kViewsVersion);
  header.PutVarint(base_docs);
  header.PutVarintVector(tracked.terms());
  header.PutVarint(catalog.size());
  for (size_t i = 0; i < catalog.size(); ++i) {
    header.PutVarint(frames[i].size());
    header.PutU64(Fnv1a(frames[i]));
    header.PutVarintVector(catalog.view(i).def().keyword_columns);
  }

  BinaryWriter w;
  w.PutVarint(header.size());
  w.PutU64(Fnv1a(header.buffer()));
  w.PutRaw(header.buffer());
  for (const std::string& f : frames) w.PutRaw(f);
  return w.WriteFile(path, kViewsMagic);
}

Result<LoadedViews> LoadViews(const std::string& path) {
  // Tolerant open: the whole-file checksum is advisory here; the header
  // and per-frame checksums below are authoritative, which is what lets a
  // single corrupt view be dropped instead of failing the load wholesale.
  CSR_ASSIGN_OR_RETURN(
      BinaryReader r,
      BinaryReader::OpenFile(path, kViewsMagic,
                             SnapshotOpen(/*strict=*/false)));

  uint64_t header_len = 0;
  uint64_t header_sum = 0;
  std::string header_bytes;
  if (!r.GetVarint(&header_len).ok() || !r.GetU64(&header_sum).ok() ||
      !r.GetBytes(&header_bytes, header_len).ok()) {
    return Status::DataLoss("views header truncated in " + path);
  }
  if (Fnv1a(header_bytes) != header_sum) {
    return Status::DataLoss("views header checksum mismatch in " + path);
  }

  BinaryReader h(std::move(header_bytes));
  uint32_t version = 0;
  CSR_RETURN_NOT_OK(h.GetU32(&version));
  if (version < kViewsMinVersion || version > kViewsVersion) {
    return Status::InvalidArgument("unsupported views version " +
                                   std::to_string(version) + " in " + path);
  }
  LoadedViews out;
  if (version >= 3) CSR_RETURN_NOT_OK(h.GetVarint(&out.base_docs));
  CSR_RETURN_NOT_OK(h.GetVarintVector(&out.tracked_terms));
  uint64_t num_views = 0;
  CSR_RETURN_NOT_OK(h.GetVarint(&num_views));
  std::vector<ViewFrameEntry> directory(num_views);
  for (uint64_t i = 0; i < num_views; ++i) {
    CSR_RETURN_NOT_OK(h.GetVarint(&directory[i].frame_len));
    CSR_RETURN_NOT_OK(h.GetU64(&directory[i].frame_sum));
    CSR_RETURN_NOT_OK(h.GetVarintVector(&directory[i].keyword_columns));
  }

  for (uint64_t i = 0; i < num_views; ++i) {
    ViewFrameEntry& e = directory[i];
    auto quarantine = [&](std::string reason) {
      out.catalog.RecordQuarantine(
          QuarantinedView{e.keyword_columns, std::move(reason)});
    };

    std::string frame;
    if (!r.GetBytes(&frame, e.frame_len).ok()) {
      // The file ends mid-frame: this frame and everything after it are
      // gone, but views already decoded stay usable.
      for (uint64_t j = i; j < num_views; ++j) {
        out.catalog.RecordQuarantine(QuarantinedView{
            directory[j].keyword_columns, "view frame truncated"});
      }
      break;
    }
    if (FaultHit(FaultPoint::kViewDecode)) {
      quarantine("injected view decode fault");
      continue;
    }
    if (Fnv1a(frame) != e.frame_sum) {
      quarantine("view frame checksum mismatch");
      continue;
    }
    BinaryReader fr(std::move(frame));
    Result<MaterializedView> v = ViewSerializer::Load(fr);
    if (!v.ok()) {
      quarantine("view frame decode failed: " + v.status().ToString());
      continue;
    }
    if (!fr.AtEnd()) {
      quarantine("trailing bytes in view frame");
      continue;
    }
    if (v->def().keyword_columns != e.keyword_columns) {
      quarantine("view definition does not match frame directory");
      continue;
    }
    out.catalog.Add(std::move(*v));
  }
  return out;
}

namespace {

/// One compressed index: collection stats, then per term the block
/// metadata and the raw encoded block bytes, verbatim.
void PutIndex(BinaryWriter& w, const InvertedIndex& index) {
  w.PutVarint(index.total_length());
  w.PutVarint(index.doc_lengths().size());
  for (uint32_t len : index.doc_lengths()) w.PutVarint(len);
  w.PutVarint(index.num_terms());
  for (TermId t = 0; t < index.num_terms(); ++t) {
    const CompressedPostingList* l = index.clist(t);
    if (l == nullptr) {
      w.PutVarint(0);
      continue;
    }
    w.PutVarint(l->size());
    w.PutVarint(l->block_size());
    w.PutVarint(l->total_tf());
    w.PutVarint(l->max_tf());
    w.PutVarint(l->num_blocks());
    for (const CompressedPostingList::BlockMeta& b : l->blocks()) {
      w.PutVarint(b.max_doc);
      w.PutVarint(b.base);
      w.PutVarint(b.offset);
      w.PutVarint(b.count);
      w.PutVarint(b.max_tf);
    }
    w.PutString(l->raw_bytes());
  }
}

Result<InvertedIndex> GetIndex(BinaryReader& r, uint64_t expected_docs) {
  uint64_t total_length = 0;
  CSR_RETURN_NOT_OK(r.GetVarint(&total_length));
  uint64_t num_lengths = 0;
  CSR_RETURN_NOT_OK(r.GetVarint(&num_lengths));
  if (num_lengths != expected_docs) {
    return Status::InvalidArgument(
        "postings snapshot covers " + std::to_string(num_lengths) +
        " documents; corpus has " + std::to_string(expected_docs));
  }
  std::vector<uint32_t> doc_lengths;
  doc_lengths.reserve(num_lengths);
  for (uint64_t i = 0; i < num_lengths; ++i) {
    uint64_t len = 0;
    CSR_RETURN_NOT_OK(r.GetVarint(&len));
    doc_lengths.push_back(static_cast<uint32_t>(len));
  }

  uint64_t num_terms = 0;
  CSR_RETURN_NOT_OK(r.GetVarint(&num_terms));
  std::vector<CompressedPostingList> lists;
  lists.reserve(num_terms);
  for (uint64_t t = 0; t < num_terms; ++t) {
    uint64_t num_postings = 0;
    CSR_RETURN_NOT_OK(r.GetVarint(&num_postings));
    if (num_postings == 0) {
      lists.emplace_back();
      continue;
    }
    CompressedPostingList::Parts parts;
    parts.num_postings = num_postings;
    uint64_t block_size = 0, total_tf = 0, max_tf = 0, num_blocks = 0;
    CSR_RETURN_NOT_OK(r.GetVarint(&block_size));
    CSR_RETURN_NOT_OK(r.GetVarint(&total_tf));
    CSR_RETURN_NOT_OK(r.GetVarint(&max_tf));
    CSR_RETURN_NOT_OK(r.GetVarint(&num_blocks));
    parts.block_size = static_cast<uint32_t>(block_size);
    parts.total_tf = total_tf;
    parts.max_tf = static_cast<uint32_t>(max_tf);
    parts.blocks.reserve(num_blocks);
    for (uint64_t b = 0; b < num_blocks; ++b) {
      uint64_t max_doc = 0, base = 0, offset = 0, count = 0, bmax_tf = 0;
      CSR_RETURN_NOT_OK(r.GetVarint(&max_doc));
      CSR_RETURN_NOT_OK(r.GetVarint(&base));
      CSR_RETURN_NOT_OK(r.GetVarint(&offset));
      CSR_RETURN_NOT_OK(r.GetVarint(&count));
      CSR_RETURN_NOT_OK(r.GetVarint(&bmax_tf));
      parts.blocks.push_back(CompressedPostingList::BlockMeta{
          static_cast<DocId>(max_doc), static_cast<DocId>(base),
          static_cast<uint32_t>(offset), static_cast<uint32_t>(count),
          static_cast<uint32_t>(bmax_tf)});
    }
    CSR_RETURN_NOT_OK(r.GetString(&parts.bytes));
    // FromParts re-validates the metadata invariants; corrupt metadata is
    // a typed error, never a malformed list.
    CSR_ASSIGN_OR_RETURN(CompressedPostingList list,
                         CompressedPostingList::FromParts(std::move(parts)));
    if (!list.blocks().empty() &&
        list.blocks().back().max_doc >= expected_docs) {
      return Status::InvalidArgument(
          "postings snapshot references docids beyond the corpus");
    }
    lists.push_back(std::move(list));
  }
  return InvertedIndex::FromCompressedParts(std::move(lists),
                                            std::move(doc_lengths),
                                            total_length);
}

}  // namespace

Status SavePostings(const ContextSearchEngine& engine,
                    const std::string& path) {
  if (!engine.content_index().compressed() ||
      !engine.predicate_index().compressed()) {
    return Status::FailedPrecondition(
        "engine serves uncompressed postings; nothing compressed to persist");
  }
  BinaryWriter w;
  w.PutU32(kPostingsVersion);
  // The base indexes may cover only a prefix of the corpus (segmented
  // engine); sealed extras are persisted in their own seg-<id>.csr files.
  w.PutVarint(engine.content_index().num_docs());
  PutIndex(w, engine.content_index());
  PutIndex(w, engine.predicate_index());
  return w.WriteFile(path, kPostingsMagic);
}

Result<LoadedPostings> LoadPostings(const std::string& path,
                                    uint64_t expected_docs) {
  // Strict open: the whole-file checksum is authoritative here. Unlike
  // views there is no per-list salvage — a damaged postings file is simply
  // ignored in favour of rebuilding from the corpus, so partial recovery
  // would buy nothing.
  CSR_ASSIGN_OR_RETURN(
      BinaryReader r, BinaryReader::OpenFile(path, kPostingsMagic,
                                             SnapshotOpen()));
  uint32_t version = 0;
  CSR_RETURN_NOT_OK(r.GetU32(&version));
  if (version < kPostingsMinVersion || version > kPostingsVersion) {
    return Status::InvalidArgument("unsupported postings version " +
                                   std::to_string(version) + " in " + path);
  }
  uint64_t num_docs = 0;
  CSR_RETURN_NOT_OK(r.GetVarint(&num_docs));
  if (num_docs != expected_docs) {
    return Status::InvalidArgument(
        "postings snapshot covers " + std::to_string(num_docs) +
        " documents; corpus has " + std::to_string(expected_docs));
  }
  LoadedPostings out;
  CSR_ASSIGN_OR_RETURN(out.content_index, GetIndex(r, expected_docs));
  CSR_ASSIGN_OR_RETURN(out.predicate_index, GetIndex(r, expected_docs));
  if (!r.AtEnd()) {
    return Status::InvalidArgument("trailing bytes in postings snapshot");
  }
  return out;
}

Status SaveSegment(const IndexSegment& segment, const std::string& path) {
  if (!segment.sealed) {
    return Status::FailedPrecondition(
        "refusing to persist the unsealed write buffer; it is rebuilt from "
        "the corpus tail at load");
  }
  if (!segment.content.compressed() || !segment.predicate.compressed()) {
    return Status::FailedPrecondition(
        "segment serves uncompressed postings; nothing compressed to "
        "persist");
  }
  BinaryWriter w;
  w.PutU32(kSegmentVersion);
  w.PutU64(segment.id);
  w.PutVarint(segment.base);
  w.PutVarint(segment.num_docs);
  w.PutVarint(segment.years.size());
  for (uint16_t y : segment.years) w.PutVarint(y);
  PutIndex(w, segment.content);
  PutIndex(w, segment.predicate);
  return w.WriteFile(path, kSegmentMagic);
}

Result<IndexSegment> LoadSegment(const std::string& path) {
  CSR_ASSIGN_OR_RETURN(
      BinaryReader r, BinaryReader::OpenFile(path, kSegmentMagic,
                                             SnapshotOpen()));
  uint32_t version = 0;
  CSR_RETURN_NOT_OK(r.GetU32(&version));
  if (version != kSegmentVersion) {
    return Status::InvalidArgument("unsupported segment version " +
                                   std::to_string(version) + " in " + path);
  }
  IndexSegment seg;
  CSR_RETURN_NOT_OK(r.GetU64(&seg.id));
  uint64_t base = 0, num_docs = 0, num_years = 0;
  CSR_RETURN_NOT_OK(r.GetVarint(&base));
  CSR_RETURN_NOT_OK(r.GetVarint(&num_docs));
  CSR_RETURN_NOT_OK(r.GetVarint(&num_years));
  if (num_docs == 0 || num_years != num_docs) {
    return Status::InvalidArgument(
        "segment header disagrees with its year table in " + path);
  }
  seg.base = static_cast<DocId>(base);
  seg.num_docs = static_cast<uint32_t>(num_docs);
  seg.sealed = true;
  seg.years.reserve(num_years);
  for (uint64_t i = 0; i < num_years; ++i) {
    uint64_t y = 0;
    CSR_RETURN_NOT_OK(r.GetVarint(&y));
    seg.years.push_back(static_cast<uint16_t>(y));
  }
  CSR_ASSIGN_OR_RETURN(seg.content, GetIndex(r, num_docs));
  CSR_ASSIGN_OR_RETURN(seg.predicate, GetIndex(r, num_docs));
  if (!r.AtEnd()) {
    return Status::InvalidArgument("trailing bytes in segment file " + path);
  }
  return seg;
}

namespace {

/// Size + FNV-1a over a whole file's bytes, for the manifest.
Status HashFile(const std::string& path, uint64_t* size, uint64_t* sum) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return Status::NotFound("cannot open: " + path);
  uint64_t h = 0xCBF29CE484222325ULL;
  uint64_t n = 0;
  char buf[1 << 14];
  size_t got;
  while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    for (size_t i = 0; i < got; ++i) {
      h ^= static_cast<unsigned char>(buf[i]);
      h *= 0x100000001B3ULL;
    }
    n += got;
  }
  bool err = std::ferror(f) != 0;
  std::fclose(f);
  if (err) return Status::Internal("read error: " + path);
  *size = n;
  *sum = h;
  return Status::OK();
}

/// One sealed segment recorded in a v2 manifest. The inventory — not the
/// seg files on disk — is authoritative for which segments the snapshot
/// contains: a crash between writing a merged segment's file and the
/// manifest swap leaves an orphan file that is simply never consulted, so
/// a half-merged segment is never served.
struct ManifestSegment {
  uint64_t id = 0;
  DocId base = 0;
  uint32_t num_docs = 0;
};

struct ManifestInfo {
  bool present = false;
  /// True for v2+ manifests: base_docs and segments are meaningful. v1
  /// manifests describe whole-collection bases with no extras.
  bool has_layout = false;
  uint64_t base_docs = 0;
  uint64_t total_docs = 0;
  std::vector<ManifestSegment> segments;
};

Status SaveManifest(const std::string& dir, uint64_t base_docs,
                    uint64_t total_docs,
                    const std::vector<ManifestSegment>& segments,
                    const std::vector<std::string>& names) {
  BinaryWriter w;
  w.PutU32(kManifestVersion);
  w.PutU32(kSnapshotFormatVersion);
  w.PutVarint(base_docs);
  w.PutVarint(total_docs);
  w.PutVarint(segments.size());
  for (const ManifestSegment& s : segments) {
    w.PutU64(s.id);
    w.PutVarint(s.base);
    w.PutVarint(s.num_docs);
  }
  w.PutVarint(names.size());
  for (const std::string& name : names) {
    uint64_t size = 0, sum = 0;
    CSR_RETURN_NOT_OK(HashFile(dir + "/" + name, &size, &sum));
    w.PutString(name);
    w.PutU64(size);
    w.PutU64(sum);
  }
  // WriteFile is temp + fsync + rename: the manifest swap is the snapshot's
  // commit point.
  return w.WriteFile(dir + "/MANIFEST.csr", kManifestMagic);
}

/// Reads and verifies the manifest when present. Listed files must exist —
/// a missing one means a torn multi-file save or a partially copied
/// snapshot, which is kDataLoss (seg files are the exception: the loader
/// quarantines those per segment and rebuilds from the corpus). Content
/// integrity is delegated to each file's own checksums: corpus.csr is
/// strict, views.csr self-heals per frame, so a manifest-level byte
/// comparison would only turn salvageable corruption into a wholesale
/// failure.
Result<ManifestInfo> ReadManifest(const std::string& dir) {
  ManifestInfo info;
  auto r = BinaryReader::OpenFile(dir + "/MANIFEST.csr", kManifestMagic,
                                  SnapshotOpen());
  if (!r.ok()) {
    // Pre-manifest snapshots stay loadable; anything but "absent" is real.
    if (r.status().code() == StatusCode::kNotFound) return info;
    return r.status();
  }
  info.present = true;
  uint32_t manifest_version = 0, format_version = 0;
  CSR_RETURN_NOT_OK(r->GetU32(&manifest_version));
  CSR_RETURN_NOT_OK(r->GetU32(&format_version));
  if (manifest_version < kManifestMinVersion ||
      manifest_version > kManifestVersion) {
    return Status::InvalidArgument("unsupported manifest version " +
                                   std::to_string(manifest_version));
  }
  if (format_version < kSnapshotFormatMinVersion ||
      format_version > kSnapshotFormatVersion) {
    return Status::InvalidArgument("unsupported snapshot format version " +
                                   std::to_string(format_version));
  }
  if (manifest_version >= 2) {
    info.has_layout = true;
    CSR_RETURN_NOT_OK(r->GetVarint(&info.base_docs));
    CSR_RETURN_NOT_OK(r->GetVarint(&info.total_docs));
    uint64_t num_segments = 0;
    CSR_RETURN_NOT_OK(r->GetVarint(&num_segments));
    info.segments.reserve(num_segments);
    for (uint64_t i = 0; i < num_segments; ++i) {
      ManifestSegment s;
      uint64_t base = 0, num_docs = 0;
      CSR_RETURN_NOT_OK(r->GetU64(&s.id));
      CSR_RETURN_NOT_OK(r->GetVarint(&base));
      CSR_RETURN_NOT_OK(r->GetVarint(&num_docs));
      s.base = static_cast<DocId>(base);
      s.num_docs = static_cast<uint32_t>(num_docs);
      info.segments.push_back(s);
    }
  }
  uint64_t num_files = 0;
  CSR_RETURN_NOT_OK(r->GetVarint(&num_files));
  for (uint64_t i = 0; i < num_files; ++i) {
    std::string name;
    uint64_t size = 0, sum = 0;
    CSR_RETURN_NOT_OK(r->GetString(&name));
    CSR_RETURN_NOT_OK(r->GetU64(&size));
    CSR_RETURN_NOT_OK(r->GetU64(&sum));
    if (name.rfind("seg-", 0) == 0) continue;  // per-segment salvage below
    std::FILE* f = std::fopen((dir + "/" + name).c_str(), "rb");
    if (f == nullptr) {
      return Status::DataLoss("snapshot incomplete: manifest lists missing " +
                              name);
    }
    std::fclose(f);
  }
  return info;
}

/// Rebuilds one sealed segment directly from the corpus slice — the
/// recovery path when a seg file is corrupt, truncated, or missing. The
/// corpus is ground truth, so the rebuilt segment is bit-identical to the
/// lost one after compaction.
Result<IndexSegment> BuildSegmentFromCorpus(const Corpus& corpus, uint64_t id,
                                            DocId first, uint32_t num_docs,
                                            const EngineConfig& config) {
  IndexBuilder content_builder(config.segment_size);
  IndexBuilder predicate_builder(config.segment_size);
  IndexSegment seg;
  seg.id = id;
  seg.base = first;
  seg.num_docs = num_docs;
  seg.sealed = true;
  seg.years.reserve(num_docs);
  for (DocId i = first; i < first + num_docs; ++i) {
    const Document& d = corpus.docs[i];
    CSR_RETURN_NOT_OK(content_builder.AddDocument(i - first,
                                                  d.ContentTokens()));
    CSR_RETURN_NOT_OK(predicate_builder.AddDocument(i - first,
                                                    d.annotations));
    seg.years.push_back(d.year);
  }
  seg.content = content_builder.Build();
  seg.predicate = predicate_builder.Build();
  if (config.compressed_postings) {
    seg.content.Compact(/*block_size=*/0, config.codec_policy);
    seg.predicate.Compact(/*block_size=*/0, config.codec_policy);
  }
  return seg;
}

}  // namespace

Status SaveEngineSnapshot(const ContextSearchEngine& engine,
                          const std::string& dir) {
  // One LiveSet snapshot fixes which segments this save describes; the
  // caller must not append concurrently (the corpus serializer walks
  // corpus.docs, which appends mutate).
  std::shared_ptr<const LiveSet> live = engine.LiveSnapshot();
  CSR_RETURN_NOT_OK(SaveCorpus(engine.corpus(), dir + "/corpus.csr"));
  CSR_RETURN_NOT_OK(SaveViews(engine.catalog(), engine.tracked(),
                              dir + "/views.csr", live->base_docs));
  std::vector<std::string> names = {"corpus.csr", "views.csr"};
  bool compressed = engine.content_index().compressed() &&
                    engine.predicate_index().compressed();
  if (compressed) {
    CSR_RETURN_NOT_OK(SavePostings(engine, dir + "/postings.csr"));
    names.push_back("postings.csr");
  }
  // Sealed, compressed extras persist block bytes verbatim; the unsealed
  // write buffer (and, in uncompressed configurations, every extra) is
  // omitted — the loader rebuilds those ranges from the corpus.
  std::vector<ManifestSegment> segments;
  for (const auto& es : live->extras) {
    if (!es->index.sealed || !es->index.content.compressed()) continue;
    std::string name = "seg-" + std::to_string(es->index.id) + ".csr";
    CSR_RETURN_NOT_OK(SaveSegment(es->index, dir + "/" + name));
    names.push_back(name);
    segments.push_back(ManifestSegment{es->index.id, es->index.base,
                                       es->index.num_docs});
  }
  // Manifest last: a crash before this point leaves no (or a stale)
  // manifest rather than a manifest describing files that never landed.
  return SaveManifest(dir, live->base_docs, live->total_docs, segments,
                      names);
}

Result<std::unique_ptr<ContextSearchEngine>> LoadEngineSnapshot(
    const std::string& dir, const EngineConfig& config) {
  CSR_ASSIGN_OR_RETURN(ManifestInfo manifest, ReadManifest(dir));
  CSR_ASSIGN_OR_RETURN(Corpus corpus, LoadCorpus(dir + "/corpus.csr"));
  uint64_t base_docs =
      manifest.has_layout ? manifest.base_docs : corpus.docs.size();
  if (base_docs == 0 || base_docs > corpus.docs.size()) {
    return Status::DataLoss(
        "manifest base (" + std::to_string(base_docs) +
        " docs) does not fit the corpus (" +
        std::to_string(corpus.docs.size()) + " docs)");
  }

  std::unique_ptr<ContextSearchEngine> engine;
  if (config.compressed_postings) {
    // Fast path: install the persisted compressed base postings directly.
    // Any failure (absent file, checksum mismatch, bad metadata, doc-count
    // mismatch with the manifest) falls back to rebuilding from the corpus
    // — a stale or damaged postings file costs load time, not correctness.
    Result<LoadedPostings> lp =
        LoadPostings(dir + "/postings.csr", base_docs);
    if (lp.ok()) {
      CSR_ASSIGN_OR_RETURN(
          engine, ContextSearchEngine::BuildWithIndexes(
                      std::move(corpus), config, std::move(lp->content_index),
                      std::move(lp->predicate_index)));
    }
  }
  if (engine == nullptr) {
    if (base_docs == corpus.docs.size()) {
      CSR_ASSIGN_OR_RETURN(
          engine, ContextSearchEngine::Build(std::move(corpus), config));
    } else {
      // Segmented snapshot with unusable base postings: rebuild the BASE
      // PREFIX only, so the persisted views (which cover exactly the base)
      // still align.
      IndexBuilder content_builder(config.segment_size);
      IndexBuilder predicate_builder(config.segment_size);
      for (DocId i = 0; i < base_docs; ++i) {
        const Document& d = corpus.docs[i];
        CSR_RETURN_NOT_OK(
            content_builder.AddDocument(i, d.ContentTokens()));
        CSR_RETURN_NOT_OK(predicate_builder.AddDocument(i, d.annotations));
      }
      CSR_ASSIGN_OR_RETURN(
          engine, ContextSearchEngine::BuildWithIndexes(
                      std::move(corpus), config, content_builder.Build(),
                      predicate_builder.Build()));
    }
  }
  CSR_ASSIGN_OR_RETURN(LoadedViews views, LoadViews(dir + "/views.csr"));
  if (views.base_docs != 0 && views.base_docs != engine->base_docs()) {
    // Torn multi-file save: views.csr aggregated over a different base
    // than this load reconstructed (e.g. a crash left a newer views file
    // next to an older — or absent — manifest). Installing them would
    // silently mis-rank, so quarantine the whole catalog instead; queries
    // degrade to the straightforward plan, which is always correct.
    ViewCatalog none;
    for (const QuarantinedView& q : views.catalog.quarantined()) {
      none.RecordQuarantine(q);
    }
    std::string reason =
        "views aggregate a " + std::to_string(views.base_docs) +
        "-doc base but the snapshot base covers " +
        std::to_string(engine->base_docs()) + " docs (torn save)";
    for (size_t i = 0; i < views.catalog.size(); ++i) {
      none.RecordQuarantine(QuarantinedView{
          views.catalog.view(i).def().keyword_columns, reason});
    }
    CSR_RETURN_NOT_OK(
        engine->InstallCatalog(std::move(none), engine->tracked().terms()));
  } else {
    CSR_RETURN_NOT_OK(engine->InstallCatalog(std::move(views.catalog),
                                             views.tracked_terms));
  }

  // Reinstall the sealed extras in ascending base order. Any per-segment
  // failure — unreadable file, checksum mismatch, header/manifest
  // disagreement, installation rejection — quarantines that segment and
  // rebuilds its exact docid range from the corpus, so recovery always
  // converges on the manifest's layout.
  std::vector<ManifestSegment> inventory = manifest.segments;
  std::sort(inventory.begin(), inventory.end(),
            [](const ManifestSegment& a, const ManifestSegment& b) {
              return a.base < b.base;
            });
  for (const ManifestSegment& ms : inventory) {
    uint64_t live_end = engine->total_docs();
    uint64_t ms_end = static_cast<uint64_t>(ms.base) + ms.num_docs;
    if (ms.num_docs == 0 || ms.base != live_end ||
        ms_end > engine->corpus().docs.size()) {
      // A layout hole or overlap: the inventory itself is inconsistent.
      // Skip the entry; the tail rebuild below covers whatever is missing.
      engine->RecordSegmentQuarantine();
      continue;
    }
    bool installed = false;
    Result<IndexSegment> seg =
        LoadSegment(dir + "/seg-" + std::to_string(ms.id) + ".csr");
    if (seg.ok() && seg->id == ms.id && seg->base == ms.base &&
        seg->num_docs == ms.num_docs) {
      installed = engine->InstallSealedSegment(std::move(*seg)).ok();
    }
    if (!installed) {
      engine->RecordSegmentQuarantine();
      CSR_ASSIGN_OR_RETURN(
          IndexSegment rebuilt,
          BuildSegmentFromCorpus(engine->corpus(), ms.id, ms.base,
                                 ms.num_docs, config));
      CSR_RETURN_NOT_OK(engine->InstallSealedSegment(std::move(rebuilt)));
    }
  }

  // The unsealed write buffer is never persisted; rebuild the remaining
  // corpus tail (sealing full chunks, buffering the rest).
  if (engine->total_docs() < engine->corpus().docs.size()) {
    CSR_RETURN_NOT_OK(engine->RebuildSegmentsFromCorpus(
        static_cast<DocId>(engine->total_docs())));
  }
  return engine;
}

}  // namespace csr
