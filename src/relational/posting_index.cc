#include "relational/posting_index.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>

#include "common/thread_pool.h"

namespace falcon {
namespace {

double NowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

constexpr size_t kChunkRows = CompressedRowSet::kChunkRows;
constexpr uint32_t kNoSlot = UINT32_MAX;

// Zero-filled uint32 table indexed by ValueId. calloc hands back untouched
// zero pages, so a build pays for the pages its values land on, not for
// the whole pool. Ids past the pool (raw ids written without interning)
// grow the table.
class ValueTable {
 public:
  explicit ValueTable(size_t size) : size_(std::max<size_t>(size, 1)) {
    data_ = static_cast<uint32_t*>(std::calloc(size_, sizeof(uint32_t)));
    FALCON_CHECK(data_ != nullptr);
  }
  ~ValueTable() { std::free(data_); }
  ValueTable(const ValueTable&) = delete;
  ValueTable& operator=(const ValueTable&) = delete;

  uint32_t& operator[](ValueId v) {
    if (v >= size_) Grow(static_cast<size_t>(v) + 1);
    return data_[v];
  }
  /// Unchecked read-only view for ids already passed through operator[].
  const uint32_t* data() const { return data_; }

 private:
  void Grow(size_t min_size) {
    size_t size = std::max(min_size, 2 * size_);
    auto* grown = static_cast<uint32_t*>(std::calloc(size, sizeof(uint32_t)));
    FALCON_CHECK(grown != nullptr);
    std::memcpy(grown, data_, size_ * sizeof(uint32_t));
    std::free(data_);
    data_ = grown;
    size_ = size;
  }

  uint32_t* data_;
  size_t size_;
};

// ValueId -> slot map over the cached values of one column: linear
// probing in a power-of-two table at most half full, Fibonacci-hashed, so
// a probe is one multiply and usually one load.
class SlotMap {
 public:
  explicit SlotMap(size_t n) {
    size_t bits = 1;
    while ((size_t{1} << bits) < 2 * n) ++bits;
    cells_.assign(size_t{1} << bits, Cell{0, kNoSlot});
    shift_ = 64 - static_cast<int>(bits);
  }
  void Insert(ValueId v, uint32_t slot) {
    size_t i = Home(v);
    while (cells_[i].slot != kNoSlot) i = (i + 1) & (cells_.size() - 1);
    cells_[i] = Cell{v, slot};
  }
  uint32_t Find(ValueId v) const {
    for (size_t i = Home(v);; i = (i + 1) & (cells_.size() - 1)) {
      const Cell& c = cells_[i];
      if (c.slot == kNoSlot || c.key == v) return c.slot;
    }
  }

 private:
  struct Cell {
    ValueId key;
    uint32_t slot;
  };
  size_t Home(ValueId v) const {
    return static_cast<size_t>((uint64_t{v} * 0x9E3779B97F4A7C15ull) >> shift_);
  }
  std::vector<Cell> cells_;
  int shift_ = 63;
};

// Rows of one 64Ki-row chunk grouped by slot: group g's rows are the
// ascending in-chunk offsets lows[g.begin, g.begin + g.count). Groups are
// in first-row order.
struct ChunkGroups {
  struct Group {
    uint32_t slot;
    uint32_t begin;
    uint32_t count;
  };
  std::vector<uint16_t> lows;
  std::vector<Group> groups;
};

// The grouping kernel shared by column builds and appends: buckets rows
// [begin, end) of `column` by slot_of(value) — a slot in [0, num_slots),
// or kNoSlot to drop the row — with one local counting sort per 64Ki-row
// chunk. Result k covers chunk begin/64Ki + k. Chunks run in parallel and
// each result depends only on its chunk's rows, so the output is the same
// at any thread count. Scratch is per shard: a count per slot and a slot
// per chunk row.
template <typename SlotOf>
std::vector<ChunkGroups> GroupRows(const ValueId* column, size_t begin,
                                   size_t end, size_t num_slots,
                                   const SlotOf& slot_of, ThreadPool& tp) {
  if (begin >= end) return {};
  const size_t first_chunk = begin / kChunkRows;
  std::vector<ChunkGroups> out((end - 1) / kChunkRows + 1 - first_chunk);
  tp.ParallelFor(out.size(), 2, [&](size_t kb, size_t ke) {
    std::vector<uint32_t> counts(num_slots, 0);
    std::vector<uint32_t> slots(std::min(kChunkRows, end - begin));
    std::vector<uint32_t> touched;
    for (size_t k = kb; k < ke; ++k) {
      const size_t base = (first_chunk + k) * kChunkRows;
      const size_t r0 = std::max(begin, base);
      const size_t r1 = std::min(end, base + kChunkRows);
      touched.clear();
      for (size_t r = r0; r < r1; ++r) {
        uint32_t s = slot_of(column[r]);
        slots[r - r0] = s;
        if (s != kNoSlot && counts[s]++ == 0) touched.push_back(s);
      }
      ChunkGroups& cg = out[k];
      cg.groups.reserve(touched.size());
      uint32_t offset = 0;
      for (uint32_t s : touched) {
        cg.groups.push_back({s, offset, counts[s]});
        offset += counts[s];
        counts[s] = cg.groups.back().begin;  // Now the write cursor.
      }
      cg.lows.resize(offset);
      for (size_t r = r0; r < r1; ++r) {
        uint32_t s = slots[r - r0];
        if (s != kNoSlot) {
          cg.lows[counts[s]++] = static_cast<uint16_t>(r - base);
        }
      }
      for (uint32_t s : touched) counts[s] = 0;
    }
  });
  return out;
}

}  // namespace

PostingIndex::Timer::Timer(double* sink) : sink_(sink), start_ms_(NowMs()) {}

PostingIndex::Timer::~Timer() { *sink_ += NowMs() - start_ms_; }

HybridRowSet PostingIndex::ScanPosting(size_t col, ValueId v) const {
  HybridRowSet rows(table_->ScanEquals(col, v));
  // Density-adaptive: sparse postings compress, dense ones stay word
  // bitmaps. Deterministic in the posting's cardinality only.
  if (options_.compressed) rows.Compact(rows.Count());
  return rows;
}

PostingIndex::Entry& PostingIndex::Insert(size_t col, ValueId v,
                                          HybridRowSet rows) {
  lru_.push_front(Key{col, v});
  Entry& e = cache_[col][v];
  e.rows = std::move(rows);
  e.lru_it = lru_.begin();
  e.bytes = EntryBytes(e.rows);
  bytes_ += e.bytes;
  return e;
}

void PostingIndex::EraseEntry(size_t col, ColumnCache::iterator it) {
  lru_.erase(it->second.lru_it);
  bytes_ -= it->second.bytes;
  cache_[col].erase(it);
}

void PostingIndex::ReaccountTouched(std::vector<Entry*>& touched) {
  for (Entry* e : touched) {
    size_t now = EntryBytes(e->rows);
    bytes_ += now;
    bytes_ -= e->bytes;
    e->bytes = now;
    e->dirty = false;
  }
}

PostingStorageStats PostingIndex::StorageStats() const {
  PostingStorageStats s;
  size_t dense_entry = ((table_->num_rows() + 63) / 64) * sizeof(uint64_t);
  for (const ColumnCache& cache : cache_) {
    for (const auto& [v, e] : cache) {
      ++s.entries;
      s.resident_bytes += e.rows.HeapBytes();
      s.dense_bytes += dense_entry;
      if (e.rows.compressed()) {
        auto cs = e.rows.comp().container_stats();
        s.array_containers += cs.arrays;
        s.bitmap_containers += cs.bitmaps;
        s.run_containers += cs.runs;
      }
    }
  }
  return s;
}

const HybridRowSet& PostingIndex::SharedPostings(size_t col, ValueId v) {
  auto& views = shared_views_[col];
  auto it = views.find(v);
  if (it != views.end()) {
    ++stats_.shared_hits;
    return *it->second;
  }
  if (SharedBaseCache::EntryPtr e =
          shared_->FindPosting(options_.compressed, col, v)) {
    ++stats_.shared_hits;
    return *views.emplace(v, std::move(e)).first->second;
  }
  // Miss in both views and cache: scan the (still base-identical) column
  // and publish the result so every later session hits. PublishPosting
  // always returns a servable entry — the winner's on a race, a private
  // wrap when over budget or invalidated mid-scan.
  ++stats_.shared_misses;
  const uint64_t epoch_at_scan = shared_->epoch();
  Timer timer(&stats_.scan_ms);
  Timer base_timer(&stats_.base_scan_ms);
  SharedBaseCache::EntryPtr e = shared_->PublishPosting(
      options_.compressed, col, v, ScanPosting(col, v), epoch_at_scan);
  return *views.emplace(v, std::move(e)).first->second;
}

const HybridRowSet& PostingIndex::Postings(size_t col, ValueId v) {
  if (SharedEligible(col)) return SharedPostings(col, v);
  ColumnCache& cache = cache_[col];
  auto it = cache.find(v);
  if (it != cache.end()) {
    ++stats_.hits;
  } else {
    ++stats_.misses;
    Timer timer(&stats_.scan_ms);
    if (options_.compressed && col_filled_[col] == 0) {
      // First miss since the column was last invalidated: fill every value
      // in one counting-sort pass, unless the column is key-like.
      col_filled_[col] = 1;
      BuildPostings(col, table_->num_rows() / kFillRowsPerValue,
                    ThreadPool::Global());
      it = cache.find(v);
    }
    // Key-like column, or a value absent from the fill (written or
    // appended later, or evicted by Trim): scan just this value.
    if (it == cache.end()) return Insert(col, v, ScanPosting(col, v)).rows;
  }
  lru_.splice(lru_.begin(), lru_, it->second.lru_it);  // Touch.
  return it->second.rows;
}

void PostingIndex::PrivatizeColumn(size_t col) {
  if (shared_ == nullptr || col_private_[col] != 0) return;
  col_private_[col] = 1;
  // Promote every pinned shared entry into a private LRU entry. The bits
  // (and representation — entries were built under this plane's Compact
  // policy) are copied verbatim, so the session observes exactly the
  // bitmaps it has been serving, now patchable in place.
  for (auto& [v, entry] : shared_views_[col]) {
    lru_.push_front(Key{col, v});
    Entry& e = cache_[col][v];
    e.rows = *entry;
    e.lru_it = lru_.begin();
    e.bytes = EntryBytes(e.rows);
    bytes_ += e.bytes;
  }
  shared_views_[col].clear();
}

size_t PostingIndex::SharedViewEntries() const {
  size_t n = 0;
  for (const auto& views : shared_views_) n += views.size();
  return n;
}

size_t PostingIndex::SharedViewBytes() const {
  size_t bytes = 0;
  for (const auto& views : shared_views_) {
    for (const auto& [v, entry] : views) bytes += entry->HeapBytes();
  }
  return bytes;
}

void PostingIndex::BuildColumn(size_t col, ThreadPool* pool) {
  // A full build replaces whatever the column held and reflects the
  // *current* table, which may already have diverged from the base
  // snapshot — the column leaves the shared tier.
  InvalidateColumn(col);
  col_filled_[col] = 1;
  Timer timer(&stats_.scan_ms);
  BuildPostings(col, SIZE_MAX,
                pool != nullptr ? *pool : ThreadPool::Global());
}

bool PostingIndex::BuildPostings(size_t col, size_t max_values,
                                 ThreadPool& tp) {
  const ValueId* column = table_->column(col).data();
  const size_t num_rows = table_->num_rows();

  // Histogram: a count per ValueId and the distinct values, serially in
  // one pass that stops as soon as the column proves key-like.
  ValueTable counts(table_->pool()->size());
  std::vector<ValueId> values;
  for (size_t r = 0; r < num_rows; ++r) {
    if (counts[column[r]]++ == 0) {
      values.push_back(column[r]);
      if (values.size() > max_values) return false;
    }
  }
  // Slots follow ascending ValueId, so the insert order below — and with
  // it the LRU order and byte accounting — is fixed. Values already cached
  // keep their entries: references handed out for them stay valid.
  std::sort(values.begin(), values.end());
  const ColumnCache& cache = cache_[col];
  std::vector<uint32_t> value_rows(values.size());
  std::vector<uint8_t> wanted(values.size());
  for (size_t s = 0; s < values.size(); ++s) {
    value_rows[s] = counts[values[s]];
    counts[values[s]] = static_cast<uint32_t>(s);
    wanted[s] = cache.count(values[s]) == 0;
  }
  const uint32_t* slot_of = counts.data();
  std::vector<ChunkGroups> chunks = GroupRows(
      column, 0, num_rows, values.size(),
      [slot_of](ValueId v) { return slot_of[v]; }, tp);

  // Transpose to per-value (chunk, group) lists in chunk order.
  struct GroupRef {
    uint32_t chunk;
    uint32_t group;
  };
  std::vector<size_t> first(values.size() + 1, 0);
  for (const ChunkGroups& cg : chunks) {
    for (const ChunkGroups::Group& g : cg.groups) ++first[g.slot + 1];
  }
  for (size_t s = 0; s < values.size(); ++s) first[s + 1] += first[s];
  std::vector<GroupRef> refs(first.back());
  {
    std::vector<size_t> cursor(first.begin(), first.end() - 1);
    for (size_t k = 0; k < chunks.size(); ++k) {
      for (size_t g = 0; g < chunks[k].groups.size(); ++g) {
        refs[cursor[chunks[k].groups[g].slot]++] =
            GroupRef{static_cast<uint32_t>(k), static_cast<uint32_t>(g)};
      }
    }
  }

  // Each value's posting is written by exactly one shard, straight into
  // the representation Compact would choose for its row count.
  std::vector<HybridRowSet> postings(values.size());
  tp.ParallelFor(values.size(), 64, [&](size_t sb, size_t se) {
    for (size_t s = sb; s < se; ++s) {
      if (!wanted[s]) continue;
      HybridRowSet rows =
          options_.compressed &&
                  HybridRowSet::CompressesAt(value_rows[s], num_rows)
              ? HybridRowSet(CompressedRowSet(num_rows))
              : HybridRowSet(num_rows);
      for (size_t i = first[s]; i < first[s + 1]; ++i) {
        const ChunkGroups& cg = chunks[refs[i].chunk];
        const ChunkGroups::Group& g = cg.groups[refs[i].group];
        rows.AppendChunk(static_cast<uint16_t>(refs[i].chunk),
                         cg.lows.data() + g.begin, g.count);
      }
      postings[s] = std::move(rows);
    }
  });
  for (size_t s = 0; s < values.size(); ++s) {
    if (wanted[s]) Insert(col, values[s], std::move(postings[s]));
  }
  return true;
}

void PostingIndex::BuildAll(ThreadPool* pool) {
  for (size_t c = 0; c < cache_.size(); ++c) BuildColumn(c, pool);
}

void PostingIndex::ApplyAppend(size_t old_rows) {
  size_t new_rows = table_->num_rows();
  FALCON_CHECK(new_rows >= old_rows);
  if (new_rows == old_rows) return;
  Timer timer(&stats_.append_ms);
  stats_.append_rows += new_rows - old_rows;
  // The appended table is no longer the base snapshot: every column leaves
  // the shared tier. Pinned shared entries are promoted into private
  // copies first so sessions keep serving the bitmaps they handed out —
  // then patched below exactly like native private entries.
  if (shared_ != nullptr) {
    for (size_t c = 0; c < cache_.size(); ++c) PrivatizeColumn(c);
  }
  // Per column: bucket the batch's rows by cached value once (the
  // grouping kernel), then bulk-append each bucket into its entry.
  ThreadPool& tp = ThreadPool::Global();
  const size_t first_chunk = old_rows / kChunkRows;
  std::vector<Entry*> touched;
  std::vector<Entry*> entries;
  for (size_t c = 0; c < cache_.size(); ++c) {
    ColumnCache& cache = cache_[c];
    if (cache.empty()) continue;
    SlotMap slots(cache.size());
    entries.clear();
    for (auto& [v, e] : cache) {
      e.rows.Resize(new_rows);
      Touch(&e, touched);
      slots.Insert(v, static_cast<uint32_t>(entries.size()));
      entries.push_back(&e);
    }
    std::vector<ChunkGroups> chunks = GroupRows(
        table_->column(c).data(), old_rows, new_rows, entries.size(),
        [&slots](ValueId v) { return slots.Find(v); }, tp);
    for (size_t k = 0; k < chunks.size(); ++k) {
      const ChunkGroups& cg = chunks[k];
      for (const ChunkGroups::Group& g : cg.groups) {
        entries[g.slot]->rows.AppendChunk(
            static_cast<uint16_t>(first_chunk + k), cg.lows.data() + g.begin,
            g.count);
      }
    }
  }
  ReaccountTouched(touched);
}

void PostingIndex::ApplyCellDelta(size_t col, size_t row, ValueId old_value,
                                  ValueId new_value) {
  if (old_value == new_value) return;
  Timer timer(&stats_.delta_ms);
  PrivatizeColumn(col);
  ColumnCache& cache = cache_[col];
  if (cache.empty()) return;
  std::vector<Entry*> touched;
  if (Entry* e = Touch(FindEntry(cache, old_value), touched)) {
    e->rows.Clear(row);
  }
  if (Entry* e = Touch(FindEntry(cache, new_value), touched)) {
    e->rows.Set(row);
  }
  ++stats_.delta_rows;
  ReaccountTouched(touched);
}

void PostingIndex::InvalidateColumn(size_t col) {
  // Invalidation implies the column's contents changed (or are about to):
  // it leaves the shared tier for good. No promotion — the point of this
  // path is to rescan on the next probe anyway.
  if (shared_ != nullptr) {
    col_private_[col] = 1;
    shared_views_[col].clear();
  }
  col_filled_[col] = 0;
  ColumnCache& cache = cache_[col];
  for (auto it = cache.begin(); it != cache.end(); ++it) {
    lru_.erase(it->second.lru_it);
    bytes_ -= it->second.bytes;
  }
  cache.clear();
}

void PostingIndex::InvalidateAll() {
  if (shared_ != nullptr) {
    col_private_.assign(col_private_.size(), 1);
    for (auto& views : shared_views_) views.clear();
  }
  for (auto& m : cache_) m.clear();
  col_filled_.assign(col_filled_.size(), 0);
  lru_.clear();
  bytes_ = 0;
}

void PostingIndex::Trim() {
  if (options_.byte_budget == 0) return;
  while (bytes_ > options_.byte_budget && !lru_.empty()) {
    auto [col, v] = lru_.back();
    EraseEntry(col, cache_[col].find(v));
    ++stats_.evictions;
  }
}

}  // namespace falcon
