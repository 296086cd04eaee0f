#include "relational/table.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <mutex>
#include <sstream>

#include "common/logging.h"
#include "common/thread_pool.h"

namespace falcon {
namespace {

// Below this many rows the parallel kernels run inline: a 64k-row scan is
// ~256KB of reads, cheaper than waking the pool.
constexpr size_t kParallelRowGrain = size_t{1} << 16;
constexpr size_t kParallelWordGrain = kParallelRowGrain / 64;

// Sets bit v of `bits` for each value v in column[begin, end), growing the
// bitset for ids past its end (raw ids written without interning).
void MarkValues(const ValueId* column, size_t begin, size_t end,
                std::vector<uint64_t>* bits) {
  for (size_t r = begin; r < end; ++r) {
    size_t w = column[r] >> 6;
    if (w >= bits->size()) bits->resize(w + 1, 0);
    (*bits)[w] |= uint64_t{1} << (column[r] & 63);
  }
}

}  // namespace

Table::Table(std::string name, Schema schema, std::shared_ptr<ValuePool> pool)
    : name_(std::move(name)),
      schema_(std::move(schema)),
      pool_(pool ? std::move(pool) : std::make_shared<ValuePool>()) {
  columns_.reserve(schema_.arity());
  for (size_t c = 0; c < schema_.arity(); ++c) {
    columns_.push_back(std::make_shared<Column>());
  }
}

void Table::DetachColumn(size_t col, size_t extra_rows) {
  // An append gets the geometric headroom a growing vector would take, so
  // later batches append in place as they did before the detach.
  const size_t rows = columns_[col]->size();
  auto copy = std::make_shared<Column>();
  copy->reserve(extra_rows == 0 ? rows : std::max(rows + extra_rows, 2 * rows));
  copy->assign(columns_[col]->begin(), columns_[col]->end());
  columns_[col] = std::move(copy);
}

void Table::AppendRow(const std::vector<std::string>& values) {
  FALCON_CHECK(values.size() == schema_.arity());
  for (size_t c = 0; c < values.size(); ++c) {
    MutableColumn(c).push_back(pool_->Intern(values[c]));
  }
  ++num_rows_;
}

void Table::AppendRow(std::span<const std::string_view> values) {
  FALCON_CHECK(values.size() == schema_.arity());
  for (size_t c = 0; c < values.size(); ++c) {
    MutableColumn(c).push_back(pool_->Intern(values[c]));
  }
  ++num_rows_;
}

void Table::AppendRowIds(const std::vector<ValueId>& ids) {
  FALCON_CHECK(ids.size() == schema_.arity());
  for (size_t c = 0; c < ids.size(); ++c) {
    MutableColumn(c).push_back(ids[c]);
  }
  ++num_rows_;
}

size_t Table::AppendBatch(const std::vector<std::vector<ValueId>>& chunk) {
  FALCON_CHECK(chunk.size() == schema_.arity());
  size_t first_row = num_rows_;
  size_t batch = schema_.arity() == 0 ? 0 : chunk[0].size();
  for (size_t c = 0; c < chunk.size(); ++c) {
    FALCON_CHECK(chunk[c].size() == batch);
    Column& col = MutableColumn(c, batch);
    col.insert(col.end(), chunk[c].begin(), chunk[c].end());
  }
  num_rows_ += batch;
  return first_row;
}

void Table::ReserveRows(size_t total_rows) {
  for (size_t c = 0; c < columns_.size(); ++c) {
    // Reserving writes no elements, but growing shared storage would move
    // data out from under other snapshots — detach first like any mutation.
    MutableColumn(c).reserve(total_rows);
  }
}

void Table::SetCellText(size_t row, size_t col, std::string_view text) {
  set_cell(row, col, pool_->Intern(text));
}

RowSet Table::ScanEquals(size_t col, ValueId v) const {
  RowSet rows(num_rows_);
  const ValueId* column = columns_[col]->data();
  const size_t num_rows = num_rows_;
  // Word-blocked, branch-free: each shard owns a disjoint word range, so the
  // parallel result is bit-identical to the serial one.
  ThreadPool::Global().ParallelFor(
      rows.num_words(), kParallelWordGrain, [&](size_t wb, size_t we) {
        for (size_t w = wb; w < we; ++w) {
          size_t r0 = w * 64;
          size_t r1 = std::min(r0 + 64, num_rows);
          uint64_t word = 0;
          for (size_t r = r0; r < r1; ++r) {
            word |= uint64_t{column[r] == v} << (r - r0);
          }
          rows.SetWord(w, word);
        }
      });
  return rows;
}

std::vector<RowSet> Table::ScanEqualsMulti(
    size_t col, const std::vector<ValueId>& values) const {
  std::vector<RowSet> out;
  out.reserve(values.size());
  for (size_t i = 0; i < values.size(); ++i) out.emplace_back(num_rows_);
  if (values.empty()) return out;
  const ValueId* column = columns_[col]->data();
  const size_t num_rows = num_rows_;
  const size_t k = values.size();
  ThreadPool::Global().ParallelFor(
      out[0].num_words(), kParallelWordGrain, [&](size_t wb, size_t we) {
        std::vector<uint64_t> words(k);
        for (size_t w = wb; w < we; ++w) {
          size_t r0 = w * 64;
          size_t r1 = std::min(r0 + 64, num_rows);
          std::fill(words.begin(), words.end(), 0);
          for (size_t r = r0; r < r1; ++r) {
            ValueId x = column[r];
            for (size_t i = 0; i < k; ++i) {
              words[i] |= uint64_t{x == values[i]} << (r - r0);
            }
          }
          for (size_t i = 0; i < k; ++i) out[i].SetWord(w, words[i]);
        }
      });
  return out;
}

RowSet Table::ScanConjunction(
    const std::vector<std::pair<size_t, ValueId>>& preds) const {
  RowSet rows(num_rows_, /*fill=*/true);
  if (preds.empty()) return rows;
  for (const auto& [col, v] : preds) {
    rows.And(ScanEquals(col, v));
  }
  return rows;
}

size_t Table::DistinctCount(size_t col) const {
  const ValueId* column = columns_[col]->data();
  // One bit per pooled ValueId (the pool always holds NULL); the count is
  // the popcount, NULL excluded.
  const size_t words = (pool_->size() + 63) / 64;
  std::vector<uint64_t> seen(words, 0);
  ThreadPool& pool = ThreadPool::Global();
  if (pool.num_threads() == 0 || num_rows_ < kParallelRowGrain) {
    MarkValues(column, 0, num_rows_, &seen);
  } else {
    // Per-shard bitsets OR-ed under a lock; the union does not depend on
    // shard boundaries, so the result matches the serial loop exactly.
    std::mutex mu;
    pool.ParallelFor(num_rows_, kParallelRowGrain,
                     [&](size_t begin, size_t end) {
                       std::vector<uint64_t> local(words, 0);
                       MarkValues(column, begin, end, &local);
                       std::lock_guard<std::mutex> lock(mu);
                       if (local.size() > seen.size()) {
                         seen.resize(local.size(), 0);
                       }
                       for (size_t i = 0; i < local.size(); ++i) {
                         seen[i] |= local[i];
                       }
                     });
  }
  seen[kNullValueId >> 6] &= ~(uint64_t{1} << (kNullValueId & 63));
  size_t distinct = 0;
  for (uint64_t w : seen) distinct += static_cast<size_t>(std::popcount(w));
  return distinct;
}

Table Table::Clone() const {
  Table copy(name_, schema_, pool_);
  copy.columns_ = columns_;  // Shared until either side writes (COW).
  copy.num_rows_ = num_rows_;
  return copy;
}

size_t Table::SharedColumnCount() const {
  size_t shared = 0;
  for (const auto& col : columns_) shared += col.use_count() > 1;
  return shared;
}

size_t Table::CountDiffCells(const Table& other) const {
  FALCON_CHECK(num_rows_ == other.num_rows_);
  FALCON_CHECK(num_cols() == other.num_cols());
  size_t diff = 0;
  for (size_t c = 0; c < num_cols(); ++c) {
    const ValueId* a = columns_[c]->data();
    const ValueId* b = other.columns_[c]->data();
    // Integer partial sums combine associatively, so row-sharding the count
    // is exact. The atomic serializes only once per shard.
    std::atomic<size_t> col_diff{0};
    ThreadPool::Global().ParallelFor(
        num_rows_, kParallelRowGrain, [&](size_t begin, size_t end) {
          size_t local = 0;
          for (size_t r = begin; r < end; ++r) local += a[r] != b[r];
          col_diff.fetch_add(local, std::memory_order_relaxed);
        });
    diff += col_diff.load();
  }
  return diff;
}

std::string Table::ToString(size_t max_rows) const {
  std::ostringstream os;
  for (size_t c = 0; c < num_cols(); ++c) {
    if (c > 0) os << " | ";
    os << schema_.attribute(c);
  }
  os << "\n";
  size_t n = std::min(max_rows, num_rows_);
  for (size_t r = 0; r < n; ++r) {
    for (size_t c = 0; c < num_cols(); ++c) {
      if (c > 0) os << " | ";
      os << CellText(r, c);
    }
    os << "\n";
  }
  if (n < num_rows_) {
    os << "... (" << (num_rows_ - n) << " more rows)\n";
  }
  return os.str();
}

}  // namespace falcon
