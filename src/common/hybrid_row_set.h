// HybridRowSet: a row set stored either dense (RowSet) or compressed
// (CompressedRowSet), chosen per instance by measured density. The lattice
// and posting index hold these so each node/posting picks the cheaper
// representation while every consumer sees one representation-independent
// surface: kernels dispatch on the operand pair, Hash()/operator== are
// canonical, and ForEach/AllOf/First/Count behave identically either way.
//
// Dense RowSet remains the scan-shard scratch representation; HybridRowSet
// is the *storage* type for long-lived bitmaps.
#ifndef FALCON_COMMON_HYBRID_ROW_SET_H_
#define FALCON_COMMON_HYBRID_ROW_SET_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/compressed_row_set.h"
#include "common/logging.h"
#include "common/row_set.h"

namespace falcon {

class HybridRowSet {
 public:
  /// Below this density a set compresses (1 row in 16 ≈ where array
  /// containers beat the dense word cost); above kDensifyDensity a
  /// compressed set converts back. The gap hysteresis keeps Compact cheap
  /// to call repeatedly.
  static constexpr double kCompressDensity = 1.0 / 16.0;
  static constexpr double kDensifyDensity = 1.0 / 8.0;
  /// Universes smaller than this stay dense — the dense bitmap is already
  /// tiny and container overhead would dominate.
  static constexpr size_t kMinCompressUniverse = size_t{1} << 14;

  HybridRowSet() = default;

  /// Empty dense set over `universe_size` rows.
  explicit HybridRowSet(size_t universe_size) : dense_(universe_size) {}

  /// Dense set with every bit set to `fill`.
  HybridRowSet(size_t universe_size, bool fill) : dense_(universe_size, fill) {}

  /* implicit */ HybridRowSet(RowSet dense) : dense_(std::move(dense)) {}
  /* implicit */ HybridRowSet(CompressedRowSet comp)
      : compressed_(true), comp_(std::move(comp)) {}

  bool compressed() const { return compressed_; }
  const RowSet& dense() const {
    FALCON_DCHECK(!compressed_);
    return dense_;
  }
  const CompressedRowSet& comp() const {
    FALCON_DCHECK(compressed_);
    return comp_;
  }

  size_t universe_size() const {
    return compressed_ ? comp_.universe_size() : dense_.universe_size();
  }
  size_t Count() const { return compressed_ ? comp_.Count() : dense_.Count(); }
  bool Empty() const { return compressed_ ? comp_.Empty() : dense_.Empty(); }

  void Set(size_t row) { compressed_ ? comp_.Set(row) : dense_.Set(row); }
  void Clear(size_t row) { compressed_ ? comp_.Clear(row) : dense_.Clear(row); }
  bool Test(size_t row) const {
    return compressed_ ? comp_.Test(row) : dense_.Test(row);
  }
  void ClearAll() { compressed_ ? comp_.ClearAll() : dense_.ClearAll(); }

  size_t First() const { return compressed_ ? comp_.First() : dense_.First(); }

  /// Bulk streaming append: sets the ascending low-16 offsets
  /// `lows[0, count)` of chunk `key`, all above every row already set, in
  /// the current representation (CompressedRowSet::AppendChunk).
  void AppendChunk(uint16_t key, const uint16_t* lows, size_t count) {
    if (compressed_) {
      comp_.AppendChunk(key, lows, count);
      return;
    }
    size_t base = static_cast<size_t>(key) << 16;
    for (size_t i = 0; i < count; ++i) dense_.Set(base + lows[i]);
  }

  /// Grows the universe in the current representation (streaming append);
  /// new rows start cleared. Representation choice is untouched — callers
  /// re-Compact with the post-append cardinality when it matters.
  void Resize(size_t new_universe) {
    compressed_ ? comp_.Resize(new_universe) : dense_.Resize(new_universe);
  }

  // --- Binary kernels, full 2×2 dispatch -----------------------------------

  void And(const HybridRowSet& other) {
    if (compressed_) {
      other.compressed_ ? comp_.And(other.comp_) : comp_.And(other.dense_);
    } else if (other.compressed_) {
      other.comp_.AndInto(dense_);
    } else {
      dense_.And(other.dense_);
    }
  }

  void AndNot(const HybridRowSet& other) {
    if (compressed_) {
      other.compressed_ ? comp_.AndNot(other.comp_)
                        : comp_.AndNot(other.dense_);
    } else if (other.compressed_) {
      // dense &= ~compressed: clear each compressed row (sparse walk).
      other.comp_.ForEach([this](size_t r) { dense_.Clear(r); });
    } else {
      dense_.AndNot(other.dense_);
    }
  }

  void Or(const HybridRowSet& other) {
    if (compressed_) {
      other.compressed_ ? comp_.Or(other.comp_) : comp_.Or(other.dense_);
    } else if (other.compressed_) {
      other.comp_.ForEach([this](size_t r) { dense_.Set(r); });
    } else {
      dense_.Or(other.dense_);
    }
  }

  void And(const RowSet& other) {
    compressed_ ? comp_.And(other) : dense_.And(other);
  }
  void AndNot(const RowSet& other) {
    compressed_ ? comp_.AndNot(other) : dense_.AndNot(other);
  }
  void Or(const RowSet& other) {
    compressed_ ? comp_.Or(other) : dense_.Or(other);
  }

  /// this = a & b, returning the result's cardinality. Dense×dense — the
  /// bitmap-materialization hot path — runs the fused and3_count kernel
  /// (one pass, count accumulated in registers); any compressed operand
  /// falls back to copy-then-And-then-Count.
  size_t AssignAnd(const HybridRowSet& a, const HybridRowSet& b) {
    if (!a.compressed_ && !b.compressed_) {
      size_t count = dense_.AssignAnd(a.dense_, b.dense_);
      if (compressed_) {
        comp_ = CompressedRowSet();
        compressed_ = false;
      }
      return count;
    }
    *this = a;
    And(b);
    return Count();
  }

  size_t AndCount(const HybridRowSet& other) const {
    if (compressed_) {
      return other.compressed_ ? comp_.AndCount(other.comp_)
                               : comp_.AndCount(other.dense_);
    }
    return other.compressed_ ? other.comp_.AndCount(dense_)
                             : dense_.AndCount(other.dense_);
  }
  size_t AndCount(const RowSet& other) const {
    return compressed_ ? comp_.AndCount(other) : dense_.AndCount(other);
  }

  bool IsSubsetOf(const HybridRowSet& other) const {
    if (compressed_) {
      return other.compressed_ ? comp_.IsSubsetOf(other.comp_)
                               : comp_.IsSubsetOf(other.dense_);
    }
    return other.compressed_ ? other.comp_.ContainsAll(dense_)
                             : dense_.IsSubsetOf(other.dense_);
  }

  bool DisjointWith(const HybridRowSet& other) const {
    if (compressed_) {
      return other.compressed_ ? comp_.DisjointWith(other.comp_)
                               : comp_.DisjointWith(other.dense_);
    }
    return other.compressed_ ? other.comp_.DisjointWith(dense_)
                             : dense_.DisjointWith(other.dense_);
  }

  bool operator==(const HybridRowSet& other) const {
    if (compressed_) {
      return other.compressed_ ? comp_ == other.comp_ : comp_ == other.dense_;
    }
    return other.compressed_ ? other.comp_ == dense_ : dense_ == other.dense_;
  }
  bool operator==(const RowSet& other) const {
    return compressed_ ? comp_ == other : dense_ == other;
  }

  /// Canonical hash — identical across representations of equal bits.
  uint64_t Hash() const { return compressed_ ? comp_.Hash() : dense_.Hash(); }

  /// Complement within the universe, in the same representation (the
  /// complement of a sparse compressed set is interval-shaped and stays
  /// cheap as run containers).
  HybridRowSet Complement() const {
    return compressed_ ? HybridRowSet(comp_.Complement())
                       : HybridRowSet(dense_.Complement());
  }

  template <typename Fn>
  void ForEach(Fn&& fn) const {
    compressed_ ? comp_.ForEach(std::forward<Fn>(fn))
                : dense_.ForEach(std::forward<Fn>(fn));
  }
  template <typename Fn>
  bool AllOf(Fn&& fn) const {
    return compressed_ ? comp_.AllOf(std::forward<Fn>(fn))
                       : dense_.AllOf(std::forward<Fn>(fn));
  }

  std::vector<uint32_t> ToVector() const {
    return compressed_ ? comp_.ToVector() : dense_.ToVector();
  }

  RowSet ToDense() const { return compressed_ ? comp_.ToDense() : dense_; }

  /// Logical word export — works in either representation so scan shards
  /// never branch on storage.
  void CopyWords(size_t word_begin, size_t word_count, uint64_t* out) const {
    if (compressed_) {
      comp_.CopyWords(word_begin, word_count, out);
    } else {
      for (size_t i = 0; i < word_count; ++i) {
        out[i] = dense_.word(word_begin + i);
      }
    }
  }

  size_t HeapBytes() const {
    return compressed_ ? comp_.HeapBytes() : dense_.HeapBytes();
  }

  /// True iff Compact(count) compresses a dense set of `count` rows over
  /// `universe` rows — lets a builder pick the representation up front.
  static bool CompressesAt(size_t count, size_t universe) {
    return universe >= kMinCompressUniverse &&
           static_cast<double>(count) / static_cast<double>(universe) <
               kCompressDensity;
  }

  /// Picks the representation by measured density. Deterministic: depends
  /// only on `count` and the universe, never on the current encoding, so
  /// lazy/eager and dense/compressed schedules stay aligned. Pass the
  /// known cardinality to avoid a recount.
  void Compact(size_t count) {
    size_t n = universe_size();
    if (n < kMinCompressUniverse) {
      EnsureDense();
      return;
    }
    double density = static_cast<double>(count) / static_cast<double>(n);
    if (!compressed_ && CompressesAt(count, n)) {
      comp_ = CompressedRowSet::FromDense(dense_);
      dense_ = RowSet();
      compressed_ = true;
    } else if (compressed_ && density > kDensifyDensity) {
      EnsureDense();
    }
  }
  void Compact() { Compact(Count()); }

  /// Forces the dense representation (scan scratch, naive init paths).
  void EnsureDense() {
    if (!compressed_) return;
    dense_ = comp_.ToDense();
    comp_ = CompressedRowSet();
    compressed_ = false;
  }

  /// Forces the compressed representation regardless of density.
  void EnsureCompressed() {
    if (compressed_) return;
    comp_ = CompressedRowSet::FromDense(dense_);
    dense_ = RowSet();
    compressed_ = true;
  }

 private:
  bool compressed_ = false;
  RowSet dense_;
  CompressedRowSet comp_;
};

}  // namespace falcon

#endif  // FALCON_COMMON_HYBRID_ROW_SET_H_
