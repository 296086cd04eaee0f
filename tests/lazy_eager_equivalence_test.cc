// Lazy materialization and compressed row-set storage are optimizations,
// not semantics changes: every observable of a cleaning run — the
// questions asked (after closed-set redirection), the answers, the applied
// repairs, the final table CRC — must be bit-identical across
// options.lattice.lazy = {true, false} × options.compressed_rowsets =
// {false, true}, for every search algorithm and both posting-maintenance
// modes. These sweeps pin that property on seeded random workloads; the
// direct lattice tests pin the accessor-level equivalence (affected sets,
// counts, representatives) including after applied queries, and a chain
// of compressed lattices over one shared posting index pins the same at a
// scale where bitmaps really compress.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/rng.h"
#include "core/lattice.h"
#include "core/oracle.h"
#include "core/session.h"
#include "core/session_journal.h"
#include "datagen/datasets.h"
#include "errorgen/injector.h"
#include "relational/posting_index.h"

namespace falcon {
namespace {

// Oracle that behaves bit-for-bit like the session's internal simulated
// user (same ctor arguments) while recording every question it was asked.
class RecordingOracle : public UserOracle {
 public:
  struct Asked {
    NodeId node;
    size_t target_col;
    bool valid;
  };

  RecordingOracle(const Table* clean, uint64_t session_seed)
      : UserOracle(clean, /*mistake_prob=*/0.0, session_seed + 1) {}

  Answered AnswerEx(const Lattice& lattice, NodeId n) override {
    Answered a = UserOracle::AnswerEx(lattice, n);
    asked_.push_back({n, lattice.target_col(), a.valid});
    return a;
  }

  const std::vector<Asked>& asked() const { return asked_; }

 private:
  std::vector<Asked> asked_;
};

struct Workload {
  Table clean;
  Table dirty;
};

Workload MakeWorkload(size_t rows, uint64_t seed) {
  auto ds = MakeSynth(rows, seed);
  FALCON_CHECK(ds.ok());
  auto dirty = InjectErrors(ds->clean, ds->error_spec);
  FALCON_CHECK(dirty.ok());
  return {ds->clean.Clone(), dirty->dirty.Clone()};
}

struct RunResult {
  SessionMetrics metrics;
  Table final_table;
  uint32_t final_crc = 0;
  std::vector<RecordingOracle::Asked> asked;
};

RunResult RunOnce(const Workload& w, SearchKind kind, bool lazy,
                  bool posting_delta, bool compressed, uint64_t seed) {
  SessionOptions options;
  options.budget = 3;
  options.seed = seed;
  options.posting_delta = posting_delta;
  options.lattice.lazy = lazy;
  options.compressed_rowsets = compressed;
  RecordingOracle oracle(&w.clean, seed);
  options.oracle = &oracle;
  Table dirty = w.dirty.Clone();
  auto algorithm = MakeSearchAlgorithm(kind);
  CleaningSession session(&w.clean, &dirty, algorithm.get(), options);
  auto m = session.Run();
  FALCON_CHECK(m.ok());
  return {*m, dirty.Clone(), TableContentsCrc(dirty), oracle.asked()};
}

struct EquivParam {
  SearchKind kind;
  bool posting_delta;
};

std::string ParamName(const ::testing::TestParamInfo<EquivParam>& info) {
  return std::string(SearchKindName(info.param.kind)) +
         (info.param.posting_delta ? "_delta" : "_invalidate");
}

class LazyEagerEquivalenceTest : public ::testing::TestWithParam<EquivParam> {
};

TEST_P(LazyEagerEquivalenceTest, RunsBitIdentical) {
  for (uint64_t seed : {11u, 42u}) {
    Workload w = MakeWorkload(1200, seed);
    // Full grid: {lazy, eager} × {dense, compressed}. The lazy+dense run
    // is the baseline every other configuration must match bit-for-bit.
    struct Config {
      bool lazy;
      bool compressed;
      const char* name;
    };
    const Config configs[] = {{true, false, "lazy/dense"},
                              {false, false, "eager/dense"},
                              {true, true, "lazy/compressed"},
                              {false, true, "eager/compressed"}};
    std::vector<RunResult> runs;
    for (const Config& cfg : configs) {
      runs.push_back(RunOnce(w, GetParam().kind, cfg.lazy,
                             GetParam().posting_delta, cfg.compressed,
                             /*seed=*/1234 + seed));
    }
    const RunResult& base = runs[0];

    for (size_t k = 1; k < runs.size(); ++k) {
      const RunResult& other = runs[k];
      SCOPED_TRACE(std::string("config ") + configs[k].name);

      // Interaction accounting matches exactly.
      EXPECT_EQ(base.metrics.user_updates, other.metrics.user_updates);
      EXPECT_EQ(base.metrics.user_answers, other.metrics.user_answers);
      EXPECT_EQ(base.metrics.cells_repaired, other.metrics.cells_repaired);
      EXPECT_EQ(base.metrics.queries_applied, other.metrics.queries_applied);
      EXPECT_EQ(base.metrics.converged, other.metrics.converged);

      // Same questions, in the same order, with the same answers — this
      // covers closed-set representative redirection too, since the oracle
      // sees the redirected node.
      ASSERT_EQ(base.asked.size(), other.asked.size());
      for (size_t i = 0; i < base.asked.size(); ++i) {
        EXPECT_EQ(base.asked[i].node, other.asked[i].node) << "question " << i;
        EXPECT_EQ(base.asked[i].target_col, other.asked[i].target_col);
        EXPECT_EQ(base.asked[i].valid, other.asked[i].valid);
      }

      // Same final instance, cell for cell, and the same table CRC.
      EXPECT_EQ(base.final_table.CountDiffCells(other.final_table), 0u);
      EXPECT_EQ(base.final_crc, other.final_crc);
    }

    // Lazy/eager schedules must match *within* each storage mode too:
    // nodes_materialized and fused_count_calls are representation
    // independent by construction (MaterializeBitmap pre-fills counts in
    // both modes).
    EXPECT_EQ(runs[0].metrics.nodes_materialized,
              runs[2].metrics.nodes_materialized);
    EXPECT_EQ(runs[0].metrics.fused_count_calls,
              runs[2].metrics.fused_count_calls);
    EXPECT_EQ(runs[1].metrics.nodes_materialized,
              runs[3].metrics.nodes_materialized);

    // And the lazy run must actually have been lazy: a strict subset of
    // nodes materialized, with counts served by the fused kernel. The
    // eager run materializes everything at build.
    const RunResult& lazy = runs[0];
    const RunResult& eager = runs[1];
    ASSERT_GT(lazy.metrics.nodes_total, 0u);
    EXPECT_LT(lazy.metrics.nodes_materialized, lazy.metrics.nodes_total);
    EXPECT_GT(lazy.metrics.fused_count_calls, 0u);
    EXPECT_EQ(eager.metrics.nodes_materialized, eager.metrics.nodes_total);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllAlgorithmsBothPostingModes, LazyEagerEquivalenceTest,
    ::testing::Values(EquivParam{SearchKind::kBfs, true},
                      EquivParam{SearchKind::kBfs, false},
                      EquivParam{SearchKind::kDfs, true},
                      EquivParam{SearchKind::kDfs, false},
                      EquivParam{SearchKind::kDucc, true},
                      EquivParam{SearchKind::kDucc, false},
                      EquivParam{SearchKind::kDive, true},
                      EquivParam{SearchKind::kDive, false},
                      EquivParam{SearchKind::kCoDive, true},
                      EquivParam{SearchKind::kCoDive, false},
                      EquivParam{SearchKind::kOffline, true},
                      EquivParam{SearchKind::kOffline, false}),
    ParamName);

// Accessor-level equivalence on one lattice: every affected set, count, and
// closed-set representative matches between a lazy and an eager build —
// before and after an applied query maintains them.
TEST(LazyEagerLatticeTest, AccessorsMatchNodeForNode) {
  Workload w = MakeWorkload(1500, /*seed=*/7);
  Table dirty = w.dirty.Clone();

  // Repair the first cell that differs from clean.
  Repair repair;
  bool found = false;
  for (size_t r = 0; r < dirty.num_rows() && !found; ++r) {
    for (size_t c = 0; c < dirty.num_cols() && !found; ++c) {
      if (dirty.cell(r, c) != w.clean.cell(r, c)) {
        repair = {static_cast<uint32_t>(r), c,
                  std::string(w.clean.CellText(r, c))};
        found = true;
      }
    }
  }
  ASSERT_TRUE(found);
  std::vector<size_t> cols;
  for (size_t c = 0; c < dirty.num_cols() && cols.size() < 5; ++c) {
    if (c != repair.col) cols.push_back(c);
  }

  LatticeOptions lazy_opts;   // lazy = true by default.
  LatticeOptions eager_opts;
  eager_opts.lazy = false;
  Table lazy_table = dirty.Clone();
  Table eager_table = dirty.Clone();
  auto lazy = Lattice::Build(lazy_table, repair, cols, lazy_opts);
  auto eager = Lattice::Build(eager_table, repair, cols, eager_opts);
  ASSERT_TRUE(lazy.ok()) << lazy.status();
  ASSERT_TRUE(eager.ok()) << eager.status();
  ASSERT_EQ(lazy->num_nodes(), eager->num_nodes());

  for (NodeId m = 0; m < lazy->num_nodes(); ++m) {
    EXPECT_EQ(lazy->affected_count(m), eager->affected_count(m))
        << "node " << m;
    EXPECT_EQ(lazy->affected(m), eager->affected(m)) << "node " << m;
    EXPECT_EQ(lazy->Representative(m), eager->Representative(m))
        << "node " << m;
  }

  // Apply the same mid-lattice node to both and re-compare: incremental
  // maintenance of the cached subset must agree with eager maintenance of
  // everything.
  NodeId node = lazy->top() >> 1;
  lazy->ApplyNode(node, lazy_table);
  eager->ApplyNode(node, eager_table);
  EXPECT_EQ(lazy_table.CountDiffCells(eager_table), 0u);
  for (NodeId m = 0; m < lazy->num_nodes(); ++m) {
    EXPECT_EQ(lazy->affected_count(m), eager->affected_count(m))
        << "node " << m;
    EXPECT_EQ(lazy->affected(m), eager->affected(m)) << "node " << m;
    EXPECT_EQ(lazy->Representative(m), eager->Representative(m))
        << "node " << m;
  }
}

// EnsureCounts (the batched parallel path) must agree with serial Count.
TEST(LazyEagerLatticeTest, BatchedCountsMatchSerial) {
  Workload w = MakeWorkload(2000, /*seed=*/13);
  Table dirty = w.dirty.Clone();
  Repair repair{0, 0, std::string(w.clean.CellText(0, 0))};
  std::vector<size_t> cols;
  for (size_t c = 1; c < dirty.num_cols() && cols.size() < 6; ++c) {
    cols.push_back(c);
  }
  auto batched = Lattice::Build(dirty, repair, cols);
  auto serial = Lattice::Build(dirty, repair, cols);
  ASSERT_TRUE(batched.ok());
  ASSERT_TRUE(serial.ok());

  std::vector<NodeId> all;
  for (NodeId m = 0; m < batched->num_nodes(); ++m) all.push_back(m);
  batched->EnsureCounts(all);
  for (NodeId m = 0; m < batched->num_nodes(); ++m) {
    EXPECT_EQ(batched->Count(m), serial->Count(m)) << "node " << m;
  }
  // Counting everything still materializes only about half the nodes (the
  // lowest-set-bit parents): laziness survives a full-frontier count.
  EXPECT_LT(batched->lazy_stats().nodes_materialized, batched->num_nodes());
}

// A session's lattices in miniature, at a scale where storage compresses:
// a chain of lazy, compressed lattices over one shared, delta-maintained
// posting index, each repair binding predicates that recur from earlier
// repairs, and each lattice applying a node before the next is built.
// After every apply, the next lattice must agree node for node with a
// naive_init build over the current table — counts and affected sets,
// two-attribute nodes included.
TEST(LazyEagerLatticeTest, CompressedChainOverSharedIndexMatchesNaive) {
  // Two full 65,536-row chunks plus a partial one; the universe is far
  // above HybridRowSet::kMinCompressUniverse, so sparse bitmaps compress.
  constexpr size_t kRows = 2 * 65536 + 4321;
  // Column 0 is the repaired column; the others span dense (3 values) to
  // sparse (400 values) predicate bitmaps.
  const size_t alphabet[] = {6, 3, 7, 40, 400, 12};
  constexpr size_t kCols = sizeof(alphabet) / sizeof(alphabet[0]);
  std::vector<std::string> names;
  for (size_t c = 0; c < kCols; ++c) names.push_back("A" + std::to_string(c));
  Table table("chain", Schema(names));
  Rng rng(29);
  std::vector<std::string> row(kCols);
  for (size_t r = 0; r < kRows; ++r) {
    for (size_t c = 0; c < kCols; ++c) {
      row[c] = "v" + std::to_string(rng.NextUint(alphabet[c]));
    }
    table.AppendRow(row);
  }

  // Repaired rows all share row 7's values on A1 and A2, so every lattice
  // binds (A1, A2) to the same pair, while the other bindings vary. They
  // are spread over all three chunks.
  std::vector<uint32_t> repair_rows;
  for (size_t r = 7; r < kRows && repair_rows.size() < 7; ++r) {
    if (table.cell(r, 1) == table.cell(7, 1) &&
        table.cell(r, 2) == table.cell(7, 2) &&
        (repair_rows.empty() || r >= repair_rows.back() + 22000)) {
      repair_rows.push_back(static_cast<uint32_t>(r));
    }
  }
  ASSERT_EQ(repair_rows.size(), 7u);

  PostingIndexOptions index_opts;
  index_opts.compressed = true;
  PostingIndex index(&table, index_opts);
  LatticeOptions lazy_opts;  // lazy = true by default.
  lazy_opts.index = &index;
  lazy_opts.compressed = true;
  LatticeOptions naive_opts;
  naive_opts.naive_init = true;
  const std::vector<size_t> cols = {1, 2, 3, 4, 5};
  // Applied nodes (bit 0 is the repaired column): two-attribute nodes with
  // and without it, and wider ones.
  const NodeId applied[] = {0b000011, 0b000110, 0b000111, 0b001001,
                            0b010011, 0b100101, 0b000101};

  bool saw_compressed_node = false;
  for (size_t step = 0; step < repair_rows.size(); ++step) {
    SCOPED_TRACE("lattice " + std::to_string(step));
    uint32_t r = repair_rows[step];
    std::string old_text(table.CellText(r, 0));
    size_t old_value = std::stoul(old_text.substr(1));
    Repair repair{r, 0,
                  "v" + std::to_string((old_value + 1 + step) % alphabet[0])};
    if (repair.new_value == old_text) {
      repair.new_value = "v" + std::to_string((old_value + 1) % alphabet[0]);
    }

    auto lazy = Lattice::Build(table, repair, cols, lazy_opts);
    auto naive = Lattice::Build(table, repair, cols, naive_opts);
    ASSERT_TRUE(lazy.ok()) << lazy.status();
    ASSERT_TRUE(naive.ok()) << naive.status();
    ASSERT_EQ(lazy->num_nodes(), naive->num_nodes());

    // Alternate the count schedules: the batched frontier path on odd
    // steps, the serial chain (top-down, so parents are counted late) on
    // even ones. Counts come first so some are served without the node's
    // own bitmap.
    if (step % 2 == 1) {
      std::vector<NodeId> all;
      for (NodeId m = 0; m < lazy->num_nodes(); ++m) all.push_back(m);
      lazy->EnsureCounts(all);
    }
    for (NodeId m = lazy->top() + 1; m-- > 0;) {
      EXPECT_EQ(lazy->Count(m), naive->Count(m)) << "node " << m;
    }
    for (NodeId m = 0; m < lazy->num_nodes(); ++m) {
      const HybridRowSet& rows = lazy->AffectedRows(m);
      EXPECT_EQ(rows, naive->AffectedRows(m)) << "node " << m;
      saw_compressed_node = saw_compressed_node || rows.compressed();
    }

    RowSet changed = lazy->ApplyNode(applied[step], table);
    EXPECT_GT(changed.Count(), 0u);
  }
  EXPECT_TRUE(saw_compressed_node);
  // The first miss on each lattice column filled every value of it.
  EXPECT_GE(index.cached_entries(), 3u + 7u + 40u + 400u + 12u);
}

}  // namespace
}  // namespace falcon
