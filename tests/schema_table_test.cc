#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "relational/schema.h"
#include "relational/table.h"

namespace falcon {
namespace {

Schema DrugSchema() {
  return Schema({"Date", "Molecule", "Laboratory", "Quantity"});
}

TEST(SchemaTest, ArityAndLookup) {
  Schema s = DrugSchema();
  EXPECT_EQ(s.arity(), 4u);
  EXPECT_EQ(s.attribute(0), "Date");
  EXPECT_EQ(s.AttrIndex("Laboratory"), 2);
  EXPECT_EQ(s.AttrIndex("Nope"), -1);
}

TEST(SchemaTest, Equality) {
  EXPECT_EQ(DrugSchema(), DrugSchema());
  EXPECT_FALSE(DrugSchema() == Schema({"A"}));
}

TEST(TableTest, AppendAndRead) {
  Table t("T", DrugSchema());
  t.AppendRow({"11 Nov", "statin", "Austin", "200"});
  t.AppendRow({"12 Nov", "statin", "Boston", "200"});
  EXPECT_EQ(t.num_rows(), 2u);
  EXPECT_EQ(t.num_cols(), 4u);
  EXPECT_EQ(t.CellText(0, 2), "Austin");
  EXPECT_EQ(t.CellText(1, 2), "Boston");
  // Same string interns to same id across rows and columns.
  EXPECT_EQ(t.cell(0, 1), t.cell(1, 1));
  EXPECT_EQ(t.cell(0, 3), t.cell(1, 3));
}

TEST(TableTest, SetCellText) {
  Table t("T", DrugSchema());
  t.AppendRow({"11 Nov", "statin", "Austin", "200"});
  t.SetCellText(0, 1, "C22H28F");
  EXPECT_EQ(t.CellText(0, 1), "C22H28F");
}

TEST(TableTest, ScanEquals) {
  Table t("T", DrugSchema());
  t.AppendRow({"a", "statin", "Austin", "200"});
  t.AppendRow({"b", "other", "Austin", "100"});
  t.AppendRow({"c", "statin", "Boston", "200"});
  RowSet austin = t.ScanEquals(2, t.Lookup("Austin"));
  EXPECT_EQ(austin.ToVector(), (std::vector<uint32_t>{0, 1}));
  RowSet statin = t.ScanEquals(1, t.Lookup("statin"));
  EXPECT_EQ(statin.ToVector(), (std::vector<uint32_t>{0, 2}));
}

TEST(TableTest, ScanEqualsMultiMatchesSingleScans) {
  Table t("T", DrugSchema());
  t.AppendRow({"a", "statin", "Austin", "200"});
  t.AppendRow({"b", "other", "Austin", "100"});
  t.AppendRow({"c", "statin", "Boston", "200"});
  std::vector<ValueId> values = {t.Lookup("Austin"), t.Lookup("Boston"),
                                 t.Lookup("nowhere")};
  std::vector<RowSet> multi = t.ScanEqualsMulti(2, values);
  ASSERT_EQ(multi.size(), 3u);
  for (size_t i = 0; i < values.size(); ++i) {
    EXPECT_EQ(multi[i], t.ScanEquals(2, values[i])) << "value " << i;
  }
  EXPECT_TRUE(t.ScanEqualsMulti(2, {}).empty());
}

TEST(TableTest, ScanEqualsCrossesWordBoundaries) {
  // >64 rows so the word-blocked kernel handles full and partial words.
  Table t("T", Schema({"A"}));
  for (size_t r = 0; r < 150; ++r) {
    t.AppendRow({r % 3 == 0 ? "hit" : "miss"});
  }
  RowSet rows = t.ScanEquals(0, t.Lookup("hit"));
  EXPECT_EQ(rows.Count(), 50u);
  for (size_t r = 0; r < 150; ++r) {
    EXPECT_EQ(rows.Test(r), r % 3 == 0) << "row " << r;
  }
}

TEST(TableTest, ScanConjunction) {
  Table t("T", DrugSchema());
  t.AppendRow({"a", "statin", "Austin", "200"});
  t.AppendRow({"b", "other", "Austin", "100"});
  t.AppendRow({"c", "statin", "Boston", "200"});
  RowSet rows = t.ScanConjunction(
      {{1, t.Lookup("statin")}, {2, t.Lookup("Austin")}});
  EXPECT_EQ(rows.ToVector(), (std::vector<uint32_t>{0}));
  // Empty conjunction matches everything.
  EXPECT_EQ(t.ScanConjunction({}).Count(), 3u);
}

TEST(TableTest, DistinctCountIgnoresNull) {
  Table t("T", Schema({"A"}));
  t.AppendRow({"x"});
  t.AppendRow({"y"});
  t.AppendRow({"x"});
  t.AppendRow({""});  // NULL.
  EXPECT_EQ(t.DistinctCount(0), 2u);
}

// The bitset count agrees with a std::set count on random columns holding
// NULLs and the pool's highest id, on the serial path (small tables) and
// the sharded one (past 64Ki rows, when the global pool has threads).
TEST(TableTest, DistinctCountMatchesSetCount) {
  Rng rng(99);
  for (size_t rows : {size_t{5}, size_t{1000}, size_t{3 * 65536 + 17}}) {
    for (size_t alphabet : {size_t{3}, size_t{700}, size_t{50000}}) {
      Table t("T", Schema({"A", "B"}));
      std::vector<ValueId> ids;
      for (size_t a = 0; a < alphabet; ++a) {
        ids.push_back(t.Intern("v" + std::to_string(a)));
      }
      ValueId highest = t.Intern("highest");
      ASSERT_EQ(static_cast<size_t>(highest) + 1, t.pool()->size());
      for (size_t r = 0; r < rows; ++r) {
        ValueId a = ids[rng.NextUint(ids.size())];
        if (rng.NextUint(10) == 0) a = kNullValueId;
        ValueId b = r % 2 == 0 ? highest : ids[rng.NextUint(ids.size())];
        t.AppendRowIds({a, b});
      }
      for (size_t c = 0; c < 2; ++c) {
        std::set<ValueId> want(t.column(c).begin(), t.column(c).end());
        want.erase(kNullValueId);
        EXPECT_EQ(t.DistinctCount(c), want.size())
            << rows << " rows, alphabet " << alphabet << ", col " << c;
      }
    }
  }
}

TEST(TableTest, CloneSharesPoolButNotCells) {
  Table t("T", DrugSchema());
  t.AppendRow({"a", "statin", "Austin", "200"});
  Table copy = t.Clone();
  EXPECT_EQ(copy.pool(), t.pool());
  copy.SetCellText(0, 2, "Boston");
  EXPECT_EQ(t.CellText(0, 2), "Austin");
  EXPECT_EQ(copy.CellText(0, 2), "Boston");
}

TEST(TableTest, CountDiffCells) {
  Table t("T", DrugSchema());
  t.AppendRow({"a", "statin", "Austin", "200"});
  t.AppendRow({"b", "other", "Boston", "100"});
  Table copy = t.Clone();
  EXPECT_EQ(t.CountDiffCells(copy), 0u);
  copy.SetCellText(0, 1, "x");
  copy.SetCellText(1, 3, "y");
  EXPECT_EQ(t.CountDiffCells(copy), 2u);
}

TEST(TableTest, CloneSharesColumnStorageUntilWritten) {
  Table t("T", DrugSchema());
  t.AppendRow({"a", "statin", "Austin", "200"});
  t.AppendRow({"b", "other", "Boston", "100"});
  EXPECT_EQ(t.SharedColumnCount(), 0u);

  Table copy = t.Clone();
  // All four columns are shared on both sides — Clone is O(arity).
  EXPECT_EQ(t.SharedColumnCount(), 4u);
  EXPECT_EQ(copy.SharedColumnCount(), 4u);

  // Writing one cell detaches exactly that column; the rest stay shared.
  copy.SetCellText(0, 2, "Boston");
  EXPECT_EQ(copy.SharedColumnCount(), 3u);
  EXPECT_EQ(t.SharedColumnCount(), 3u);
  EXPECT_EQ(t.CellText(0, 2), "Austin");

  // A second write to the already-private column detaches nothing more.
  copy.SetCellText(1, 2, "Austin");
  EXPECT_EQ(copy.SharedColumnCount(), 3u);
}

TEST(TableTest, ManySnapshotsLeaveBaseUntouched) {
  Table base("T", DrugSchema());
  for (int i = 0; i < 64; ++i) {
    base.AppendRow({"id" + std::to_string(i), "statin", "Austin", "200"});
  }
  std::vector<Table> snaps;
  for (int s = 0; s < 8; ++s) snaps.push_back(base.Clone());
  for (int s = 0; s < 8; ++s) {
    snaps[s].SetCellText(static_cast<size_t>(s), 2, "Boston");
  }
  for (int s = 0; s < 8; ++s) {
    EXPECT_EQ(base.CountDiffCells(snaps[s]), 1u) << "snapshot " << s;
  }
  for (int i = 0; i < 64; ++i) EXPECT_EQ(base.CellText(i, 2), "Austin");
}

TEST(TableTest, WritingTheBaseDetachesFromSnapshots) {
  // COW must protect both directions: a clone is also isolated from later
  // writes to the table it was cloned from.
  Table t("T", DrugSchema());
  t.AppendRow({"a", "statin", "Austin", "200"});
  Table snap = t.Clone();
  t.SetCellText(0, 3, "999");
  EXPECT_EQ(snap.CellText(0, 3), "200");
  EXPECT_EQ(t.CellText(0, 3), "999");
}

TEST(TableTest, ToStringTruncates) {
  Table t("T", Schema({"A"}));
  for (int i = 0; i < 30; ++i) t.AppendRow({std::to_string(i)});
  std::string s = t.ToString(5);
  EXPECT_NE(s.find("more rows"), std::string::npos);
}

}  // namespace
}  // namespace falcon
