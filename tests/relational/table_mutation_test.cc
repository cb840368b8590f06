// The mutation path of Table (docs/INCREMENTAL.md): UpdateRows/DeleteRows
// semantics, the canonical-encoding invariant that makes every mutated
// table answer byte-identically to a cold load of the same rows, the
// per-column copy-on-write that keeps registry-interned extensions private
// to the mutating session, and memo carry-over and sketch eviction on
// mutation.
#include <filesystem>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "pagestore/buffer_pool.h"
#include "pagestore/paged_snapshot.h"
#include "relational/extension_registry.h"
#include "relational/query_cache.h"
#include "relational/sketch.h"
#include "relational/table.h"
#include "store/snapshot.h"

namespace dbre {
namespace {

Table MakeTable(const std::string& name, int first_id, int rows) {
  RelationSchema schema(name);
  EXPECT_TRUE(schema.AddAttribute("id", DataType::kInt64).ok());
  EXPECT_TRUE(schema.AddAttribute("label", DataType::kString).ok());
  Table table(schema);
  for (int i = 0; i < rows; ++i) {
    table.InsertUnchecked(
        {Value::Int(first_id + i), Value::Text("row-" + std::to_string(i))});
  }
  return table;
}

// A single-conjunct predicate over one column.
RowPredicate Where(size_t column, std::function<bool(const Value&)> test) {
  return {ColumnTest{column, std::move(test)}};
}

RowPredicate IdAtMost(int64_t bound) {
  return Where(0, [bound](const Value& v) { return v.as_int() <= bound; });
}

// A table with the same schema holding exactly `table`'s rows, built cold
// by re-inserting its ForEachRow output — the reference every mutated
// table is compared against.
Table ColdCopy(const Table& table) {
  Table cold(table.schema());
  EXPECT_TRUE(table
                  .ForEachRow([&cold](const ValueVector& row) {
                    cold.InsertUnchecked(row);
                  })
                  .ok());
  return cold;
}

// Asserts that `table`'s (possibly carried-over) cache answers match a
// cold build over the same rows, for every primitive discovery consumes.
void ExpectCacheMatchesColdBuild(const Table& table) {
  Table cold = ColdCopy(table);
  auto warm = table.query_cache();
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  auto fresh = cold.query_cache();
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();

  const size_t columns = table.schema().arity();
  for (size_t c = 0; c < columns; ++c) {
    EXPECT_EQ((*warm)->DistinctCount({c}), (*fresh)->DistinctCount({c}))
        << "column " << c;
    EXPECT_EQ((*warm)->ColumnHasNull(c), (*fresh)->ColumnHasNull(c))
        << "column " << c;
    auto warm_set = (*warm)->DictionarySet(c);
    auto fresh_set = (*fresh)->DictionarySet(c);
    ASSERT_NE(warm_set, nullptr);
    ASSERT_NE(fresh_set, nullptr);
    EXPECT_EQ(*warm_set, *fresh_set) << "column " << c;
    auto warm_part = (*warm)->Partition({c}, NullPolicy::kSkipNullRows);
    auto fresh_part = (*fresh)->Partition({c}, NullPolicy::kSkipNullRows);
    EXPECT_EQ(warm_part->num_groups(), fresh_part->num_groups())
        << "column " << c;
  }
  if (columns >= 2) {
    EXPECT_EQ((*warm)->DistinctCount({0, 1}), (*fresh)->DistinctCount({0, 1}));
    EXPECT_EQ((*warm)->FdHolds({0}, {1}), (*fresh)->FdHolds({0}, {1}));
    EXPECT_EQ((*warm)->FdHolds({1}, {0}), (*fresh)->FdHolds({1}, {0}));
    EXPECT_EQ((*warm)->FdError({1}, {0}), (*fresh)->FdError({1}, {0}));
    auto warm_proj = (*warm)->DistinctProjection({0, 1});
    auto fresh_proj = (*fresh)->DistinctProjection({0, 1});
    ASSERT_NE(warm_proj, nullptr);
    ASSERT_NE(fresh_proj, nullptr);
    EXPECT_EQ(*warm_proj, *fresh_proj);
  }
}

TEST(TableMutationTest, AppendDeltaMatchesColdBuild) {
  Table table = MakeTable("R", 1, 200);
  // Warm the cache, then append a batch: the appended cells extend the
  // columns in place, with no re-encode.
  auto before = table.query_cache();
  ASSERT_TRUE(before.ok());
  for (int i = 0; i < 40; ++i) {
    // Duplicated labels so the appended suffix extends dictionaries both
    // with fresh and with already-seen codes.
    table.InsertUnchecked(
        {Value::Int(1000 + i), Value::Text("row-" + std::to_string(i % 7))});
  }
  auto after = table.query_cache();
  ASSERT_TRUE(after.ok());
  EXPECT_NE(before->get(), after->get());
  EXPECT_EQ((*after)->encoded().num_rows(), 240u);
  ExpectCacheMatchesColdBuild(table);
}

TEST(TableMutationTest, UpdateRowsRewritesMatchingRowsOnly) {
  Table table = MakeTable("R", 1, 100);
  ASSERT_TRUE(table.query_cache().ok());

  size_t label_col = 1;
  auto updated =
      table.UpdateRows({label_col}, {Value::Text("flagged")}, IdAtMost(10));
  ASSERT_TRUE(updated.ok()) << updated.status().ToString();
  EXPECT_EQ(*updated, 10u);

  size_t flagged = 0;
  for (const ValueVector& row : table.rows()) {
    if (row[1].as_text() == "flagged") ++flagged;
  }
  EXPECT_EQ(flagged, 10u);
  ExpectCacheMatchesColdBuild(table);
}

TEST(TableMutationTest, UpdateMatchingNothingLeavesCacheShared) {
  Table table = MakeTable("R", 1, 50);
  auto before = table.query_cache();
  ASSERT_TRUE(before.ok());

  auto updated = table.UpdateRows(
      {1}, {Value::Text("never")},
      Where(0, [](const Value& v) { return v.as_int() > 1'000'000; }));
  ASSERT_TRUE(updated.ok());
  EXPECT_EQ(*updated, 0u);

  auto after = table.query_cache();
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(before->get(), after->get());  // untouched, not rebuilt
}

TEST(TableMutationTest, DeleteRowsIsStructural) {
  Table table = MakeTable("R", 1, 120);
  ASSERT_TRUE(table.query_cache().ok());

  auto deleted = table.DeleteRows(
      Where(0, [](const Value& v) { return v.as_int() % 3 == 0; }));
  ASSERT_TRUE(deleted.ok()) << deleted.status().ToString();
  EXPECT_EQ(*deleted, 40u);
  EXPECT_EQ(table.rows().size(), 80u);
  for (const ValueVector& row : table.rows()) {
    EXPECT_NE(row[0].as_int() % 3, 0);
  }
  ExpectCacheMatchesColdBuild(table);
}

TEST(TableMutationTest, UpdateValidatesTypesAndNotNullUpFront) {
  RelationSchema schema("R");
  ASSERT_TRUE(schema.AddAttribute("id", DataType::kInt64).ok());
  ASSERT_TRUE(schema.AddAttribute("name", DataType::kString).ok());
  ASSERT_TRUE(schema.DeclareNotNull("name").ok());
  Table table(schema);
  table.InsertUnchecked({Value::Int(1), Value::Text("a")});
  const auto all = Where(0, [](const Value&) { return true; });

  // NULL into a not-null attribute fails before any row changes.
  auto bad_null = table.UpdateRows({1}, {Value::Null()}, all);
  EXPECT_FALSE(bad_null.ok());
  EXPECT_EQ(table.row(0)[1].as_text(), "a");

  // Type mismatch fails the same way.
  auto bad_type = table.UpdateRows({0}, {Value::Text("oops")}, all);
  EXPECT_FALSE(bad_type.ok());
  EXPECT_EQ(table.row(0)[0].as_int(), 1);
}

// Satellite regression: two sessions intern the same extension; mutating
// one must copy-on-write detach, never rewrite the canonical columns the
// other session still reads.
TEST(TableMutationTest, MutatingInternedTableDetachesFromRegistry) {
  ExtensionRegistry registry;
  Table first = MakeTable("R", 1, 60);
  EXPECT_FALSE(registry.Intern(&first));  // canonical copy

  Table second = MakeTable("R", 1, 60);
  EXPECT_TRUE(registry.Intern(&second));  // adopts shared columns
  const EncodedColumn* canonical_labels = &first.column(1);
  ASSERT_EQ(&second.column(1), canonical_labels);

  auto updated = second.UpdateRows(
      {1}, {Value::Text("mutated")},
      Where(0, [](const Value& v) { return v.as_int() == 1; }));
  ASSERT_TRUE(updated.ok()) << updated.status().ToString();
  EXPECT_EQ(*updated, 1u);

  // The mutator got a fresh column; the canonical extension is untouched.
  EXPECT_NE(&second.column(1), canonical_labels);
  EXPECT_EQ(&first.column(1), canonical_labels);
  EXPECT_EQ(first.row(0)[1].as_text(), "row-0");
  EXPECT_EQ(second.row(0)[1].as_text(), "mutated");

  // A third session interning the original content still hits the
  // registry's (unchanged) canonical entry.
  Table third = MakeTable("R", 1, 60);
  EXPECT_TRUE(registry.Intern(&third));
  EXPECT_EQ(&third.column(1), canonical_labels);

  // And both diverged extensions keep answering correctly.
  ExpectCacheMatchesColdBuild(first);
  ExpectCacheMatchesColdBuild(second);
}

// A shared extension is copied column by column: an UPDATE copies only the
// columns it assigns, and every other column stays shared.
TEST(TableMutationTest, UpdateCopiesOnlyRewrittenSharedColumns) {
  ExtensionRegistry registry;
  Table first = MakeTable("R", 1, 30);
  registry.Intern(&first);
  Table second = MakeTable("R", 1, 30);
  registry.Intern(&second);
  ASSERT_EQ(&second.column(0), &first.column(0));
  ASSERT_EQ(&second.column(1), &first.column(1));

  auto updated =
      second.UpdateRows({1}, {Value::Text("x")}, IdAtMost(5));
  ASSERT_TRUE(updated.ok()) << updated.status().ToString();
  EXPECT_EQ(&second.column(0), &first.column(0));  // still shared
  EXPECT_NE(&second.column(1), &first.column(1));  // copied, then rewritten
  ASSERT_EQ(second.num_rows(), first.num_rows());
  EXPECT_EQ(second.row(7), first.row(7));
  EXPECT_EQ(second.row(0)[1], Value::Text("x"));
}

// An UPDATE keeps every memo over columns it did not assign, shared.
TEST(TableMutationTest, UpdateCarriesUntouchedColumnMemos) {
  ScopedSketchGate sketches_on(true);
  Table table = MakeTable("R", 1, 80);
  auto cache = table.query_cache();
  ASSERT_TRUE(cache.ok());
  auto id_partition = (*cache)->Partition({0}, NullPolicy::kSkipNullRows);
  auto id_sketch = (*cache)->ColumnSketchFor(0);
  ASSERT_NE((*cache)->ColumnSketchFor(1), nullptr);
  const EncodedColumn* ids = &table.column(0);

  auto updated = table.UpdateRows({1}, {Value::Text("x")}, IdAtMost(9));
  ASSERT_TRUE(updated.ok()) << updated.status().ToString();

  auto after = table.query_cache();
  ASSERT_TRUE(after.ok());
  EXPECT_NE(after->get(), cache->get());
  EXPECT_EQ(&table.column(0), ids);  // untouched column not copied
  EXPECT_EQ((*after)->Partition({0}, NullPolicy::kSkipNullRows), id_partition);
  EXPECT_EQ((*after)->MaybeColumnSketch(0), id_sketch);
  EXPECT_EQ((*after)->MaybeColumnSketch(1), nullptr);  // rewritten
  ExpectCacheMatchesColdBuild(table);
}

// Satellite regression: mutation must also drop memoized sketches — a
// stale Bloom/HLL surviving a mutation could steer discovery into wrong
// prunes. Crosschecked by running the sketch-assisted answers against a
// cold build after the mutation, with the sketch gate forced on.
TEST(TableMutationTest, SketchesRebuildAfterMutation) {
  ScopedSketchGate sketches_on(true);
  Table table = MakeTable("R", 1, 150);
  auto cache = table.query_cache();
  ASSERT_TRUE(cache.ok());
  auto before_sketch = (*cache)->ColumnSketchFor(0);
  ASSERT_NE(before_sketch, nullptr);
  ASSERT_NE((*cache)->ProjectionSketchFor({0, 1}), nullptr);

  // Rewrite ids into a narrow band: the old sketch's cardinality estimate
  // and membership bits are now wrong for most of the column.
  auto updated = table.UpdateRows(
      {0}, {Value::Int(7)},
      Where(0, [](const Value& v) { return v.as_int() > 10; }));
  ASSERT_TRUE(updated.ok());
  EXPECT_EQ(*updated, 140u);

  auto after = table.query_cache();
  ASSERT_TRUE(after.ok());
  // The memoized sketch did not carry over (updated column).
  EXPECT_EQ((*after)->MaybeColumnSketch(0), nullptr);

  Table cold = ColdCopy(table);
  auto cold_cache = cold.query_cache();
  ASSERT_TRUE(cold_cache.ok());
  auto warm_sketch = (*after)->ColumnSketchFor(0);
  auto cold_sketch = (*cold_cache)->ColumnSketchFor(0);
  ASSERT_NE(warm_sketch, nullptr);
  ASSERT_NE(cold_sketch, nullptr);
  // Sketches are deterministic over the same distinct values: identical
  // estimates prove the rebuild saw the mutated extension.
  EXPECT_EQ(warm_sketch->hll.Estimate(), cold_sketch->hll.Estimate());
  EXPECT_EQ((*after)->DistinctCount({0}), (*cold_cache)->DistinctCount({0}));
  ExpectCacheMatchesColdBuild(table);
}

// Append-only batches keep sketches only for untouched columns.
TEST(TableMutationTest, AppendKeepsUntouchedMemosDropsTouchedSketches) {
  ScopedSketchGate sketches_on(true);
  Table table = MakeTable("R", 1, 100);
  auto cache = table.query_cache();
  ASSERT_TRUE(cache.ok());
  ASSERT_NE((*cache)->ColumnSketchFor(1), nullptr);

  table.InsertUnchecked({Value::Int(500), Value::Text("brand-new")});
  auto after = table.query_cache();
  ASSERT_TRUE(after.ok());
  EXPECT_NE(after->get(), cache->get());

  // Appends extend every column, so per-column sketches must not carry
  // over stale membership bits.
  auto sketch = (*after)->MaybeColumnSketch(1);
  if (sketch != nullptr) {
    // If an implementation chooses to delta-merge instead of drop, the
    // merged sketch must see the appended value.
    EXPECT_TRUE(sketch->bloom.MayContain(SketchHash(Value::Text("brand-new"))));
  }
  ExpectCacheMatchesColdBuild(table);
}

// ---------------------------------------------------------------------------
// The canonical-encoding invariant under random mutations: after every
// Insert / UpdateRows / DeleteRows / DropAttribute step, each column equals
// the column a cold load of the same rows builds — codes, dictionary,
// has_null and typed — and so does every answer discovery reads.

class TableMutationCanonicalTest : public ::testing::TestWithParam<bool> {
 protected:
  void TearDown() override {
    if (!dir_.empty()) std::filesystem::remove_all(dir_);
  }

  // Swaps `table`'s extension for a page-backed copy of itself.
  void MakePaged(Table* table) {
    const int seed = ::testing::UnitTest::GetInstance()->random_seed();
    dir_ = std::filesystem::temp_directory_path() /
           ("dbre_canonical_" + std::to_string(seed));
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    const std::string path = (dir_ / "t.snap").string();
    ASSERT_TRUE(store::WriteSnapshot(*table, path).ok());
    auto source = pagestore::OpenSnapshotPaged(
        path, std::make_shared<pagestore::BufferPool>(1));
    ASSERT_TRUE(source.ok()) << source.status().ToString();
    ASSERT_TRUE(table->AdoptPagedExtension(*source).ok());
  }

  std::filesystem::path dir_;
};

// A cell of `type` from a small domain (duplicates and NULLs are common;
// 0.0 and -0.0 exercise the folded double keys).
Value RandomCell(std::mt19937_64& rng, DataType type) {
  if (rng() % 6 == 0) return Value::Null();
  switch (type) {
    case DataType::kInt64:
      return Value::Int(static_cast<int64_t>(rng() % 9));
    case DataType::kDouble: {
      const double values[] = {0.0, -0.0, 1.5, 2.25, -7.0};
      return Value::Real(values[rng() % 5]);
    }
    case DataType::kBool:
      return Value::Boolean(rng() % 2 == 0);
    case DataType::kString:
      return Value::Text("s" + std::to_string(rng() % 7));
  }
  return Value::Null();
}

void ExpectCanonical(const Table& table, int step) {
  SCOPED_TRACE("step " + std::to_string(step));
  Table fresh = ColdCopy(table);
  ASSERT_EQ(fresh.num_rows(), table.num_rows());
  const size_t arity = table.schema().arity();
  for (size_t c = 0; c < arity; ++c) {
    const EncodedColumn& ours = table.column(c);
    const EncodedColumn& cold = fresh.column(c);
    if (ours.paged()) continue;  // the snapshot itself; answers below
    EXPECT_EQ(ours.codes, cold.codes) << "column " << c;
    EXPECT_EQ(ours.dictionary, cold.dictionary) << "column " << c;
    EXPECT_EQ(ours.has_null, cold.has_null) << "column " << c;
    EXPECT_EQ(ours.typed, cold.typed) << "column " << c;
  }
  auto warm = table.query_cache();
  auto fresh_cache = fresh.query_cache();
  ASSERT_TRUE(warm.ok() && fresh_cache.ok());
  for (size_t c = 0; c < arity; ++c) {
    EXPECT_EQ((*warm)->DistinctCount({c}), (*fresh_cache)->DistinctCount({c}));
    auto ours = (*warm)->Partition({c}, NullPolicy::kNullAsValue);
    auto cold = (*fresh_cache)->Partition({c}, NullPolicy::kNullAsValue);
    EXPECT_EQ(ours->group_of_row, cold->group_of_row) << "column " << c;
    EXPECT_EQ(ours->representative, cold->representative) << "column " << c;
    for (size_t d = 0; d < arity; ++d) {
      if (d == c) continue;
      EXPECT_EQ((*warm)->DistinctCount({c, d}),
                (*fresh_cache)->DistinctCount({c, d}));
      EXPECT_EQ((*warm)->FdHolds({c}, {d}), (*fresh_cache)->FdHolds({c}, {d}))
          << c << " -> " << d;
    }
  }
}

TEST_P(TableMutationCanonicalTest, SurvivesRandomMutations) {
  std::mt19937_64 rng(20240611);
  RelationSchema schema("M");
  ASSERT_TRUE(schema.AddAttribute("k", DataType::kInt64).ok());
  ASSERT_TRUE(schema.AddAttribute("s", DataType::kString).ok());
  ASSERT_TRUE(schema.AddAttribute("x", DataType::kDouble).ok());
  ASSERT_TRUE(schema.AddAttribute("b", DataType::kBool).ok());
  ASSERT_TRUE(schema.AddAttribute("t", DataType::kString).ok());
  Table table(schema);
  auto random_row = [&rng](const Table& t) {
    ValueVector row;
    for (const Attribute& attribute : t.schema().attributes()) {
      row.push_back(RandomCell(rng, attribute.type));
    }
    return row;
  };
  for (int i = 0; i < 60; ++i) table.InsertUnchecked(random_row(table));
  if (GetParam()) {
    MakePaged(&table);
    ASSERT_TRUE(table.is_paged());
  }
  ExpectCanonical(table, 0);

  int drops = 0;
  for (int step = 1; step <= 120; ++step) {
    const size_t arity = table.schema().arity();
    const size_t target = rng() % arity;
    const size_t probe = rng() % arity;
    const Value probe_value =
        RandomCell(rng, table.schema().attributes()[probe].type);
    // Matches the probe value, or NULL cells when the probe value is NULL.
    const RowPredicate predicate =
        Where(probe, [probe_value](const Value& cell) {
          return probe_value.is_null() ? cell.is_null() : cell == probe_value;
        });
    switch (rng() % 7) {
      case 0:
      case 1: {
        const int rows = 1 + static_cast<int>(rng() % 6);
        for (int i = 0; i < rows; ++i) table.InsertUnchecked(random_row(table));
        break;
      }
      case 2: {
        // An off-type cell clears `typed`; a later UPDATE or DELETE that
        // removes it must restore it.
        ValueVector row = random_row(table);
        row[target] = table.schema().attributes()[target].type ==
                              DataType::kString
                          ? Value::Int(42)
                          : Value::Text("off-type");
        table.InsertUnchecked(std::move(row));
        break;
      }
      case 3:
      case 4: {
        const bool was_paged = table.is_paged();
        std::vector<const EncodedColumn*> before;
        for (size_t c = 0; c < arity; ++c) before.push_back(&table.column(c));
        const size_t untouched = (target + 1) % arity;
        auto cache = table.query_cache();
        ASSERT_TRUE(cache.ok());
        auto memo =
            (*cache)->Partition({untouched}, NullPolicy::kSkipNullRows);
        const Value value =
            RandomCell(rng, table.schema().attributes()[target].type);
        auto updated = table.UpdateRows({target}, {value}, predicate);
        ASSERT_TRUE(updated.ok()) << updated.status().ToString();
        if (*updated == 0) break;
        auto after = table.query_cache();
        ASSERT_TRUE(after.ok());
        EXPECT_EQ((*after)->Partition({untouched}, NullPolicy::kSkipNullRows),
                  memo)
            << "untouched-column memo not carried over at step " << step;
        if (!was_paged) {
          for (size_t c = 0; c < arity; ++c) {
            if (c == target) continue;
            EXPECT_EQ(&table.column(c), before[c])
                << "untouched column " << c << " copied at step " << step;
          }
        }
        break;
      }
      case 5: {
        ASSERT_TRUE(table.DeleteRows(predicate).ok());
        break;
      }
      case 6: {
        if (drops >= 2 || arity <= 3) break;
        ++drops;
        ASSERT_TRUE(
            table.DropAttribute(table.schema().attributes()[target].name)
                .ok());
        break;
      }
    }
    ExpectCanonical(table, step);
    if (HasFatalFailure() || HasNonfatalFailure()) return;
  }
  EXPECT_EQ(drops, 2);
}

INSTANTIATE_TEST_SUITE_P(Residency, TableMutationCanonicalTest,
                         ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "Paged" : "Resident";
                         });

}  // namespace
}  // namespace dbre
