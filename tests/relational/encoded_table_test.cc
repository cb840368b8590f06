// The dictionary-encoded engine must be indistinguishable from the naive
// row-at-a-time reference: unit tests pin the encoding itself, and
// property-style crosschecks drive both families over generated workloads
// with NULLs, duplicates and composite keys.
#include "relational/encoded_table.h"

#include <random>

#include <gtest/gtest.h>

#include "relational/algebra.h"
#include "relational/database.h"
#include "relational/query_cache.h"
#include "relational/table.h"

namespace dbre {
namespace {

Table MakeTable(const std::vector<ValueVector>& rows) {
  RelationSchema schema("T");
  EXPECT_TRUE(schema.AddAttribute("a", DataType::kInt64).ok());
  EXPECT_TRUE(schema.AddAttribute("b", DataType::kString).ok());
  EXPECT_TRUE(schema.AddAttribute("c", DataType::kInt64).ok());
  Table table(std::move(schema));
  for (const ValueVector& row : rows) table.InsertUnchecked(row);
  return table;
}

TEST(EncodedTableTest, CodesAreDenseAndNullAware) {
  Table table = MakeTable({
      {Value::Int(7), Value::Text("x"), Value::Null()},
      {Value::Int(7), Value::Text("y"), Value::Int(1)},
      {Value::Int(9), Value::Text("x"), Value::Int(1)},
  });
  auto cache = table.query_cache();
  ASSERT_TRUE(cache.ok());
  const EncodedTable& encoded = (*cache)->encoded();
  EXPECT_EQ(encoded.num_rows(), 3u);
  EXPECT_EQ(encoded.num_columns(), 3u);
  // Column a: 7 → 0 (first appearance), 9 → 1.
  EXPECT_EQ(encoded.codes(0), (std::vector<uint32_t>{0, 0, 1}));
  EXPECT_EQ(encoded.dict_size(0), 2u);
  EXPECT_FALSE(encoded.has_null(0));
  // Column b: "x" → 0, "y" → 1.
  EXPECT_EQ(encoded.codes(1), (std::vector<uint32_t>{0, 1, 0}));
  // Column c: NULL sentinel, then 1 → 0.
  EXPECT_EQ(encoded.codes(2)[0], EncodedTable::kNullCode);
  EXPECT_EQ(encoded.codes(2)[1], 0u);
  EXPECT_TRUE(encoded.has_null(2));
  // The query cache reads the table's own columns; nothing is copied.
  EXPECT_EQ(encoded.codes(1).data(), table.column(1).codes.data());
  // Decoding round-trips.
  EXPECT_EQ(encoded.Decode(0, 1), Value::Int(9));
  EncodedTable::RowReader reader = encoded.row_reader({2, 0});
  ValueVector projected;
  reader.Read(0, &projected);
  EXPECT_EQ(projected, (ValueVector{Value::Null(), Value::Int(7)}));
}

TEST(EncodedTableTest, ReencodingIsDeterministic) {
  Table table = MakeTable({
      {Value::Int(1), Value::Text("p"), Value::Int(3)},
      {Value::Int(2), Value::Text("q"), Value::Null()},
      {Value::Int(1), Value::Text("p"), Value::Int(3)},
  });
  // Re-encoding the decoded rows reproduces every column byte for byte.
  Table again = MakeTable(table.rows());
  for (size_t c = 0; c < table.schema().arity(); ++c) {
    EXPECT_EQ(table.column(c).codes, again.column(c).codes);
    EXPECT_EQ(table.column(c).dictionary, again.column(c).dictionary);
  }
}

TEST(QueryCacheTest, PartitionGroupsMatchSemantics) {
  Table table = MakeTable({
      {Value::Int(1), Value::Text("x"), Value::Int(1)},
      {Value::Int(1), Value::Text("y"), Value::Int(2)},
      {Value::Null(), Value::Text("z"), Value::Int(3)},
      {Value::Int(2), Value::Text("x"), Value::Int(4)},
  });
  auto cache = table.query_cache();
  ASSERT_TRUE(cache.ok());
  auto skip = (*cache)->Partition({0}, NullPolicy::kSkipNullRows);
  EXPECT_EQ(skip->num_groups(), 2u);
  EXPECT_EQ(skip->included_rows, 3u);
  EXPECT_EQ(skip->group_of_row[2], CodePartition::kSkipped);
  auto keep = (*cache)->Partition({0}, NullPolicy::kNullAsValue);
  EXPECT_EQ(keep->num_groups(), 3u);
  EXPECT_EQ(keep->included_rows, 4u);
  // Memoization returns the identical object.
  EXPECT_EQ(skip.get(),
            (*cache)->Partition({0}, NullPolicy::kSkipNullRows).get());
}

TEST(QueryCacheTest, MutationDropsTheCache) {
  Table table = MakeTable({{Value::Int(1), Value::Text("x"), Value::Int(1)}});
  auto count = table.DistinctCount(AttributeSet{"a"});
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, 1u);
  table.InsertUnchecked({Value::Int(2), Value::Text("y"), Value::Int(2)});
  count = table.DistinctCount(AttributeSet{"a"});
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, 2u);
  ASSERT_TRUE(table.Insert({Value::Int(3), Value::Text("z"), Value::Int(3)})
                  .ok());
  count = table.DistinctCount(AttributeSet{"a"});
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, 3u);
  ASSERT_TRUE(table.DropAttribute("a").ok());
  auto b_count = table.DistinctCount(AttributeSet{"b"});
  ASSERT_TRUE(b_count.ok());
  EXPECT_EQ(*b_count, 3u);
}

TEST(QueryCacheTest, CopiedTableDetachesOnMutation) {
  Table table = MakeTable({{Value::Int(1), Value::Text("x"), Value::Int(1)}});
  ASSERT_TRUE(table.DistinctCount(AttributeSet{"a"}).ok());  // warm cache
  Table copy = table;
  copy.InsertUnchecked({Value::Int(2), Value::Text("y"), Value::Int(2)});
  auto original = table.DistinctCount(AttributeSet{"a"});
  auto mutated = copy.DistinctCount(AttributeSet{"a"});
  ASSERT_TRUE(original.ok() && mutated.ok());
  EXPECT_EQ(*original, 1u);
  EXPECT_EQ(*mutated, 2u);
}

// ---------------------------------------------------------------------------
// Property crosschecks: encoded vs naive on random workloads.

// A random table over (int, string, int, int) with heavy duplication and a
// NULL rate, so composite groups, NULL sub-rows and repeated values all
// occur.
Table RandomTable(std::mt19937_64& rng, size_t rows, double null_rate) {
  RelationSchema schema("R");
  EXPECT_TRUE(schema.AddAttribute("a", DataType::kInt64).ok());
  EXPECT_TRUE(schema.AddAttribute("b", DataType::kString).ok());
  EXPECT_TRUE(schema.AddAttribute("c", DataType::kInt64).ok());
  EXPECT_TRUE(schema.AddAttribute("d", DataType::kInt64).ok());
  Table table(std::move(schema));
  auto maybe_null = [&](Value v) {
    return (rng() % 1000) < null_rate * 1000 ? Value::Null() : v;
  };
  const char* words[] = {"red", "green", "blue", "cyan"};
  for (size_t i = 0; i < rows; ++i) {
    int64_t a = static_cast<int64_t>(rng() % 7);
    table.InsertUnchecked({
        maybe_null(Value::Int(a)),
        maybe_null(Value::Text(words[rng() % 4])),
        maybe_null(Value::Int(a * 3 % 5)),  // often determined by a
        maybe_null(Value::Int(static_cast<int64_t>(rng() % 11))),
    });
  }
  return table;
}

TEST(EncodedVsNaiveTest, DistinctProjectionsAgree) {
  std::mt19937_64 rng(7);
  const std::vector<std::vector<std::string>> projections = {
      {"a"}, {"b"}, {"a", "b"}, {"b", "a"}, {"a", "b", "c"}, {"d", "c"}};
  for (int trial = 0; trial < 10; ++trial) {
    Table table = RandomTable(rng, 200, trial % 2 == 0 ? 0.0 : 0.15);
    for (const auto& attrs : projections) {
      auto fast = OrderedDistinctProjection(table, attrs);
      auto slow = naive::OrderedDistinctProjection(table, attrs);
      ASSERT_TRUE(fast.ok() && slow.ok());
      EXPECT_EQ(*fast, *slow) << "projection diverged on trial " << trial;
    }
  }
}

TEST(EncodedVsNaiveTest, FdChecksAgree) {
  std::mt19937_64 rng(11);
  const std::vector<std::pair<AttributeSet, AttributeSet>> fds = {
      {AttributeSet{"a"}, AttributeSet{"c"}},
      {AttributeSet{"a"}, AttributeSet{"d"}},
      {AttributeSet{"a", "b"}, AttributeSet{"c"}},
      {AttributeSet{"a", "b", "d"}, AttributeSet{"c"}},
      {AttributeSet{"b"}, AttributeSet{"a", "c"}},
      {AttributeSet{"d"}, AttributeSet{"b"}},
  };
  for (int trial = 0; trial < 10; ++trial) {
    Table table = RandomTable(rng, 150, trial % 2 == 0 ? 0.0 : 0.2);
    for (const auto& [lhs, rhs] : fds) {
      auto fast = FunctionalDependencyHolds(table, lhs, rhs);
      auto slow = naive::FunctionalDependencyHolds(table, lhs, rhs);
      ASSERT_TRUE(fast.ok() && slow.ok());
      EXPECT_EQ(*fast, *slow)
          << lhs.ToString() << " -> " << rhs.ToString() << " trial " << trial;
      auto fast_error = FunctionalDependencyError(table, lhs, rhs);
      auto slow_error = naive::FunctionalDependencyError(table, lhs, rhs);
      ASSERT_TRUE(fast_error.ok() && slow_error.ok());
      EXPECT_DOUBLE_EQ(*fast_error, *slow_error)
          << lhs.ToString() << " -> " << rhs.ToString() << " trial " << trial;
    }
  }
}

TEST(EncodedVsNaiveTest, JoinCountsAndInclusionsAgree) {
  std::mt19937_64 rng(13);
  for (int trial = 0; trial < 8; ++trial) {
    Database database;
    ASSERT_TRUE(
        database.AddTable(RandomTable(rng, 120, trial % 2 ? 0.1 : 0.0)).ok());
    Table second = RandomTable(rng, 80, trial % 2 ? 0.1 : 0.0);
    second.mutable_schema().set_name("S");
    ASSERT_TRUE(database.AddTable(std::move(second)).ok());

    const std::vector<EquiJoin> joins = {
        EquiJoin::Single("R", "a", "S", "a"),
        EquiJoin::Single("R", "b", "S", "b"),
        {"R", {"a", "b"}, "S", {"a", "b"}},
        {"R", {"c", "d"}, "S", {"d", "c"}},
    };
    for (const EquiJoin& join : joins) {
      auto fast = ComputeJoinCounts(database, join);
      auto slow = naive::ComputeJoinCounts(database, join);
      ASSERT_TRUE(fast.ok() && slow.ok());
      EXPECT_EQ(fast->n_left, slow->n_left);
      EXPECT_EQ(fast->n_right, slow->n_right);
      EXPECT_EQ(fast->n_join, slow->n_join);

      auto fast_inc =
          InclusionHolds(database, join.left_relation, join.left_attributes,
                         join.right_relation, join.right_attributes);
      auto slow_inc = naive::InclusionHolds(
          database, join.left_relation, join.left_attributes,
          join.right_relation, join.right_attributes);
      ASSERT_TRUE(fast_inc.ok() && slow_inc.ok());
      EXPECT_EQ(*fast_inc, *slow_inc);
    }
  }
}

TEST(EncodedVsNaiveTest, ErrorPathsMatch) {
  Table table = MakeTable({{Value::Int(1), Value::Text("x"), Value::Int(1)}});
  auto fast = OrderedDistinctProjection(table, {});
  auto slow = naive::OrderedDistinctProjection(table, {});
  EXPECT_FALSE(fast.ok());
  EXPECT_EQ(fast.status(), slow.status());
  auto fast_missing = OrderedDistinctProjection(table, {"nope"});
  auto slow_missing = naive::OrderedDistinctProjection(table, {"nope"});
  EXPECT_FALSE(fast_missing.ok());
  EXPECT_EQ(fast_missing.status(), slow_missing.status());
  auto fast_fd = FunctionalDependencyHolds(table, AttributeSet{},
                                           AttributeSet{"a"});
  EXPECT_FALSE(fast_fd.ok());
  EXPECT_EQ(fast_fd.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace dbre
