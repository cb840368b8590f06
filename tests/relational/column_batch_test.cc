// The batch kernels are the query cache's and the algebra layer's inner
// loops; each is pinned against a scalar reference over randomized inputs,
// including the batch-boundary sizes (kBatchSize ± 1).
#include "relational/column_batch.h"

#include <random>

#include <gtest/gtest.h>

namespace dbre {
namespace {

TEST(BatchIteratorTest, CoversBoundarySizes) {
  for (size_t rows : {size_t{0}, size_t{1}, batch::kBatchSize - 1,
                      batch::kBatchSize, batch::kBatchSize + 1,
                      3 * batch::kBatchSize + 7}) {
    batch::BatchIterator it(rows);
    size_t start = 0, count = 0, total = 0, batches = 0;
    size_t expected_start = 0;
    while (it.Next(&start, &count)) {
      EXPECT_EQ(start, expected_start);
      EXPECT_GT(count, 0u);
      EXPECT_LE(count, batch::kBatchSize);
      expected_start += count;
      total += count;
      ++batches;
    }
    EXPECT_EQ(total, rows);
    EXPECT_EQ(batches, (rows + batch::kBatchSize - 1) / batch::kBatchSize);
  }
}

TEST(ProbeKernelsTest, MatchScalarMembershipUnderRandomKeys) {
  std::mt19937_64 rng(42);
  FlatSet64 set(4000);
  BloomFilter bloom(4000);
  std::vector<uint64_t> member;
  for (int i = 0; i < 4000; ++i) {
    uint64_t key = MixHash64(rng());
    member.push_back(key);
    set.Insert(key);
    bloom.AddHash(key);
  }
  // Mixed probe stream: half members, half strangers; sizes straddle the
  // prefetch lookahead and the batch size.
  for (size_t n : {size_t{1}, size_t{15}, size_t{16}, size_t{17},
                   batch::kBatchSize}) {
    std::vector<uint64_t> keys(n);
    for (size_t i = 0; i < n; ++i) {
      keys[i] = i % 2 == 0 ? member[rng() % member.size()] : MixHash64(rng());
    }
    std::vector<uint8_t> hit(n, 2);
    size_t hits = batch::ProbeSet(set, keys.data(), n, hit.data());
    size_t expected_hits = 0;
    for (size_t i = 0; i < n; ++i) {
      bool expected = set.Contains(keys[i]);
      EXPECT_EQ(hit[i] != 0, expected);
      expected_hits += expected ? 1 : 0;
    }
    EXPECT_EQ(hits, expected_hits);

    std::vector<uint8_t> bloom_hit(n, 2);
    size_t bloom_hits =
        batch::ProbeBloom(bloom, keys.data(), n, bloom_hit.data());
    size_t expected_bloom = 0;
    for (size_t i = 0; i < n; ++i) {
      bool expected = bloom.MayContain(keys[i]);
      EXPECT_EQ(bloom_hit[i] != 0, expected);
      expected_bloom += expected ? 1 : 0;
      // Zero false negatives through the batched path too.
      if (set.Contains(keys[i])) EXPECT_NE(bloom_hit[i], 0);
    }
    EXPECT_EQ(bloom_hits, expected_bloom);
  }
}

}  // namespace
}  // namespace dbre
