// Codec tests: varint, delta, bit packing, dictionary, RLE, and the
// encoding chooser used for merged base pages (Section 4.1.1 Step 3 /
// Section 4.3).

#include <gtest/gtest.h>

#include <vector>

#include "common/random.h"
#include "storage/compressed_column.h"
#include "storage/compression/bitpack.h"
#include "storage/compression/delta.h"
#include "storage/compression/dictionary.h"
#include "storage/compression/rle.h"
#include "storage/compression/varint.h"

namespace lstore {
namespace {

TEST(VarintTest, RoundTripBoundaries) {
  std::vector<uint64_t> values = {0,    1,    127,  128,   16383, 16384,
                                  1u << 21, 1ull << 42, UINT64_MAX};
  std::string buf;
  for (uint64_t v : values) PutVarint64(&buf, v);
  size_t pos = 0;
  for (uint64_t v : values) {
    uint64_t got;
    ASSERT_TRUE(GetVarint64(buf, &pos, &got));
    EXPECT_EQ(got, v);
  }
  EXPECT_EQ(pos, buf.size());
}

TEST(VarintTest, LengthMatchesEncoding) {
  for (uint64_t v : {0ull, 127ull, 128ull, 300ull, (1ull << 56) + 5}) {
    std::string buf;
    PutVarint64(&buf, v);
    EXPECT_EQ(buf.size(), VarintLength(v));
  }
}

TEST(VarintTest, TruncatedInputFails) {
  std::string buf;
  PutVarint64(&buf, 1ull << 40);
  buf.pop_back();
  size_t pos = 0;
  uint64_t v;
  EXPECT_FALSE(GetVarint64(buf, &pos, &v));
}

TEST(DeltaTest, RoundTripMonotoneSequence) {
  std::vector<Value> vals;
  for (uint64_t i = 0; i < 1000; ++i) vals.push_back(1000000 + i * 3);
  std::string buf;
  DeltaEncode(vals, &buf);
  // Monotone small deltas: ~1 byte each (plus header + first value).
  EXPECT_LT(buf.size(), vals.size() * 2 + 16);
  std::vector<Value> out;
  ASSERT_TRUE(DeltaDecode(buf, &out));
  EXPECT_EQ(out, vals);
}

TEST(DeltaTest, RoundTripRandomIncludingWraparound) {
  Random rng(11);
  std::vector<Value> vals;
  for (int i = 0; i < 500; ++i) vals.push_back(rng.Next());
  vals.push_back(0);
  vals.push_back(UINT64_MAX);
  std::string buf;
  DeltaEncode(vals, &buf);
  std::vector<Value> out;
  ASSERT_TRUE(DeltaDecode(buf, &out));
  EXPECT_EQ(out, vals);
}

TEST(DeltaTest, EncodedSizeMatches) {
  std::vector<Value> vals = {5, 10, 7, 7, 100000};
  std::string buf;
  DeltaEncode(vals, &buf);
  EXPECT_EQ(buf.size(), DeltaEncodedSize(vals));
}

TEST(BitPackTest, WidthZeroMeansAllZeros) {
  BitPackedArray arr(std::vector<uint64_t>(10, 0), 0);
  EXPECT_EQ(arr.size(), 10u);
  for (size_t i = 0; i < 10; ++i) EXPECT_EQ(arr.Get(i), 0u);
}

TEST(BitPackTest, CrossWordBoundaries) {
  // width 13 guarantees values straddle 64-bit word boundaries.
  std::vector<uint64_t> vals;
  for (uint64_t i = 0; i < 200; ++i) vals.push_back(i * 37 % 8192);
  BitPackedArray arr(vals, 13);
  for (size_t i = 0; i < vals.size(); ++i) EXPECT_EQ(arr.Get(i), vals[i]);
}

TEST(BitPackTest, FullWidth64) {
  std::vector<uint64_t> vals = {UINT64_MAX, 0, 0x123456789abcdef0ull};
  BitPackedArray arr(vals, 64);
  for (size_t i = 0; i < vals.size(); ++i) EXPECT_EQ(arr.Get(i), vals[i]);
}

TEST(DictionaryTest, LowCardinalityCompresses) {
  std::vector<Value> vals;
  for (int i = 0; i < 4096; ++i) vals.push_back(1000 + i % 4);
  DictionaryColumn dict(vals);
  EXPECT_EQ(dict.dictionary_size(), 4u);
  EXPECT_LT(dict.byte_size(), vals.size() * sizeof(Value) / 8);
  for (size_t i = 0; i < vals.size(); ++i) EXPECT_EQ(dict.Get(i), vals[i]);
}

TEST(RleTest, RunsCollapse) {
  std::vector<Value> vals;
  for (int run = 0; run < 8; ++run) {
    for (int i = 0; i < 100; ++i) vals.push_back(run * 11);
  }
  RleColumn rle(vals);
  EXPECT_EQ(rle.run_count(), 8u);
  for (size_t i = 0; i < vals.size(); ++i) EXPECT_EQ(rle.Get(i), vals[i]);
}

TEST(RleTest, SingleElementAndAlternating) {
  RleColumn one(std::vector<Value>{7});
  EXPECT_EQ(one.Get(0), 7u);
  std::vector<Value> alt;
  for (int i = 0; i < 50; ++i) alt.push_back(i % 2);
  RleColumn rle(alt);
  EXPECT_EQ(rle.run_count(), 50u);
  for (size_t i = 0; i < alt.size(); ++i) EXPECT_EQ(rle.Get(i), alt[i]);
}

TEST(CompressedColumnTest, ChoosesRleForConstantColumn) {
  std::vector<Value> vals(4096, 42);
  auto col = CompressedColumn::Build(vals, true);
  EXPECT_EQ(col->encoding(), CompressedColumn::Encoding::kRle);
  EXPECT_LT(col->byte_size(), 64u);
  EXPECT_EQ(col->Get(1234), 42u);
}

TEST(CompressedColumnTest, ChoosesDictionaryForLowCardinality) {
  Random rng(5);
  std::vector<Value> vals;
  for (int i = 0; i < 4096; ++i) vals.push_back(900000 + rng.Uniform(16));
  auto col = CompressedColumn::Build(vals, true);
  EXPECT_EQ(col->encoding(), CompressedColumn::Encoding::kDictionary);
  for (size_t i = 0; i < vals.size(); ++i) EXPECT_EQ(col->Get(i), vals[i]);
}

TEST(CompressedColumnTest, FallsBackToPlainForRandomData) {
  Random rng(6);
  std::vector<Value> vals;
  for (int i = 0; i < 4096; ++i) vals.push_back(rng.Next());
  auto col = CompressedColumn::Build(vals, true);
  EXPECT_EQ(col->encoding(), CompressedColumn::Encoding::kPlain);
  for (size_t i = 0; i < vals.size(); ++i) EXPECT_EQ(col->Get(i), vals[i]);
}

TEST(CompressedColumnTest, CompressionDisabledKeepsPlain) {
  std::vector<Value> vals(1024, 1);
  auto col = CompressedColumn::Build(vals, false);
  EXPECT_EQ(col->encoding(), CompressedColumn::Encoding::kPlain);
}

TEST(CompressedColumnTest, DictionaryDecisionAtDistinctThreshold) {
  // Dictionary coding is considered only while the page holds at most
  // n/4 + 1 distinct values. Cycling through d values keeps every run
  // length 1, so RLE never wins and the distinct count alone decides.
  constexpr size_t kN = 4096;
  constexpr size_t kLimit = kN / 4 + 1;
  using Enc = CompressedColumn::Encoding;
  auto cycle = [](size_t d, Value base) {
    std::vector<Value> vals(kN);
    for (size_t i = 0; i < kN; ++i) vals[i] = base + (i * 7919) % d;
    return vals;
  };
  struct Case {
    size_t distinct;
    Value base;
    Enc expected;
  };
  for (const Case& c : {Case{kN, 1000, Enc::kPlain},
                        Case{kLimit, 1000, Enc::kDictionary},
                        Case{kLimit + 1, 1000, Enc::kPlain},
                        // kNull is a value like any other.
                        Case{kLimit, kNull - kLimit + 1, Enc::kDictionary},
                        Case{kLimit + 1, kNull - kLimit, Enc::kPlain}}) {
    std::vector<Value> vals = cycle(c.distinct, c.base);
    auto col = CompressedColumn::Build(vals, true);
    EXPECT_EQ(col->encoding(), c.expected) << c.distinct << " distinct";
    for (size_t i = 0; i < kN; ++i) ASSERT_EQ(col->Get(i), vals[i]);
  }
  // Long runs: RLE wins at any cardinality, including all-distinct
  // runs of length 4 (runs * 16 bytes == plain / 2).
  for (size_t run : {size_t{4}, size_t{64}, kN}) {
    std::vector<Value> vals(kN);
    for (size_t i = 0; i < kN; ++i) vals[i] = 5 + i / run;
    auto col = CompressedColumn::Build(vals, true);
    EXPECT_EQ(col->encoding(), Enc::kRle) << "run " << run;
    for (size_t i = 0; i < kN; ++i) ASSERT_EQ(col->Get(i), vals[i]);
  }
  // Runs of 3 are too short for RLE, and n/3 distinct values too many
  // for the dictionary.
  std::vector<Value> vals(kN);
  for (size_t i = 0; i < kN; ++i) vals[i] = 5 + i / 3;
  EXPECT_EQ(CompressedColumn::Build(vals, true)->encoding(), Enc::kPlain);
}

TEST(CompressedColumnTest, BuildAsReproducesBuild) {
  // A reload rebuilds in the remembered encoding; the column must be
  // the one Build produced for the same values.
  Random rng(11);
  for (int shape = 0; shape < 3; ++shape) {
    std::vector<Value> vals;
    for (int i = 0; i < 4096; ++i) {
      vals.push_back(shape == 0   ? Value(i / 512)
                     : shape == 1 ? 900000 + rng.Uniform(16)
                                  : rng.Next());
    }
    auto built = CompressedColumn::Build(vals, true);
    auto again = CompressedColumn::BuildAs(vals, built->encoding());
    EXPECT_EQ(again->encoding(), built->encoding());
    EXPECT_EQ(again->byte_size(), built->byte_size());
    for (size_t i = 0; i < vals.size(); ++i) {
      ASSERT_EQ(again->Get(i), vals[i]);
    }
  }
}

// Property sweep: every codec must round-trip across data shapes.
struct CodecCase {
  const char* name;
  int shape;  // 0=constant 1=monotone 2=low-card 3=random 4=zipf-ish
  size_t n;
};

class CodecRoundTrip : public ::testing::TestWithParam<CodecCase> {
 protected:
  std::vector<Value> MakeData() const {
    const CodecCase& c = GetParam();
    Random rng(c.shape * 31 + c.n);
    std::vector<Value> vals;
    vals.reserve(c.n);
    for (size_t i = 0; i < c.n; ++i) {
      switch (c.shape) {
        case 0: vals.push_back(77); break;
        case 1: vals.push_back(5000 + i * 7); break;
        case 2: vals.push_back(rng.Uniform(9)); break;
        case 3: vals.push_back(rng.Next()); break;
        default: vals.push_back(rng.Uniform(1 + i % 100)); break;
      }
    }
    return vals;
  }
};

TEST_P(CodecRoundTrip, CompressedColumnPreservesEveryValue) {
  auto vals = MakeData();
  auto col = CompressedColumn::Build(vals, true);
  ASSERT_EQ(col->size(), vals.size());
  for (size_t i = 0; i < vals.size(); ++i) {
    ASSERT_EQ(col->Get(i), vals[i]) << "at " << i;
  }
}

TEST_P(CodecRoundTrip, DeltaPreservesEveryValue) {
  auto vals = MakeData();
  std::string buf;
  DeltaEncode(vals, &buf);
  std::vector<Value> out;
  ASSERT_TRUE(DeltaDecode(buf, &out));
  EXPECT_EQ(out, vals);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, CodecRoundTrip,
    ::testing::Values(CodecCase{"const_small", 0, 100},
                      CodecCase{"const_page", 0, 4096},
                      CodecCase{"mono_small", 1, 100},
                      CodecCase{"mono_page", 1, 4096},
                      CodecCase{"lowcard_small", 2, 100},
                      CodecCase{"lowcard_page", 2, 4096},
                      CodecCase{"random_small", 3, 100},
                      CodecCase{"random_page", 3, 4096},
                      CodecCase{"zipf_small", 4, 100},
                      CodecCase{"zipf_page", 4, 4096},
                      CodecCase{"empty", 3, 0}, CodecCase{"one", 3, 1}),
    [](const ::testing::TestParamInfo<CodecCase>& info) {
      return info.param.name;
    });

}  // namespace
}  // namespace lstore
