#include "storage/compressed_column.h"

#include <bit>
#include <utility>

namespace lstore {

namespace {

/// Whether `values` holds more than `limit` distinct values. A
/// fixed-capacity open-addressing set (at most half full) that stops
/// at the first value past the limit, so a high-cardinality page costs
/// about limit probes rather than a node allocation per value.
bool MoreDistinctThan(const std::vector<Value>& values, size_t limit) {
  if (values.size() <= limit) return false;
  // kNull marks an empty slot; a kNull value is counted on the side.
  const size_t capacity = std::bit_ceil(2 * (limit + 1));
  const int shift = 64 - std::countr_zero(capacity);
  std::vector<Value> slots(capacity, kNull);
  size_t distinct = 0;
  bool seen_null = false;
  for (Value v : values) {
    if (v == kNull) {
      if (!seen_null) {
        seen_null = true;
        if (++distinct > limit) return true;
      }
      continue;
    }
    size_t h = static_cast<size_t>((v * 0x9E3779B97F4A7C15ull) >> shift);
    while (slots[h] != v) {
      if (slots[h] == kNull) {
        slots[h] = v;
        if (++distinct > limit) return true;
        break;
      }
      h = (h + 1) & (capacity - 1);
    }
  }
  return false;
}

}  // namespace

std::unique_ptr<CompressedColumn> CompressedColumn::Build(
    std::vector<Value> values, bool try_compress) {
  if (!try_compress || values.empty()) {
    return BuildAs(std::move(values), Encoding::kPlain);
  }

  const size_t plain_bytes = values.size() * sizeof(Value);

  size_t runs = 0;
  for (size_t i = 0; i < values.size(); ++i) {
    if (i == 0 || values[i] != values[i - 1]) ++runs;
  }
  const size_t rle_bytes = runs * 2 * sizeof(uint64_t);
  if (rle_bytes * 2 <= plain_bytes) {
    return BuildAs(std::move(values), Encoding::kRle);
  }
  // Dictionary only pays off when codes are clearly narrower.
  if (!MoreDistinctThan(values, values.size() / 4 + 1)) {
    DictionaryColumn dict(values);
    if (dict.byte_size() < plain_bytes / 2) {
      auto col = std::unique_ptr<CompressedColumn>(new CompressedColumn());
      col->size_ = values.size();
      col->encoding_ = Encoding::kDictionary;
      col->dict_ = std::move(dict);
      return col;
    }
  }
  return BuildAs(std::move(values), Encoding::kPlain);
}

std::unique_ptr<CompressedColumn> CompressedColumn::BuildAs(
    std::vector<Value> values, Encoding encoding) {
  auto col = std::unique_ptr<CompressedColumn>(new CompressedColumn());
  col->size_ = values.size();
  col->encoding_ = encoding;
  switch (encoding) {
    case Encoding::kPlain: col->plain_ = std::move(values); break;
    case Encoding::kDictionary: col->dict_ = DictionaryColumn(values); break;
    case Encoding::kRle: col->rle_ = RleColumn(values); break;
  }
  return col;
}

size_t CompressedColumn::byte_size() const {
  switch (encoding_) {
    case Encoding::kPlain: return plain_.size() * sizeof(Value);
    case Encoding::kDictionary: return dict_.byte_size();
    case Encoding::kRle: return rle_.byte_size();
  }
  return 0;
}

}  // namespace lstore
