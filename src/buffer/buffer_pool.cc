#include "buffer/buffer_pool.h"

#include <bit>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "buffer/segment_store.h"
#include "common/crc32c.h"
#include "common/epoch.h"
#include "log/framed_log.h"
#include "obs/event_log.h"
#include "storage/compressed_column.h"
#include "storage/compression/varint.h"

namespace lstore {

// ---------------------------------------------------------------------------
// Swap payloads
// ---------------------------------------------------------------------------

uint32_t SegmentChecksum(ChecksumKind kind, const char* data, size_t n) {
  return kind == ChecksumKind::kCrc32c ? Crc32c(data, n) : Fnv1a32(data, n);
}

void EncodeSwapPayload(const std::vector<Value>& vals, std::string* out,
                       SwapFormat* format, uint32_t* width) {
  uint64_t maxv = 0;
  size_t varint_bytes = 0;
  for (Value v : vals) {
    if (v > maxv) maxv = v;
    varint_bytes += VarintLength(v);
  }
  const uint32_t w = maxv <= 0xffu           ? 1
                     : maxv <= 0xffffu       ? 2
                     : maxv <= 0xffffffffull ? 4
                                             : 8;
  const bool fixed = vals.size() * w <= varint_bytes;
  out->clear();
  PutVarint64(out, vals.size());
  if (fixed) {
    // [count varint][width byte][count * width bytes, little-endian]
    out->push_back(static_cast<char>(w));
    for (Value v : vals) {
      for (uint32_t b = 0; b < w; ++b) {
        out->push_back(static_cast<char>((v >> (8 * b)) & 0xff));
      }
    }
  } else {
    for (Value v : vals) PutVarint64(out, v);
  }
  *format = fixed ? SwapFormat::kFixed : SwapFormat::kVarint;
  *width = fixed ? w : 0;
}

namespace {

/// One little-endian value of `width` bytes (any width in [1, 8]).
inline Value LoadLe(const char* p, uint32_t width) {
  uint64_t v = 0;
  for (uint32_t b = 0; b < width; ++b) {
    v |= static_cast<uint64_t>(static_cast<uint8_t>(p[b])) << (8 * b);
  }
  return v;
}

/// Little-endian host only: widen `count` packed T values.
template <typename T>
void DecodeFixedAs(const char* src, size_t count, Value* out) {
  for (size_t i = 0; i < count; ++i) {
    T v;
    std::memcpy(&v, src + i * sizeof(T), sizeof(T));
    out[i] = v;
  }
}

/// Decode `count` fixed-width values with a loop specialized per width
/// (one memcpy for width 8) on little-endian hosts.
void DecodeFixed(const char* src, size_t count, uint32_t width, Value* out) {
  if constexpr (std::endian::native == std::endian::little) {
    switch (width) {
      case 1: return DecodeFixedAs<uint8_t>(src, count, out);
      case 2: return DecodeFixedAs<uint16_t>(src, count, out);
      case 4: return DecodeFixedAs<uint32_t>(src, count, out);
      case 8: std::memcpy(out, src, count * sizeof(Value)); return;
    }
  }
  for (size_t i = 0; i < count; ++i) out[i] = LoadLe(src + i * width, width);
}

/// Decode a verified swap payload of `num_slots` values into `*vals`.
Status DecodeSwapPayload(const std::string& payload, uint32_t num_slots,
                         SwapFormat format, uint32_t width,
                         std::vector<Value>* vals) {
  const char* data = payload.data();
  const size_t size = payload.size();
  size_t pos = 0;
  uint64_t count = 0;
  if (!GetVarint64(data, size, &pos, &count) || count != num_slots) {
    return Status::Corruption("segment payload slot count mismatch");
  }
  vals->resize(count);
  if (format == SwapFormat::kFixed) {
    const uint32_t stored = pos < size ? static_cast<uint8_t>(data[pos]) : 0;
    ++pos;
    if (stored != width || width == 0 || width > 8 ||
        size != pos + count * width) {
      return Status::Corruption("segment payload fixed-width mismatch");
    }
    DecodeFixed(data + pos, count, width, vals->data());
    return Status::OK();
  }
  Value* out = vals->data();
  for (uint64_t i = 0; i < count; ++i) {
    // Inlined one-byte fast path (values < 128); longer varints take
    // the general decoder.
    if (pos < size && static_cast<uint8_t>(data[pos]) < 0x80) {
      out[i] = static_cast<uint8_t>(data[pos++]);
    } else if (!GetVarint64(data, size, &pos, &out[i])) {
      return Status::Corruption("segment payload truncated");
    }
  }
  return Status::OK();
}

}  // namespace

// ---------------------------------------------------------------------------
// SegmentPage
// ---------------------------------------------------------------------------

SegmentPage::SegmentPage(EpochManager* epochs, uint32_t num_slots,
                         bool compress)
    : num_slots_(num_slots), compress_(compress), epochs_(epochs) {}

SegmentPage::~SegmentPage() {
  BufferPool* pool = pool_.load(std::memory_order_acquire);
  if (pool != nullptr) pool->Unregister(this);
  // By the time the last owning segment is reclaimed, no reader from
  // before its retirement can still hold the payload (the retire
  // epoch drained), and no new reader can reach this page — direct
  // deletion is safe.
  delete payload_.exchange(nullptr, std::memory_order_acq_rel);
}

void SegmentPage::SetResident(const CompressedColumn* col) {
  encoding_.store(static_cast<uint8_t>(col->encoding()),
                  std::memory_order_relaxed);
  resident_bytes_.store(col->byte_size(), std::memory_order_relaxed);
  payload_.store(col, std::memory_order_release);
}

void SegmentPage::SetSwap(SegmentStore* store, uint64_t offset,
                          uint64_t length, uint32_t checksum,
                          SwapFormat format, uint32_t width,
                          ChecksumKind checksum_kind) {
  store_ = store;
  swap_offset_ = offset;
  swap_length_ = length;
  swap_checksum_ = checksum;
  swap_checksum_kind_ = checksum_kind;
  swap_format_ = format;
  swap_value_width_ = width;
}

// ---------------------------------------------------------------------------
// BufferPool
// ---------------------------------------------------------------------------

BufferPool::BufferPool(uint64_t budget_bytes) : budget_(budget_bytes) {}

BufferPool::~BufferPool() = default;

uint64_t BufferPool::EnvBudgetBytes() {
  static const uint64_t v = [] {
    const char* e = std::getenv("LSTORE_BUFFER_POOL_BYTES");
    return e != nullptr ? std::strtoull(e, nullptr, 10) : 0ull;
  }();
  return v;
}

void BufferPool::Register(SegmentPage* page) {
  uint64_t charge = 0;
  if (page->payload_.load(std::memory_order_acquire) != nullptr) {
    charge = page->resident_bytes_.load(std::memory_order_relaxed);
  }
  // Charge BEFORE the page becomes reachable by the eviction sweep: a
  // sweep that evicted it first would subtract bytes never added and
  // wrap the unsigned gauge.
  if (charge != 0) {
    bytes_resident_.fetch_add(charge, std::memory_order_acq_rel);
  }
  {
    std::lock_guard<std::mutex> g(mu_);
    page->pool_.store(this, std::memory_order_release);
    if (clock_hand_ == nullptr) {
      page->clock_next_ = page;
      page->clock_prev_ = page;
      clock_hand_ = page;
    } else {
      // Insert just behind the hand (longest time until first sweep).
      page->clock_next_ = clock_hand_;
      page->clock_prev_ = clock_hand_->clock_prev_;
      clock_hand_->clock_prev_->clock_next_ = page;
      clock_hand_->clock_prev_ = page;
    }
    ++ring_size_;
  }
  pages_.fetch_add(1, std::memory_order_relaxed);
  EnforceBudget();
}

void BufferPool::UnlinkLocked(SegmentPage* page) {
  page->pool_.store(nullptr, std::memory_order_release);
  if (page->clock_next_ == page) {
    clock_hand_ = nullptr;
  } else {
    page->clock_prev_->clock_next_ = page->clock_next_;
    page->clock_next_->clock_prev_ = page->clock_prev_;
    if (clock_hand_ == page) clock_hand_ = page->clock_next_;
  }
  page->clock_next_ = nullptr;
  page->clock_prev_ = nullptr;
  --ring_size_;
}

void BufferPool::Unregister(SegmentPage* page) {
  uint64_t uncharge = 0;
  {
    std::lock_guard<std::mutex> g(mu_);
    if (page->pool_.load(std::memory_order_relaxed) != this) return;
    UnlinkLocked(page);
    if (page->payload_.load(std::memory_order_acquire) != nullptr) {
      uncharge = page->resident_bytes_.load(std::memory_order_relaxed);
    }
  }
  pages_.fetch_sub(1, std::memory_order_relaxed);
  if (uncharge != 0) {
    bytes_resident_.fetch_sub(uncharge, std::memory_order_acq_rel);
  }
}

void BufferPool::DetachDomain(EpochManager* epochs) {
  // The eviction fence: an in-flight EnforceBudget may already have
  // collected victims of this domain (with their EpochManager pointer)
  // but not yet retired them. Waiting out the whole pass here
  // guarantees no retire can land after the table's teardown proceeds
  // to destroy the manager.
  std::lock_guard<std::mutex> fence(evict_mu_);
  std::vector<SegmentPage*> detached;
  {
    std::lock_guard<std::mutex> g(mu_);
    if (clock_hand_ == nullptr) return;
    SegmentPage* p = clock_hand_;
    // Collect first (unlinking while walking a circular list is
    // error-prone), then unlink.
    std::vector<SegmentPage*> all;
    do {
      all.push_back(p);
      p = p->clock_next_;
    } while (p != clock_hand_);
    for (SegmentPage* page : all) {
      if (page->epochs_ != epochs) continue;
      UnlinkLocked(page);
      detached.push_back(page);
    }
  }
  uint64_t uncharge = 0;
  for (SegmentPage* page : detached) {
    if (page->payload_.load(std::memory_order_acquire) != nullptr) {
      uncharge += page->resident_bytes_.load(std::memory_order_relaxed);
    }
  }
  pages_.fetch_sub(detached.size(), std::memory_order_relaxed);
  if (uncharge != 0) {
    bytes_resident_.fetch_sub(uncharge, std::memory_order_acq_rel);
  }
}

void BufferPool::CountHit() {
  static thread_local const size_t shard =
      std::hash<std::thread::id>{}(std::this_thread::get_id()) % kHitShards;
  hits_[shard].n.fetch_add(1, std::memory_order_relaxed);
}

const CompressedColumn* BufferPool::Acquire(SegmentPage* page) {
  const CompressedColumn* c = page->payload_.load(std::memory_order_acquire);
  if (c != nullptr) {
    page->referenced_.store(true, std::memory_order_relaxed);
    CountHit();
    return c;
  }
  return Load(page);
}

const CompressedColumn* BufferPool::LoadColdPayload(SegmentPage* page,
                                                    bool* won) {
  *won = false;
  // Only swapped pages can ever be cold (eviction requires a store).
  std::string payload;
  std::vector<Value> vals;
  Status s = page->store_ == nullptr
                 ? Status::Corruption("cold page has no segment store")
                 : page->store_->ReadAt(page->swap_offset_,
                                        page->swap_length_, &payload);
  if (s.ok() && SegmentChecksum(page->swap_checksum_kind_, payload.data(),
                                payload.size()) != page->swap_checksum_) {
    s = Status::Corruption("segment payload checksum mismatch");
  }
  if (s.ok()) {
    s = DecodeSwapPayload(payload, page->num_slots_, page->swap_format_,
                          page->swap_value_width_, &vals);
  }
  if (!s.ok()) {
    // Storage-integrity fault: serving ∅ instead would silently
    // corrupt query results, so this is fail-stop — like a flipped
    // bit under an mmap'd file. Deployments that need corruption in a
    // restored store surfaced as a clean recovery error instead opt
    // into DurabilityOptions::verify_segment_store_on_open.
    std::fprintf(stderr,
                 "lstore: FATAL buffer pool demand-load failed (%s) "
                 "store=%s offset=%llu length=%llu\n",
                 s.ToString().c_str(),
                 page->store_ != nullptr ? page->store_->path().c_str() : "-",
                 (unsigned long long)page->swap_offset_,
                 (unsigned long long)page->swap_length_);
    std::abort();
  }

  // The first hydration of a lazily restored page runs the encoding
  // analysis and remembers its choice; every later reload skips it.
  // Racing first loaders store the same value (Build is deterministic).
  const uint8_t known = page->encoding_.load(std::memory_order_relaxed);
  const CompressedColumn* col;
  if (known == SegmentPage::kEncodingUnknown) {
    col = CompressedColumn::Build(std::move(vals), page->compress_).release();
    page->encoding_.store(static_cast<uint8_t>(col->encoding()),
                          std::memory_order_relaxed);
  } else {
    col = CompressedColumn::BuildAs(
              std::move(vals),
              static_cast<CompressedColumn::Encoding>(known))
              .release();
  }
  // resident_bytes_ is identical across reloads (same values, same
  // encoding), so writing it before the publish CAS is benign even
  // when two loaders race.
  page->resident_bytes_.store(col->byte_size(), std::memory_order_relaxed);
  const CompressedColumn* expected = nullptr;
  if (!page->payload_.compare_exchange_strong(expected, col,
                                              std::memory_order_acq_rel)) {
    delete col;  // another loader published first
    return expected;
  }
  *won = true;
  return col;
}

bool BufferPool::ReadColdSlot(SegmentPage* page, uint32_t slot, Value* out) {
  if (page == nullptr || page->store_ == nullptr ||
      page->swap_format_ != SwapFormat::kFixed ||
      slot >= page->num_slots_) {
    return false;
  }
  if (page->payload_.load(std::memory_order_acquire) != nullptr) {
    return false;  // resident: the pinned path is cheaper and counted
  }
  // Promotion gate: a page hot enough to absorb this many point reads
  // should hydrate — decline so the caller's pin loads it and later
  // reads become memory hits instead of preads.
  if (page->cold_reads_.fetch_add(1, std::memory_order_relaxed) >=
      kColdReadPromotion) {
    return false;
  }
  const uint32_t width = page->swap_value_width_;
  // Slot addressing: past the [count varint][width byte] header every
  // value occupies exactly `width` bytes.
  const uint64_t header = VarintLength(page->num_slots_) + 1;
  std::string bytes;
  if (!page->store_
           ->ReadAt(page->swap_offset_ + header +
                        static_cast<uint64_t>(slot) * width,
                    width, &bytes)
           .ok()) {
    return false;  // fall back to the full-inflate path (fail-stop there)
  }
  *out = LoadLe(bytes.data(), width);
  BufferPool* pool = page->pool_.load(std::memory_order_acquire);
  if (pool != nullptr) {
    pool->cold_point_reads_.fetch_add(1, std::memory_order_relaxed);
  }
  return true;
}

const CompressedColumn* BufferPool::Load(SegmentPage* page) {
  bool won = false;
  const CompressedColumn* col = LoadColdPayload(page, &won);
  if (!won) {
    CountHit();  // another loader published first
    return col;
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  page->referenced_.store(true, std::memory_order_relaxed);
  bytes_resident_.fetch_add(col->byte_size(), std::memory_order_acq_rel);
  EnforceBudget();
  return col;
}

void BufferPool::NoteBudgetPressure(bool over) {
  if (over_budget_.exchange(over, std::memory_order_acq_rel) == over) return;
  EventLog* events = events_.load(std::memory_order_acquire);
  if (events == nullptr) return;
  std::string fields =
      "\"resident_bytes\":" +
      std::to_string(bytes_resident_.load(std::memory_order_relaxed)) +
      ",\"budget_bytes\":" + std::to_string(budget_);
  if (over) {
    events->Emit(EventSeverity::kWarn, "buffer_pool", "budget_pressure",
                 std::move(fields));
  } else {
    events->Emit(EventSeverity::kInfo, "buffer_pool", "budget_relieved",
                 std::move(fields));
  }
}

void BufferPool::EnforceBudget() {
  if (budget_ == 0) return;
  if (bytes_resident_.load(std::memory_order_acquire) <= budget_) {
    NoteBudgetPressure(false);
    return;
  }
  // One pass at a time, and DetachDomain waits the pass out: between
  // collecting a victim and retiring it we hold a raw EpochManager
  // pointer, so a table must not finish tearing down mid-pass.
  std::lock_guard<std::mutex> fence(evict_mu_);
  // Victims are collected under the ring mutex but retired OUTSIDE it:
  // Retire takes the epoch manager's lock, whose reclamation path runs
  // deleters that re-enter this pool (page unregistration) — retiring
  // under mu_ would invert that order and deadlock.
  std::vector<std::pair<EpochManager*, const CompressedColumn*>> victims;
  {
    std::lock_guard<std::mutex> g(mu_);
    uint64_t steps = 2 * ring_size_ + 1;
    while (bytes_resident_.load(std::memory_order_acquire) > budget_ &&
           clock_hand_ != nullptr && steps-- > 0) {
      SegmentPage* p = clock_hand_;
      clock_hand_ = p->clock_next_;
      if (p->store_ == nullptr) continue;  // never written through
      if (p->pins_.load(std::memory_order_acquire) != 0) continue;
      if (p->payload_.load(std::memory_order_acquire) == nullptr) continue;
      if (p->referenced_.exchange(false, std::memory_order_acq_rel)) {
        continue;  // second chance
      }
      const CompressedColumn* victim =
          p->payload_.exchange(nullptr, std::memory_order_acq_rel);
      if (victim == nullptr) continue;
      // Fresh cold spell: the page earns kColdReadPromotion slot reads
      // before the next point read promotes it back to residency.
      p->cold_reads_.store(0, std::memory_order_relaxed);
      bytes_resident_.fetch_sub(
          p->resident_bytes_.load(std::memory_order_relaxed),
          std::memory_order_acq_rel);
      evictions_.fetch_add(1, std::memory_order_relaxed);
      victims.emplace_back(p->epochs_, victim);
    }
  }
  // Readers that pinned just after our pin check may still be using a
  // victim — retire through the owning table's epochs, the same fence
  // merges use for outdated base pages (Figure 6). Then reclaim: in
  // scan-only workloads nothing else drains the retired queue, and an
  // evict-reload loop would otherwise grow it without bound.
  EpochManager* last = nullptr;
  for (auto& [epochs, victim] : victims) {
    epochs->Retire([victim] { delete victim; });
  }
  for (auto& [epochs, victim] : victims) {
    (void)victim;
    if (epochs != last) epochs->TryReclaim();
    last = epochs;
  }
  // Pressure = the sweep could not get back under budget (the pinned
  // working set alone exceeds it); transitions emit events.
  NoteBudgetPressure(bytes_resident_.load(std::memory_order_acquire) >
                     budget_);
}

BufferPoolStats BufferPool::stats() const {
  BufferPoolStats s;
  for (const HitShard& h : hits_) {
    s.hits += h.n.load(std::memory_order_relaxed);
  }
  s.cold_point_reads = cold_point_reads_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.evictions = evictions_.load(std::memory_order_relaxed);
  s.bytes_resident = bytes_resident_.load(std::memory_order_acquire);
  s.budget_bytes = budget_;
  s.pages = pages_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace lstore
