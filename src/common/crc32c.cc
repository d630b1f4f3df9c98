#include "common/crc32c.h"

#include <array>
#include <cstring>

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

namespace lstore {
namespace crc32c {
namespace {

constexpr std::array<uint32_t, 256> MakeTable() {
  std::array<uint32_t, 256> t{};
  for (uint32_t b = 0; b < 256; ++b) {
    uint32_t c = b;
    for (int i = 0; i < 8; ++i) c = (c & 1) ? (c >> 1) ^ 0x82F63B78u : c >> 1;
    t[b] = c;
  }
  return t;
}

constexpr auto kTable = MakeTable();

}  // namespace

uint32_t Portable(const char* data, size_t n) {
  uint32_t crc = 0xFFFFFFFFu;
  for (size_t i = 0; i < n; ++i) {
    crc = (crc >> 8) ^ kTable[(crc ^ static_cast<uint8_t>(data[i])) & 0xff];
  }
  return ~crc;
}

#if defined(__x86_64__)

bool HardwareAvailable() {
  static const bool available = __builtin_cpu_supports("sse4.2");
  return available;
}

__attribute__((target("sse4.2"))) uint32_t Hardware(const char* data,
                                                    size_t n) {
  uint64_t crc = 0xFFFFFFFFu;
  for (; n >= 8; n -= 8, data += 8) {
    uint64_t w;
    std::memcpy(&w, data, sizeof(w));
    crc = _mm_crc32_u64(crc, w);
  }
  auto c = static_cast<uint32_t>(crc);
  for (; n > 0; --n, ++data) {
    c = _mm_crc32_u8(c, static_cast<unsigned char>(*data));
  }
  return ~c;
}

#else

bool HardwareAvailable() { return false; }

uint32_t Hardware(const char* data, size_t n) { return Portable(data, n); }

#endif

}  // namespace crc32c

uint32_t Crc32c(const char* data, size_t n) {
  static const auto impl =
      crc32c::HardwareAvailable() ? crc32c::Hardware : crc32c::Portable;
  return impl(data, n);
}

}  // namespace lstore
