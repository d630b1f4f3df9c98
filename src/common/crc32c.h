// CRC-32C (Castagnoli) checksums for buffer-managed segment payloads.
//
// Every full hydration of a cold page verifies its payload, so the
// checksum sits on the miss path of every analytical scan that runs
// under a buffer pool smaller than the data. On x86-64 with SSE4.2 the
// `crc32` instruction consumes 8 bytes per step; elsewhere a byte-wise
// table does. The implementation is chosen once, at first use, with
// __builtin_cpu_supports — both paths produce identical values (the
// standard CRC-32C: reflected polynomial 0x82F63B78, initial value and
// final xor 0xFFFFFFFF).

#ifndef LSTORE_COMMON_CRC32C_H_
#define LSTORE_COMMON_CRC32C_H_

#include <cstddef>
#include <cstdint>

namespace lstore {

/// CRC-32C of data[0, n) using the fastest path this CPU supports.
uint32_t Crc32c(const char* data, size_t n);

namespace crc32c {

/// Table-driven implementation (any CPU).
uint32_t Portable(const char* data, size_t n);

/// Whether Hardware() may be called on this CPU.
bool HardwareAvailable();

/// SSE4.2 implementation; only valid when HardwareAvailable().
uint32_t Hardware(const char* data, size_t n);

}  // namespace crc32c
}  // namespace lstore

#endif  // LSTORE_COMMON_CRC32C_H_
