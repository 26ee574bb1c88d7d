#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace clio::apps::dmine {

/// Fixed-width basket records for the managed-vs-native candidate-counting
/// benchmark axis.  Apriori's inner loop — for every basket, for every
/// candidate itemset, bump the support count if the basket contains all the
/// candidate's items — is the Dmine kernel the paper times.  To port that
/// loop to the VM assembler without variable-length record parsing, baskets
/// are encoded as fixed 16-byte records:
///
///   byte 0      item count n (0..15)
///   bytes 1..n  item ids as u8, sorted ascending
///   bytes n+1.. zero padding
///
/// Records never straddle a power-of-two read chunk, so both the native
/// streaming counter and the VM module can scan chunk-by-chunk.
inline constexpr std::size_t kFixedRecordBytes = 16;
inline constexpr std::size_t kMaxFixedItems = kFixedRecordBytes - 1;

/// Encodes baskets into the fixed-record stream.  Throws ConfigError on a
/// basket with more than kMaxFixedItems items.
[[nodiscard]] std::vector<std::byte> encode_fixed_records(
    const std::vector<std::vector<std::uint8_t>>& baskets);

/// Flattens candidate k-itemsets into a contiguous id buffer (candidate i
/// occupies bytes [i*k, (i+1)*k)).  Every candidate must have exactly k
/// items; throws ConfigError otherwise.
[[nodiscard]] std::vector<std::byte> pack_candidates(
    const std::vector<std::vector<std::uint8_t>>& candidates,
    std::size_t k);

/// The counting kernel over one chunk of whole records: returns the total
/// support summed across all candidates (a basket containing all k items of
/// a candidate contributes 1 for that candidate).  `records.size()` must be
/// a multiple of kFixedRecordBytes and `candidates.size()` a multiple of k.
/// Its entry is pinned to a cache line: this is the native twin that
/// clio_bench's vm_scan divides by, and it runs about a fifth slower when
/// the linker happens to place it at 32 mod 64.
[[gnu::aligned(64), nodiscard]] std::uint64_t count_support(
    std::span<const std::byte> records, std::span<const std::byte> candidates,
    std::size_t k);

}  // namespace clio::apps::dmine
