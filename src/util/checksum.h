// cmtos/util/checksum.h
//
// CRC-32 (IEEE 802.3 polynomial, reflected) used for transport-PDU error
// detection and for verifiable synthetic media content.

#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

namespace cmtos {

/// Computes the CRC-32 of `data`, optionally continuing from a previous
/// value (pass the previous return value as `seed` to chain).
std::uint32_t crc32(std::span<const std::uint8_t> data, std::uint32_t seed = 0);

/// Appends the CRC-32 of the current contents of `wire` as a little-endian
/// trailer.  Every control-plane PDU encoding (control TPDUs, OPDUs, RPC
/// messages) ends with this trailer now that links flip real wire bytes.
/// `Bytes` is a PDU's net::WireBytes or a plain std::vector.
template <typename Bytes>
void append_crc32(Bytes& wire) {
  const std::uint32_t c = crc32(wire);
  for (int i = 0; i < 4; ++i) wire.push_back(static_cast<std::uint8_t>(c >> (8 * i)));
}

/// Verifies and strips a trailing CRC-32: returns the body span (without
/// the 4-byte trailer) when the checksum matches, nullopt otherwise.  A
/// span shorter than the trailer itself cannot match.
inline std::optional<std::span<const std::uint8_t>> strip_crc32(
    std::span<const std::uint8_t> wire) {
  if (wire.size() < 4) return std::nullopt;
  const auto body = wire.first(wire.size() - 4);
  std::uint32_t got = 0;
  for (int i = 0; i < 4; ++i)
    got |= static_cast<std::uint32_t>(wire[wire.size() - 4 + static_cast<std::size_t>(i)])
           << (8 * i);
  if (crc32(body) != got) return std::nullopt;
  return body;
}

}  // namespace cmtos
