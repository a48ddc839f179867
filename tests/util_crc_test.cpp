#include "util/crc.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <span>
#include <string_view>
#include <vector>

#include "util/rng.hpp"

namespace mars::util {
namespace {

std::vector<std::byte> bytes_of(std::string_view s) {
  std::vector<std::byte> out(s.size());
  std::memcpy(out.data(), s.data(), s.size());
  return out;
}

TEST(Crc16Test, KnownVectors) {
  // CRC-16/CCITT-FALSE("123456789") == 0x29B1 (standard check value).
  EXPECT_EQ(Crc16::compute(bytes_of("123456789")), 0x29B1);
  EXPECT_EQ(Crc16::compute({}), 0xFFFF);  // init value for empty input
}

TEST(Crc32Test, KnownVectors) {
  // CRC-32/IEEE("123456789") == 0xCBF43926 (standard check value).
  EXPECT_EQ(Crc32::compute(bytes_of("123456789")), 0xCBF43926u);
  EXPECT_EQ(Crc32::compute({}), 0x00000000u);
}

TEST(Crc16Test, IncrementalMatchesOneShot) {
  const auto data = bytes_of("mars path id hashing");
  Crc16 crc;
  for (std::byte b : data) crc.update(static_cast<std::uint8_t>(b));
  EXPECT_EQ(crc.value(), Crc16::compute(data));
}

TEST(Crc32Test, IncrementalMatchesOneShot) {
  const auto data = bytes_of("mars path id hashing");
  Crc32 crc;
  for (std::byte b : data) crc.update(static_cast<std::uint8_t>(b));
  EXPECT_EQ(crc.value(), Crc32::compute(data));
}

TEST(CrcWordsTest, DeterministicAndSensitiveToOrder) {
  const std::array<std::uint32_t, 4> a{1, 2, 3, 4};
  const std::array<std::uint32_t, 4> b{4, 3, 2, 1};
  EXPECT_EQ(crc16_words(a), crc16_words(a));
  EXPECT_NE(crc16_words(a), crc16_words(b));
  EXPECT_EQ(crc32_words(a), crc32_words(a));
  EXPECT_NE(crc32_words(a), crc32_words(b));
}

TEST(CrcWordsTest, SensitiveToEveryField) {
  // PathID update hashes {path_id, switch, in_port, out_port, control};
  // flipping any single word must change the digest.
  const std::array<std::uint32_t, 5> base{7, 11, 2, 3, 0};
  const auto h = crc32_words(base);
  for (std::size_t i = 0; i < base.size(); ++i) {
    auto mutated = base;
    mutated[i] ^= 1;
    EXPECT_NE(crc32_words(mutated), h) << "word " << i;
  }
}

/// Byte-serial reference for the sliced word hashes: each word's four
/// little-endian bytes, low byte first.
template <typename Crc>
auto serial_words(std::span<const std::uint32_t> words) {
  Crc crc;
  for (std::uint32_t w : words) {
    for (int shift = 0; shift < 32; shift += 8) {
      crc.update(static_cast<std::uint8_t>((w >> shift) & 0xFFu));
    }
  }
  return crc.value();
}

TEST(CrcWordsTest, SlicedMatchesByteSerial) {
  // Both word hashes fold a whole word per step through four tables; they
  // must equal the plain byte-at-a-time CRC on every input. Random
  // lengths 0-8 cover empty and odd shapes; the 5-word case is the PathID
  // hop key {path_id, switch, in_port, out_port, control}, drawn both
  // fully random and in its real small-value range.
  Rng rng(2024);
  std::vector<std::uint32_t> words;
  for (int i = 0; i < 20000; ++i) {
    const auto len = i % 3 == 0 ? std::size_t{5}
                                : static_cast<std::size_t>(rng.below(9));
    words.resize(len);
    const bool small = i % 6 == 3;
    for (auto& w : words) {
      w = small ? static_cast<std::uint32_t>(rng.below(1024))
                : static_cast<std::uint32_t>(rng());
    }
    ASSERT_EQ(crc16_words(words), serial_words<Crc16>(words)) << "input " << i;
    ASSERT_EQ(crc32_words(words), serial_words<Crc32>(words)) << "input " << i;
  }
}

TEST(Crc16Test, ResetRestoresInitialState) {
  Crc16 crc;
  crc.update(bytes_of("junk"));
  crc.reset();
  crc.update(bytes_of("123456789"));
  EXPECT_EQ(crc.value(), 0x29B1);
}

}  // namespace
}  // namespace mars::util
