#include <gtest/gtest.h>

#include <string>

#include "util/bytes.h"
#include "util/logic3.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/table.h"
#include "util/word.h"

namespace hltg {
namespace {

TEST(Word, MaskBits) {
  EXPECT_EQ(mask_bits(0), 0u);
  EXPECT_EQ(mask_bits(1), 1u);
  EXPECT_EQ(mask_bits(8), 0xFFu);
  EXPECT_EQ(mask_bits(32), 0xFFFFFFFFu);
  EXPECT_EQ(mask_bits(64), ~std::uint64_t{0});
}

TEST(Word, Trunc) {
  EXPECT_EQ(trunc(0x1FF, 8), 0xFFu);
  EXPECT_EQ(trunc(0x100, 8), 0u);
  EXPECT_EQ(trunc(~0ull, 32), 0xFFFFFFFFull);
}

TEST(Word, SextBasics) {
  EXPECT_EQ(sext(0x80, 8), 0xFFFFFFFFFFFFFF80ull);
  EXPECT_EQ(sext(0x7F, 8), 0x7Full);
  EXPECT_EQ(sext(0xFFFF, 16), ~0ull);
  EXPECT_EQ(sext(0x8000, 16), 0xFFFFFFFFFFFF8000ull);
}

TEST(Word, AsSigned) {
  EXPECT_EQ(as_signed(0xFF, 8), -1);
  EXPECT_EQ(as_signed(0x7F, 8), 127);
  EXPECT_EQ(as_signed(0x80000000u, 32), -2147483648LL);
}

TEST(Word, BitOps) {
  EXPECT_EQ(get_bit(0b1010, 1), 1u);
  EXPECT_EQ(get_bit(0b1010, 0), 0u);
  EXPECT_EQ(set_bit(0, 3, 1), 8u);
  EXPECT_EQ(set_bit(0xF, 0, 0), 0xEu);
}

TEST(Word, Fields) {
  EXPECT_EQ(get_field(0xABCD, 4, 8), 0xBCu);
  EXPECT_EQ(set_field(0, 8, 8, 0xAB), 0xAB00u);
  EXPECT_EQ(set_field(0xFFFF, 4, 8, 0), 0xF00Fu);
}

TEST(Word, AddOverflow) {
  EXPECT_TRUE(add_overflows(0x7FFFFFFF, 1, 32));
  EXPECT_FALSE(add_overflows(0x7FFFFFFE, 1, 32));
  EXPECT_TRUE(add_overflows(0x80000000, 0xFFFFFFFF, 32));  // min + -1
  EXPECT_FALSE(add_overflows(5, 7, 32));
}

TEST(Word, SubOverflow) {
  EXPECT_TRUE(sub_overflows(0x80000000, 1, 32));  // min - 1
  EXPECT_FALSE(sub_overflows(5, 3, 32));
  EXPECT_TRUE(sub_overflows(0x7FFFFFFF, 0xFFFFFFFF, 32));  // max - (-1)
}

TEST(Word, ToHex) {
  EXPECT_EQ(to_hex(0xAB, 8), "0xab");
  EXPECT_EQ(to_hex(0x5, 32), "0x00000005");
  EXPECT_EQ(to_hex(0x1, 1), "0x1");
}

// The store, cache and worker-pipe formats are built from these; stored
// files and cached entries carry their bytes.
TEST(Bytes, Crc32AndLittleEndianAreTheFrozenEncodings) {
  EXPECT_EQ(crc32_ieee("123456789", 9), 0xCBF43926u);  // the check value
  EXPECT_EQ(crc32_ieee("", 0), 0u);
  std::string b;
  put_le32(&b, 0x44454453u);
  EXPECT_EQ(b, "SDED");
  EXPECT_EQ(get_le32(reinterpret_cast<const unsigned char*>(b.data())),
            0x44454453u);
}

TEST(Bytes, HexKeys) {
  EXPECT_TRUE(is_hex_key("5c94d955b42b4e71"));
  EXPECT_TRUE(is_hex_key(std::string(64, 'f')));
  EXPECT_FALSE(is_hex_key(""));
  EXPECT_FALSE(is_hex_key(std::string(65, 'f')));
  EXPECT_FALSE(is_hex_key("5C94"));
  EXPECT_FALSE(is_hex_key("../x"));
}

TEST(Logic3, Not) {
  EXPECT_EQ(l3_not(L3::T), L3::F);
  EXPECT_EQ(l3_not(L3::F), L3::T);
  EXPECT_EQ(l3_not(L3::X), L3::X);
}

TEST(Logic3, AndTruthTable) {
  EXPECT_EQ(l3_and(L3::F, L3::X), L3::F);
  EXPECT_EQ(l3_and(L3::X, L3::F), L3::F);
  EXPECT_EQ(l3_and(L3::T, L3::T), L3::T);
  EXPECT_EQ(l3_and(L3::T, L3::X), L3::X);
  EXPECT_EQ(l3_and(L3::X, L3::X), L3::X);
}

TEST(Logic3, OrTruthTable) {
  EXPECT_EQ(l3_or(L3::T, L3::X), L3::T);
  EXPECT_EQ(l3_or(L3::X, L3::T), L3::T);
  EXPECT_EQ(l3_or(L3::F, L3::F), L3::F);
  EXPECT_EQ(l3_or(L3::F, L3::X), L3::X);
}

TEST(Logic3, XorTruthTable) {
  EXPECT_EQ(l3_xor(L3::T, L3::F), L3::T);
  EXPECT_EQ(l3_xor(L3::T, L3::T), L3::F);
  EXPECT_EQ(l3_xor(L3::X, L3::T), L3::X);
}

TEST(Logic3, Mux) {
  EXPECT_EQ(l3_mux(L3::F, L3::T, L3::F), L3::T);
  EXPECT_EQ(l3_mux(L3::T, L3::T, L3::F), L3::F);
  EXPECT_EQ(l3_mux(L3::X, L3::T, L3::T), L3::T);  // both agree
  EXPECT_EQ(l3_mux(L3::X, L3::T, L3::F), L3::X);
}

TEST(Rng, Deterministic) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, SeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a.next() == b.next()) ++same;
  EXPECT_LT(same, 2);
}

TEST(Rng, BelowInRange) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(r.below(13), 13u);
}

TEST(Rng, WordWidth) {
  Rng r(9);
  for (int i = 0; i < 100; ++i) EXPECT_LE(r.word(5), 31u);
}

TEST(Status, Combine) {
  EXPECT_EQ(combine(TgStatus::kUndetermined, TgStatus::kConflict),
            TgStatus::kConflict);
  EXPECT_EQ(combine(TgStatus::kFailure, TgStatus::kConflict),
            TgStatus::kConflict);
  EXPECT_EQ(combine(TgStatus::kUndetermined, TgStatus::kUndetermined),
            TgStatus::kUndetermined);
  EXPECT_EQ(combine(TgStatus::kFailure, TgStatus::kUndetermined),
            TgStatus::kFailure);
}

TEST(Table, RendersAllRows) {
  TextTable t({"metric", "value"});
  t.add_kv("a", "1");
  t.add_kv("bb", "22");
  const std::string s = t.to_string();
  EXPECT_NE(s.find("metric"), std::string::npos);
  EXPECT_NE(s.find("bb"), std::string::npos);
  EXPECT_NE(s.find("22"), std::string::npos);
}

TEST(Table, FmtDouble) {
  EXPECT_EQ(fmt_double(6.25, 1), "6.2");
  EXPECT_EQ(fmt_double(36.0, 2), "36.00");
}

}  // namespace
}  // namespace hltg
