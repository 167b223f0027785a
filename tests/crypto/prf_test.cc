#include "crypto/prf.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

namespace mope::crypto {
namespace {

Key128 TestKey(uint8_t fill = 0x5A) {
  Key128 k;
  k.fill(fill);
  return k;
}

TEST(PrfTest, DeterministicForSameInput) {
  Prf prf(TestKey());
  const std::vector<uint8_t> msg{1, 2, 3, 4};
  EXPECT_EQ(prf.Eval(msg), prf.Eval(msg));
}

TEST(PrfTest, DifferentInputsDifferentOutputs) {
  Prf prf(TestKey());
  EXPECT_NE(prf.Eval({1, 2, 3}), prf.Eval({1, 2, 4}));
  EXPECT_NE(prf.Eval({1, 2, 3}), prf.Eval({1, 2, 3, 0}));
}

TEST(PrfTest, LengthFramingPreventsPaddingCollisions) {
  // Without the length prefix, {1} and {1, 0} would collide under
  // zero-padding. They must not.
  Prf prf(TestKey());
  EXPECT_NE(prf.Eval({1}), prf.Eval({1, 0}));
  EXPECT_NE(prf.Eval({}), prf.Eval({0}));
}

TEST(PrfTest, EmptyInputIsValid) {
  Prf prf(TestKey());
  const Block out = prf.Eval(nullptr, 0);
  // Must be deterministic and not all-zero (overwhelmingly).
  EXPECT_EQ(out, prf.Eval(nullptr, 0));
  Block zero{};
  EXPECT_NE(out, zero);
}

TEST(PrfTest, DifferentKeysDifferentOutputs) {
  Prf a(TestKey(0x01)), b(TestKey(0x02));
  const std::vector<uint8_t> msg{9, 9, 9};
  EXPECT_NE(a.Eval(msg), b.Eval(msg));
}

TEST(PrfTest, LongInputsSpanningManyBlocks) {
  Prf prf(TestKey());
  std::vector<uint8_t> long_msg(1000);
  for (size_t i = 0; i < long_msg.size(); ++i) {
    long_msg[i] = static_cast<uint8_t>(i);
  }
  const Block a = prf.Eval(long_msg);
  long_msg[999] ^= 0x80;
  const Block b = prf.Eval(long_msg);
  EXPECT_NE(a, b);
}

TEST(PrfTest, OutputsLookDistinct) {
  // 1000 distinct tags -> 1000 distinct outputs (birthday-safe at 128 bits).
  Prf prf(TestKey());
  std::set<Block> seen;
  for (uint64_t i = 0; i < 1000; ++i) {
    TagBuilder tag(0x01);
    tag.AppendU64(i);
    seen.insert(prf.Eval(tag.data(), tag.size()));
  }
  EXPECT_EQ(seen.size(), 1000u);
}

TEST(TagBuilderTest, AppendU64BigEndian) {
  TagBuilder tag(0xAA);
  tag.AppendU64(0x0102030405060708ULL);
  const auto& bytes = tag.bytes();
  ASSERT_EQ(bytes.size(), 9u);
  EXPECT_EQ(bytes[0], 0xAA);
  EXPECT_EQ(bytes[1], 0x01);
  EXPECT_EQ(bytes[8], 0x08);
}

TEST(TagBuilderTest, StructurallyDifferentTagsDiffer) {
  TagBuilder a(0x01), b(0x02);
  a.AppendU64(5);
  b.AppendU64(5);
  EXPECT_FALSE(std::ranges::equal(a.bytes(), b.bytes()));
}

TEST(TagBuilderTest, AppendBytes) {
  TagBuilder tag(0x00);
  const uint8_t data[3] = {7, 8, 9};
  tag.AppendBytes(data, 3);
  EXPECT_EQ(tag.bytes().size(), 4u);
  EXPECT_EQ(tag.bytes()[3], 9);
}

TEST(TagBuilderTest, HoldsALabelAndFourWordsInline) {
  TagBuilder tag(0x53);
  tag.AppendU64(1).AppendU64(2).AppendU64(3).AppendU64(4);
  EXPECT_EQ(tag.size(), TagBuilder::kCapacity);
  EXPECT_EQ(tag.bytes()[TagBuilder::kCapacity - 1], 4);
}

}  // namespace
}  // namespace mope::crypto
