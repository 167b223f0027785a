/// The stream frame reader (ReadFrame) against the buffer decoder
/// (DecodeFrame): both run the same header parser, so on any byte string
/// they must agree — the same Frame, or the same error — however the stream
/// is chunked. A stream that ends where DecodeFrame would want more input is
/// a connection cut mid-frame (Unavailable). Also pins how many
/// Transport::Read calls a frame costs when its bytes are all available.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "engine/codec.h"
#include "net/transport.h"
#include "net/wire.h"
#include "obs/query_cost.h"

namespace mope::net {
namespace {

/// A StringTransport that serves its input in random 1..max_chunk-byte
/// pieces (every byte at once when `rng` is null) and counts Read calls.
class ChunkedTransport final : public Transport {
 public:
  ChunkedTransport(std::string input, Rng* rng, size_t max_chunk)
      : inner_(std::move(input)), rng_(rng), max_chunk_(max_chunk) {}

  Result<size_t> Read(char* buf, size_t max) override {
    ++reads_;
    largest_request_ = std::max(largest_request_, max);
    size_t want = max;
    if (rng_ != nullptr) {
      want = std::min<size_t>(max, 1 + rng_->UniformUint64(max_chunk_));
    }
    return inner_.Read(buf, want);
  }
  Status Write(const char* data, size_t n) override {
    return inner_.Write(data, n);
  }
  void Close() override { inner_.Close(); }

  int reads() const { return reads_; }
  size_t largest_request() const { return largest_request_; }

 private:
  StringTransport inner_;
  Rng* rng_;
  size_t max_chunk_;
  int reads_ = 0;
  size_t largest_request_ = 0;
};

std::string RandomBytes(Rng* rng, size_t n) {
  std::string out(n, '\0');
  for (char& c : out) c = static_cast<char>(rng->UniformUint64(256));
  return out;
}

/// A reply's profile section with every server-half field set.
std::string FullProfile() {
  obs::QueryCost cost;
  cost.srv_batches_received = 3;
  cost.srv_segments_scanned = 17;
  cost.srv_entries_visited = 1234;
  cost.srv_index_nodes_visited = 56;
  cost.srv_rows_returned = 126;
  cost.trace_id = 0x5EED5EED5EED5EEDull;
  return EncodeProfileSection(cost);
}

/// A version-1 frame and a version-2 frame carrying a trace id and a
/// profile, each around a random payload of `payload_bytes`.
std::vector<std::string> SampleFrames(size_t payload_bytes) {
  Rng rng(0xF4A3E);
  return {EncodeFrame(MessageType::kRangeBatchReply,
                      RandomBytes(&rng, payload_bytes)),
          EncodeFrame(MessageType::kRangeBatchReply,
                      RandomBytes(&rng, payload_bytes),
                      /*trace_id=*/0xABCDEF0123456789ull,
                      /*has_profile=*/true, FullProfile())};
}

/// ReadFrame over `bytes`, chunked by `rng`, must agree with DecodeFrame
/// over the same bytes.
void ExpectReaderAgrees(const std::string& bytes, Rng* rng,
                        const std::string& what) {
  size_t consumed = 0;
  const Result<Frame> decoded = DecodeFrame(bytes, &consumed);
  ChunkedTransport transport(bytes, rng, 7);
  const Result<Frame> read = ReadFrame(&transport);
  if (decoded.ok()) {
    ASSERT_TRUE(read.ok()) << what << ": " << read.status().ToString();
    EXPECT_EQ(read->type, decoded->type) << what;
    EXPECT_EQ(read->trace_id, decoded->trace_id) << what;
    EXPECT_EQ(read->has_profile, decoded->has_profile) << what;
    EXPECT_EQ(read->profile, decoded->profile) << what;
    EXPECT_EQ(read->payload, decoded->payload) << what;
  } else if (decoded.status().IsUnavailable()) {
    ASSERT_FALSE(read.ok()) << what;
    EXPECT_TRUE(read.status().IsUnavailable())
        << what << ": " << read.status().ToString();
  } else {
    ASSERT_FALSE(read.ok()) << what;
    EXPECT_EQ(read.status().code(), decoded.status().code()) << what;
    EXPECT_EQ(read.status().message(), decoded.status().message()) << what;
  }
}

TEST(FrameReaderTest, ChunkedReadsMatchDecodeFrame) {
  Rng rng(0xC4A7);
  for (const std::string& frame : SampleFrames(1500)) {
    for (int rep = 0; rep < 20; ++rep) {
      ExpectReaderAgrees(frame, &rng, "intact frame");
    }
  }
}

TEST(FrameReaderTest, EveryTruncationIsUnavailable) {
  Rng rng(0x7C07);
  for (const std::string& frame : SampleFrames(300)) {
    for (size_t cut = 0; cut < frame.size(); ++cut) {
      const std::string prefix = frame.substr(0, cut);
      ExpectReaderAgrees(prefix, &rng, "cut at " + std::to_string(cut));
      ChunkedTransport transport(prefix, &rng, 7);
      const Result<Frame> read = ReadFrame(&transport);
      ASSERT_FALSE(read.ok());
      EXPECT_EQ(read.status().message(),
                cut == 0 ? "connection closed" : "connection closed mid-frame")
          << "cut at " << cut;
    }
  }
}

TEST(FrameReaderTest, SeededMutationsMatchDecodeFrame) {
  Rng rng(0x3A7E);
  const std::vector<std::string> frames = SampleFrames(200);
  for (int rep = 0; rep < 4000; ++rep) {
    std::string bytes = frames[rep % frames.size()];
    const uint64_t flips = 1 + rng.UniformUint64(4);
    for (uint64_t i = 0; i < flips; ++i) {
      // Half the flips land in the header and extension fields, where
      // framing is decided; the rest anywhere (payload flips are CRC's).
      const size_t span = rng.UniformUint64(2) == 0 ? 32 : bytes.size();
      const size_t at = rng.UniformUint64(span);
      bytes[at] = static_cast<char>(bytes[at] ^ (1 + rng.UniformUint64(255)));
    }
    ExpectReaderAgrees(bytes, &rng, "mutation " + std::to_string(rep));
    if (HasFatalFailure()) return;
  }
}

TEST(FrameReaderTest, V1FrameTakesTwoReads) {
  ChunkedTransport transport(
      EncodeFrame(MessageType::kRangeBatchReply, std::string(12288, 'r')),
      nullptr, 0);
  const Result<Frame> read = ReadFrame(&transport);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(read->payload.size(), 12288u);
  EXPECT_EQ(transport.reads(), 2);
}

TEST(FrameReaderTest, ProfiledV2FrameTakesAtMostThreeReads) {
  const std::string profile = FullProfile();
  ChunkedTransport transport(
      EncodeFrame(MessageType::kRangeBatchReply, std::string(12288, 'r'),
                  /*trace_id=*/42, /*has_profile=*/true, profile),
      nullptr, 0);
  const Result<Frame> read = ReadFrame(&transport);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(read->trace_id, 42u);
  EXPECT_EQ(read->profile, profile);
  EXPECT_EQ(read->payload, std::string(12288, 'r'));
  EXPECT_LE(transport.reads(), 3);
}

TEST(FrameReaderTest, ForgedLengthGrowsWithArrivingBytes) {
  // A header claiming the largest payload, then only 100 KB of it: the
  // reader's buffer grows with what arrives, so no single read asks for
  // (and no buffer is sized to) the claimed 64 MiB.
  std::string bytes =
      EncodeFrame(MessageType::kRangeBatchReply, std::string(100000, 'p'));
  engine::StoreU32(bytes.data() + 8, kMaxPayloadBytes);
  ChunkedTransport transport(bytes, nullptr, 0);
  const Result<Frame> read = ReadFrame(&transport);
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().message(), "connection closed mid-frame");
  EXPECT_LE(transport.largest_request(), size_t{128} << 10);

  // A genuine frame past the first buffer size still reads back whole.
  Rng rng(0xB16);
  const std::string big = EncodeFrame(MessageType::kRangeBatchReply,
                                      RandomBytes(&rng, 300000), 9);
  ExpectReaderAgrees(big, nullptr, "300 KB frame");
}

TEST(FrameReaderTest, ReadStopsAtTheFrameEnd) {
  // Two frames back to back: each read takes exactly its own bytes.
  const std::vector<std::string> frames = SampleFrames(40);
  StringTransport transport(frames[1] + frames[0] + frames[1]);
  for (const size_t i : {1, 0, 1}) {
    size_t consumed = 0;
    const Result<Frame> want = DecodeFrame(frames[i], &consumed);
    const Result<Frame> read = ReadFrame(&transport);
    ASSERT_TRUE(read.ok()) << read.status().ToString();
    EXPECT_EQ(read->payload, want->payload);
    EXPECT_EQ(read->profile, want->profile);
  }
}

TEST(FrameReaderTest, SealFrameMatchesEncodeFrame) {
  const std::string profile = FullProfile();
  for (const uint64_t trace_id : {0ull, 7ull}) {
    for (const bool has_profile : {false, true}) {
      const std::string_view section =
          has_profile ? std::string_view(profile) : std::string_view();
      const std::string payload = "in-place payload";
      std::string room(FramePrefixBytes(trace_id, has_profile, section.size()),
                       '\0');
      EXPECT_EQ(SealFrame(MessageType::kRangeBatchReply, room + payload,
                          trace_id, has_profile, section),
                EncodeFrame(MessageType::kRangeBatchReply, payload, trace_id,
                            has_profile, section));
    }
  }
}

}  // namespace
}  // namespace mope::net
