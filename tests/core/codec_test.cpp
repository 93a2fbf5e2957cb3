#include "core/codec.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <numeric>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/linefit.hpp"
#include "core/segment.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/thread_pool.hpp"

namespace nocw::core {
namespace {

std::vector<float> gaussian_weights(std::size_t n, std::uint64_t seed,
                                    double stddev = 0.05) {
  Xoshiro256pp rng(seed);
  std::vector<float> w(n);
  for (auto& x : w) x = static_cast<float>(rng.normal(0.0, stddev));
  return w;
}

TEST(Codec, EmptyLayer) {
  const CompressedLayer layer = compress({}, CodecConfig{});
  EXPECT_EQ(layer.original_count, 0u);
  EXPECT_TRUE(layer.segments.empty());
  EXPECT_TRUE(decompress(layer).empty());
}

TEST(Codec, CompressIntoEmptyLayer) {
  CodecConfig cfg;
  cfg.delta_percent = 10.0;
  const CompressionStats st = compress_into({}, cfg, 0.0, {});
  EXPECT_EQ(st.segment_count, 0u);
  EXPECT_EQ(st.original_count, 0u);
  EXPECT_EQ(st.sse, 0.0);
  EXPECT_EQ(st.compressed_bits(), 0u);
  EXPECT_EQ(st.compression_ratio(), 1.0);
  EXPECT_EQ(st.mse(), 0.0);
}

// Constant weights make every segment 256 long, so with 37-float rows every
// segment straddles a block boundary, and the staging buffer (one block
// plus one segment) is filled to its end.
TEST(Codec, CompressStreamMaxLengthSegmentsStraddleBlocks) {
  const std::vector<float> w(64 * 37 * 5 + 11, 0.25F);
  CodecConfig cfg;
  cfg.delta_percent = 5.0;
  cfg.length_bits = 8;
  std::vector<float> want(w.size());
  const CompressionStats ref = compress_into(w, cfg, 0.0, want);
  EXPECT_EQ(ref.segment_count, (w.size() + 255) / 256);
  std::vector<float> got;
  std::size_t blocks = 0;
  const CompressionStats st =
      compress_stream(w, cfg, 0.0, 64 * 37, [&](std::span<const float> b) {
        ++blocks;
        got.insert(got.end(), b.begin(), b.end());
      });
  EXPECT_EQ(blocks, 6u);
  EXPECT_EQ(got, want);
  EXPECT_EQ(st.segment_count, ref.segment_count);
  EXPECT_EQ(st.sse, ref.sse);
}

TEST(Codec, CompressStreamRejectsEmptyBlocks) {
  const auto w = gaussian_weights(100, 48);
  EXPECT_THROW(compress_stream(w, CodecConfig{}, value_range(w), 0,
                               [](std::span<const float>) {}),
               std::invalid_argument);
}

TEST(Codec, CompressIntoSizeMismatchThrows) {
  const auto w = gaussian_weights(100, 47);
  std::vector<float> shorter(99);
  std::vector<float> longer(101);
  const double range = value_range(w);
  EXPECT_THROW(compress_into(w, CodecConfig{}, range, shorter),
               std::invalid_argument);
  EXPECT_THROW(compress_into(w, CodecConfig{}, range, longer),
               std::invalid_argument);
}

TEST(Codec, SegmentLengthsTileLayer) {
  const auto w = gaussian_weights(10000, 41);
  for (double delta : {0.0, 5.0, 20.0}) {
    CodecConfig cfg;
    cfg.delta_percent = delta;
    const auto layer = compress(w, cfg);
    std::uint64_t total = 0;
    for (const auto& s : layer.segments) total += s.length;
    EXPECT_EQ(total, w.size());
  }
}

TEST(Codec, PerfectLineReconstructsNearlyExactly) {
  std::vector<float> w;
  for (int j = 0; j < 200; ++j) w.push_back(1.0F + 0.5F * static_cast<float>(j));
  CodecConfig cfg;  // delta 0; ascending line is one segment anyway
  const auto layer = compress(w, cfg);
  ASSERT_EQ(layer.segments.size(), 1u);
  const auto out = decompress(layer);
  for (std::size_t i = 0; i < w.size(); ++i) {
    EXPECT_NEAR(out[i], w[i], 1e-3F) << i;
  }
  EXPECT_LT(layer.mse(), 1e-8);
}

TEST(Codec, MseMatchesExplicitReconstruction) {
  const auto w = gaussian_weights(5000, 42);
  CodecConfig cfg;
  cfg.delta_percent = 10.0;
  const auto layer = compress(w, cfg);
  const auto out = decompress(layer);
  EXPECT_NEAR(layer.mse(), mean_squared_error(w, out), 1e-12);
}

TEST(Codec, MseBoundedByDeltaScale) {
  // Larger δ admits rougher segments, but the fit error stays within the
  // same order as δ² (each segment deviates at most ~δ per step pair).
  const auto w = gaussian_weights(20000, 43, 0.1);
  double prev_mse = 0.0;
  for (double delta : {0.0, 5.0, 10.0, 15.0, 20.0}) {
    CodecConfig cfg;
    cfg.delta_percent = delta;
    const auto layer = compress(w, cfg);
    EXPECT_GE(layer.mse(), prev_mse * 0.5) << "MSE should broadly grow";
    prev_mse = layer.mse();
  }
  EXPECT_GT(prev_mse, 0.0);
}

TEST(Codec, CompressionRatioGrowsWithDelta) {
  const auto w = gaussian_weights(50000, 44);
  double prev = 0.0;
  for (double delta : {0.0, 5.0, 10.0, 15.0, 20.0}) {
    CodecConfig cfg;
    cfg.delta_percent = delta;
    const auto layer = compress(w, cfg);
    const double cr = layer.compression_ratio();
    EXPECT_GT(cr, prev) << "delta " << delta;
    prev = cr;
  }
  // At δ=20% of the range of a Gaussian sample, CR should be well above 2x.
  EXPECT_GT(prev, 2.0);
}

TEST(Codec, DeltaZeroRatioNearTheory) {
  // mean segment length ~2.44, storage 72 bits/segment vs 32 bits/weight:
  // CR ≈ 32*2.44/72 ≈ 1.08 for i.i.d. data.
  const auto w = gaussian_weights(200000, 45);
  const auto layer = compress(w, CodecConfig{});
  EXPECT_NEAR(layer.compression_ratio(), 1.08, 0.08);
}

TEST(Codec, ReconstructionErrorWithinSegmentBound) {
  // Every reconstructed value must stay within a few δ of the original:
  // the fit line of a weakly monotonic segment cannot wander arbitrarily.
  const auto w = gaussian_weights(10000, 46, 0.05);
  CodecConfig cfg;
  cfg.delta_percent = 10.0;
  const auto layer = compress(w, cfg);
  const auto out = decompress(layer);
  const double range = value_range(w);
  for (std::size_t i = 0; i < w.size(); ++i) {
    EXPECT_LT(std::abs(out[i] - w[i]), range) << i;
  }
}

TEST(Codec, DecompressSizeMismatchThrows) {
  const auto w = gaussian_weights(100, 47);
  const auto layer = compress(w, CodecConfig{});
  std::vector<float> wrong(99);
  EXPECT_THROW(decompress(layer, wrong), std::invalid_argument);
}

TEST(Codec, SerializeDeserializeRoundTrip) {
  const auto w = gaussian_weights(5000, 48);
  CodecConfig cfg;
  cfg.delta_percent = 15.0;
  const auto layer = compress(w, cfg);
  const auto bytes = serialize(layer);
  const auto back = deserialize(bytes);
  ASSERT_EQ(back.segments.size(), layer.segments.size());
  EXPECT_EQ(back.original_count, layer.original_count);
  for (std::size_t i = 0; i < layer.segments.size(); ++i) {
    EXPECT_EQ(back.segments[i].m, layer.segments[i].m);
    EXPECT_EQ(back.segments[i].q, layer.segments[i].q);
    EXPECT_EQ(back.segments[i].length, layer.segments[i].length);
  }
  // Decompressing the deserialized stream yields identical weights.
  const auto a = decompress(layer);
  const auto b = decompress(back);
  EXPECT_EQ(a, b);
}

TEST(Codec, SerializedSizeMatchesAccounting) {
  const auto w = gaussian_weights(3000, 49);
  CodecConfig cfg;
  cfg.delta_percent = 5.0;
  const auto layer = compress(w, cfg);
  const auto bytes = serialize(layer);
  // Header is 16+8+8+6+6+6+48+48+32 = 178 bits (v2 adds the flags byte).
  const std::size_t expected_bits = 178 + layer.compressed_bits();
  EXPECT_EQ(bytes.size(), (expected_bits + 7) / 8);
}

TEST(Codec, DeserializeRejectsGarbage) {
  std::vector<std::uint8_t> junk(64, 0xAB);
  EXPECT_THROW(deserialize(junk), std::runtime_error);
}

TEST(Codec, ReducedCoefficientBitsRoundTrip) {
  const auto w = gaussian_weights(5000, 50);
  CodecConfig cfg;
  cfg.delta_percent = 10.0;
  cfg.coef_bits = 16;  // bfloat16-style coefficients
  const auto layer = compress(w, cfg);
  const auto bytes = serialize(layer);
  const auto back = deserialize(bytes);
  const auto a = decompress(layer);
  const auto b = decompress(back);
  EXPECT_EQ(a, b);
  // 16-bit coefficients halve the per-segment cost: CR roughly doubles
  // relative to 32-bit coefficients at the same δ.
  CodecConfig cfg32 = cfg;
  cfg32.coef_bits = 32;
  const auto layer32 = compress(w, cfg32);
  EXPECT_GT(layer.compression_ratio(), 1.5 * layer32.compression_ratio());
}

TEST(Codec, QuantizeCoefficientExactAt32Bits) {
  EXPECT_EQ(quantize_coefficient(0.123456789, 32),
            static_cast<float>(0.123456789));
}

TEST(Codec, QuantizeCoefficientTruncatesMantissa) {
  const float q = quantize_coefficient(1.0F + 1e-4F, 16);
  // bfloat16 has ~3 decimal digits: 1.0001 rounds to 1.0 at 16 bits.
  EXPECT_NEAR(q, 1.0F, 1e-2F);
  // And the low 16 bits of the encoding must be zero.
  std::uint32_t raw;
  std::memcpy(&raw, &q, sizeof(raw));
  EXPECT_EQ(raw & 0xFFFFu, 0u);
}

TEST(Codec, LengthFieldCapRespected) {
  std::vector<float> w(5000);
  std::iota(w.begin(), w.end(), 0.0F);  // single monotone ramp
  CodecConfig cfg;
  cfg.length_bits = 4;  // segments capped at 16
  const auto layer = compress(w, cfg);
  for (const auto& s : layer.segments) EXPECT_LE(s.length, 16u);
  const auto bytes = serialize(layer);
  const auto back = deserialize(bytes);
  EXPECT_EQ(decompress(back), decompress(layer));
}

TEST(Codec, WeightBitsAffectsRatioAccountingOnly) {
  const auto w = gaussian_weights(2000, 51);
  CodecConfig a;
  a.weight_bits = 32;
  CodecConfig b;
  b.weight_bits = 8;
  const auto la = compress(w, a);
  const auto lb = compress(w, b);
  EXPECT_EQ(la.segments.size(), lb.segments.size());
  EXPECT_NEAR(la.compression_ratio() / lb.compression_ratio(), 4.0, 1e-9);
}

// --- corruption regressions ------------------------------------------------
// A corrupted stream is a runtime input, not a programming error: every
// malformed shape must surface as DecodeError (strict) or a zeroed/padded
// repair (tolerant), never an out-of-bounds write.

TEST(CodecCorruption, DecompressRejectsOverrunningSegment) {
  CompressedLayer layer;
  layer.original_count = 10;
  layer.segments.push_back({0.5F, 1.0F, 20});  // claims twice the weights
  EXPECT_THROW(decompress(layer), DecodeError);
}

TEST(CodecCorruption, DecompressRejectsUnderfilledTiling) {
  CompressedLayer layer;
  layer.original_count = 10;
  layer.segments.push_back({0.5F, 1.0F, 4});  // 6 weights unaccounted for
  EXPECT_THROW(decompress(layer), DecodeError);
}

TEST(CodecCorruption, DecompressRejectsNonFiniteCoefficients) {
  CompressedLayer layer;
  layer.original_count = 4;
  layer.segments.push_back(
      {std::numeric_limits<float>::quiet_NaN(), 0.0F, 4});
  EXPECT_THROW(decompress(layer), DecodeError);
  layer.segments[0] = {0.0F, std::numeric_limits<float>::infinity(), 4};
  EXPECT_THROW(decompress(layer), DecodeError);
}

TEST(CodecCorruption, SegmentChecksumRoundTripAndAccounting) {
  const auto w = gaussian_weights(3000, 53);
  CodecConfig plain;
  plain.delta_percent = 10.0;
  CodecConfig checked = plain;
  checked.segment_checksum = true;
  const auto lp = compress(w, plain);
  const auto lc = compress(w, checked);
  // The checksum costs exactly 8 bits per segment and nothing else.
  ASSERT_EQ(lp.segments.size(), lc.segments.size());
  EXPECT_EQ(lc.compressed_bits(),
            lp.compressed_bits() + 8 * lc.segments.size());
  const auto back = deserialize(serialize(lc));
  EXPECT_EQ(decompress(back), decompress(lc));
}

TEST(CodecCorruption, FlippedPayloadBitIsDetected) {
  const auto w = gaussian_weights(2000, 54);
  CodecConfig cfg;
  cfg.delta_percent = 10.0;
  cfg.segment_checksum = true;
  const auto layer = compress(w, cfg);
  auto bytes = serialize(layer);
  // Byte 25 = bits 200..207, inside the first segment record (the v2 header
  // occupies bits 0..177). The CRC-8 must flag whichever field it lands in.
  bytes[25] ^= 0x10;
  EXPECT_THROW(deserialize(bytes), DecodeError);

  DecodeDiagnostics diag;
  const auto repaired = deserialize_tolerant(bytes, &diag);
  EXPECT_EQ(diag.segments_total, layer.segments.size());
  EXPECT_GE(diag.segments_corrupted, 1u);
  EXPECT_FALSE(diag.truncated);
  // The repair keeps the tiling: decompression yields the full weight count,
  // with the corrupted segment reconstructing zeros.
  const auto out = decompress(repaired);
  EXPECT_EQ(out.size(), layer.original_count);
}

TEST(CodecCorruption, TruncatedStreamStrictThrowsTolerantPads) {
  const auto w = gaussian_weights(2000, 55);
  CodecConfig cfg;
  cfg.delta_percent = 10.0;
  cfg.segment_checksum = true;
  const auto layer = compress(w, cfg);
  auto bytes = serialize(layer);
  bytes.resize(bytes.size() / 2);

  try {
    (void)deserialize(bytes);
    FAIL() << "expected DecodeError for truncated stream";
  } catch (const DecodeError& e) {
    EXPECT_LE(e.byte_offset(), bytes.size());
  }

  DecodeDiagnostics diag;
  const auto repaired = deserialize_tolerant(bytes, &diag);
  EXPECT_TRUE(diag.truncated);
  EXPECT_GT(diag.segments_missing, 0u);
  EXPECT_EQ(decompress(repaired).size(), layer.original_count);
}

TEST(CodecCorruption, TolerantOnCleanStreamMatchesStrict) {
  const auto w = gaussian_weights(2000, 56);
  CodecConfig cfg;
  cfg.delta_percent = 10.0;
  cfg.segment_checksum = true;
  const auto bytes = serialize(compress(w, cfg));
  DecodeDiagnostics diag;
  const auto tolerant = deserialize_tolerant(bytes, &diag);
  EXPECT_EQ(diag.segments_corrupted, 0u);
  EXPECT_EQ(diag.segments_missing, 0u);
  EXPECT_FALSE(diag.truncated);
  EXPECT_EQ(decompress(tolerant), decompress(deserialize(bytes)));
}

TEST(CodecCorruption, HeaderCorruptionIsFatalEvenForTolerant) {
  const auto w = gaussian_weights(500, 57);
  CodecConfig cfg;
  cfg.segment_checksum = true;
  auto bytes = serialize(compress(w, cfg));
  bytes[0] ^= 0xFF;  // magic
  EXPECT_THROW(deserialize(bytes), DecodeError);
  EXPECT_THROW(deserialize_tolerant(bytes), DecodeError);
}

// Property sweep over δ values: reconstruction must always tile and MSE must
// equal the replayed reconstruction error.
class CodecDeltaSweep : public ::testing::TestWithParam<double> {};

TEST_P(CodecDeltaSweep, InvariantsHold) {
  const double delta = GetParam();
  const auto w = gaussian_weights(20000, 52);
  CodecConfig cfg;
  cfg.delta_percent = delta;
  const auto layer = compress(w, cfg);
  const auto out = decompress(layer);
  ASSERT_EQ(out.size(), w.size());
  EXPECT_NEAR(layer.mse(), mean_squared_error(w, out), 1e-12);
  EXPECT_GE(layer.compression_ratio(), 0.4);
  for (const auto& s : layer.segments) {
    EXPECT_GE(s.length, 1u);
    EXPECT_LE(s.length, 256u);
  }
}

// The streaming path must be compress() + decompress() bit for bit: the
// reconstruction's bytes, the segment count, δ and the replayed SSE, for
// every field width that changes the fit (coef_bits) or caps the segments
// (length_bits).
TEST_P(CodecDeltaSweep, CompressIntoMatchesCompressBitwise) {
  const double delta = GetParam();
  const auto w = gaussian_weights(20000, 52);
  const double range = value_range(w);
  for (unsigned coef_bits : {32U, 16U}) {
    for (unsigned length_bits : {8U, 4U}) {
      SCOPED_TRACE("coef_bits " + std::to_string(coef_bits) +
                   " length_bits " + std::to_string(length_bits));
      CodecConfig cfg;
      cfg.delta_percent = delta;
      cfg.coef_bits = coef_bits;
      cfg.length_bits = length_bits;
      const CompressedLayer layer = compress(w, cfg);
      const std::vector<float> ref = decompress(layer);
      std::vector<float> out(w.size(), std::numeric_limits<float>::quiet_NaN());
      const CompressionStats st = compress_into(w, cfg, range, out);
      EXPECT_EQ(std::memcmp(out.data(), ref.data(), ref.size() * sizeof(float)),
                0);
      EXPECT_EQ(st.segment_count, layer.segments.size());
      EXPECT_EQ(st.original_count, layer.original_count);
      EXPECT_EQ(std::memcmp(&st.delta_abs, &layer.delta_abs, sizeof(double)),
                0);
      EXPECT_EQ(std::memcmp(&st.sse, &layer.sse, sizeof(double)), 0);
      EXPECT_EQ(st.config.coef_bits, layer.config.coef_bits);
      EXPECT_EQ(st.compressed_bits(), layer.compressed_bits());
    }
  }
}

/// compress_stream()'s blocks, checked to be `block` long but for a shorter
/// last one, concatenated.
std::vector<float> streamed(std::span<const float> w, const CodecConfig& cfg,
                            double range, std::size_t block,
                            CompressionStats& st) {
  std::vector<float> out;
  bool short_seen = false;
  st = compress_stream(w, cfg, range, block, [&](std::span<const float> b) {
    EXPECT_FALSE(short_seen) << "a short block before the end";
    EXPECT_GT(b.size(), 0u);
    EXPECT_LE(b.size(), block);
    short_seen = b.size() < block;
    out.insert(out.end(), b.begin(), b.end());
  });
  return out;
}

// The streamed form hands over compress_into()'s output in order, whatever
// the block size: blocks shorter and longer than a 256-weight segment, one
// weight, and one block for the whole layer or more. The statistics are
// compress_into()'s bit for bit, the SSE included (one left fold in
// element order either way).
TEST_P(CodecDeltaSweep, CompressStreamBlocksConcatenateToCompressInto) {
  const double delta = GetParam();
  const auto w = gaussian_weights(20000, 52);
  const double range = value_range(w);
  for (unsigned length_bits : {8U, 4U}) {
    CodecConfig cfg;
    cfg.delta_percent = delta;
    cfg.length_bits = length_bits;
    std::vector<float> want(w.size());
    const CompressionStats ref = compress_into(w, cfg, range, want);
    for (const std::size_t block :
         {std::size_t{1}, std::size_t{7}, std::size_t{255}, std::size_t{256},
          std::size_t{257}, std::size_t{64 * 37}, w.size() - 1, w.size(),
          w.size() + 5}) {
      SCOPED_TRACE("length_bits " + std::to_string(length_bits) +
                   " block " + std::to_string(block));
      CompressionStats st;
      const std::vector<float> got = streamed(w, cfg, range, block, st);
      ASSERT_EQ(got.size(), want.size());
      EXPECT_EQ(std::memcmp(got.data(), want.data(), want.size() * 4), 0);
      EXPECT_EQ(st.segment_count, ref.segment_count);
      EXPECT_EQ(st.original_count, ref.original_count);
      EXPECT_EQ(std::memcmp(&st.delta_abs, &ref.delta_abs, sizeof(double)),
                0);
      EXPECT_EQ(std::memcmp(&st.sse, &ref.sse, sizeof(double)), 0);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(DeltaGrid, CodecDeltaSweep,
                         ::testing::Values(0.0, 1.0, 2.0, 4.0, 5.0, 6.0, 8.0,
                                           10.0, 15.0, 20.0, 30.0, 50.0));

// compress() splits layers longer than one 2^17-weight chunk across the pool
// in windows of 12 chunks and stitches the lanes into the serial
// segmentation. These inputs span more than three windows.
constexpr std::size_t kChunk = std::size_t{1} << 17;
constexpr std::size_t kChunkedN = 3 * 12 * kChunk + 77'777;

/// compress() rebuilt from the public pieces, serially: segment_weights,
/// fit_line and quantize_coefficient per segment, and the SSE as a left
/// fold over the Eq. 2 reconstruction. The reconstruction is decompress()'s
/// float recurrence without its validation, so NaN inputs can be scored.
CompressedLayer oracle_compress(std::span<const float> w,
                                const CodecConfig& cfg) {
  CompressedLayer layer;
  layer.config = cfg;
  layer.original_count = w.size();
  float lo = w.empty() ? 0.0F : w[0];
  float hi = lo;
  for (float v : w) {
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  layer.delta_abs = delta_from_percent(
      cfg.delta_percent, static_cast<double>(hi) - static_cast<double>(lo));
  SegmenterConfig scfg;
  scfg.delta = layer.delta_abs;
  scfg.max_length = std::size_t{1} << cfg.length_bits;
  for (const Segment& seg : segment_weights(w, scfg)) {
    const LineFit fit = fit_line(w.subspan(seg.first, seg.length));
    layer.segments.push_back(
        CompressedSegment{quantize_coefficient(fit.m, cfg.coef_bits),
                          quantize_coefficient(fit.q, cfg.coef_bits),
                          static_cast<std::uint32_t>(seg.length)});
  }
  std::size_t i = 0;
  for (const CompressedSegment& s : layer.segments) {
    float r = s.q;
    for (std::uint32_t j = 0; j < s.length; ++j, ++i) {
      const double err = static_cast<double>(w[i]) - static_cast<double>(r);
      layer.sse += err * err;
      r += s.m;
    }
  }
  return layer;
}

void expect_same_layer(const CompressedLayer& got,
                       const CompressedLayer& want) {
  ASSERT_EQ(got.segments.size(), want.segments.size());
  EXPECT_EQ(std::memcmp(got.segments.data(), want.segments.data(),
                        want.segments.size() * sizeof(CompressedSegment)),
            0);
  EXPECT_EQ(std::memcmp(&got.sse, &want.sse, sizeof(double)), 0)
      << got.sse << " vs " << want.sse;
  EXPECT_EQ(std::memcmp(&got.delta_abs, &want.delta_abs, sizeof(double)), 0);
  EXPECT_EQ(got.original_count, want.original_count);
  EXPECT_EQ(got.config.coef_bits, want.config.coef_bits);
  EXPECT_EQ(got.config.length_bits, want.config.length_bits);
  EXPECT_EQ(got.config.segment_checksum, want.config.segment_checksum);
  EXPECT_EQ(got.compressed_bits(), want.compressed_bits());
}

struct ChunkedCase {
  double delta_percent;
  unsigned coef_bits;
  unsigned length_bits;
};

class ChunkedCompress : public ::testing::TestWithParam<ChunkedCase> {
 protected:
  void SetUp() override { threads_ = global_thread_count(); }
  void TearDown() override { set_global_threads(threads_); }

  /// compress(w, cfg) under 1, 2 and 8 threads equals the oracle.
  static void expect_matches_oracle(std::span<const float> w,
                                    const CodecConfig& cfg) {
    const CompressedLayer want = oracle_compress(w, cfg);
    for (unsigned threads : {1U, 2U, 8U}) {
      SCOPED_TRACE("threads " + std::to_string(threads));
      set_global_threads(threads);
      expect_same_layer(compress(w, cfg), want);
    }
  }

  static CodecConfig config(double delta_percent, unsigned length_bits) {
    CodecConfig cfg;
    cfg.delta_percent = delta_percent;
    cfg.length_bits = length_bits;
    return cfg;
  }

 private:
  unsigned threads_ = 1;
};

TEST_P(ChunkedCompress, MatchesSerialOracleBitwise) {
  static const std::vector<float> w = gaussian_weights(kChunkedN, 61);
  CodecConfig cfg = config(GetParam().delta_percent, GetParam().length_bits);
  cfg.coef_bits = GetParam().coef_bits;
  cfg.segment_checksum = true;
  expect_matches_oracle(w, cfg);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ChunkedCompress,
    ::testing::Values(ChunkedCase{0, 32, 8}, ChunkedCase{0, 16, 2},
                      ChunkedCase{0, 32, 20}, ChunkedCase{2, 16, 8},
                      ChunkedCase{2, 32, 2}, ChunkedCase{2, 16, 20},
                      ChunkedCase{8, 32, 8}, ChunkedCase{8, 16, 2},
                      ChunkedCase{8, 32, 20}, ChunkedCase{20, 16, 8},
                      ChunkedCase{20, 32, 2}, ChunkedCase{20, 16, 20}));

// Fig. 5's worst case: a pairwise alternating run. At δ = 0 it splits into
// pairs, so a lane that starts it at odd parity never meets the serial
// boundaries inside the run; the run spans two chunks, so that lane gives up
// and the stitcher continues serially. At δ = 20% the run is one capped
// segment after another.
TEST_F(ChunkedCompress, Fig5AlternatingRunAcrossChunks) {
  std::vector<float> w = gaussian_weights(kChunkedN, 62);
  for (std::size_t i = 5 * kChunk - 3; i < 7 * kChunk + 11; ++i) {
    w[i] = (i % 2 == 0) ? 0.01F : -0.01F;
  }
  for (double delta : {0.0, 20.0}) {
    SCOPED_TRACE("delta " + std::to_string(delta));
    expect_matches_oracle(w, config(delta, 8));
  }
}

// A rising ramp longer than the 256-weight cap, crossing a chunk start off
// the cap's grid: the lane started there cuts the ramp at other places
// than the serial pass until the ramp ends.
TEST_F(ChunkedCompress, RampLongerThanCapAcrossChunkBoundary) {
  std::vector<float> w = gaussian_weights(kChunkedN, 63);
  const std::size_t begin = 9 * kChunk - 1000;
  for (std::size_t i = begin; i < begin + 5000; ++i) {
    w[i] = -0.2F + 1e-5F * static_cast<float>(i - begin);
  }
  for (double delta : {0.0, 8.0}) {
    SCOPED_TRACE("delta " + std::to_string(delta));
    expect_matches_oracle(w, config(delta, 8));
  }
}

TEST_F(ChunkedCompress, NaNAtChunkStart) {
  std::vector<float> w = gaussian_weights(kChunkedN, 64);
  w[2 * kChunk] = std::numeric_limits<float>::quiet_NaN();
  w[13 * kChunk] = std::numeric_limits<float>::quiet_NaN();
  w[13 * kChunk + 1] = std::numeric_limits<float>::quiet_NaN();
  expect_matches_oracle(w, config(2.0, 8));
}

// Constant weights with a cap longer than a chunk: no lane meets a shared
// boundary within its overrun budget, so every boundary comes from the
// stitcher's serial fallback. 2^18 is the shortest cap that forces it.
TEST_F(ChunkedCompress, ForcedSerialFallbackOnConstantWeights) {
  std::vector<float> w(kChunkedN, 0.25F);
  for (unsigned length_bits : {18U, 20U}) {
    SCOPED_TRACE("length_bits " + std::to_string(length_bits));
    expect_matches_oracle(w, config(0.0, length_bits));
  }
  // A constant plateau inside noisy weights: lanes meet before and after it.
  w = gaussian_weights(kChunkedN, 65);
  std::fill(w.begin() + 20 * kChunk + 5, w.begin() + 23 * kChunk, 0.1F);
  expect_matches_oracle(w, config(0.0, 18));
}

}  // namespace
}  // namespace nocw::core
