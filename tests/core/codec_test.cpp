#include "core/codec.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/rng.hpp"
#include "util/stats.hpp"

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

INSTANTIATE_TEST_SUITE_P(DeltaGrid, CodecDeltaSweep,
                         ::testing::Values(0.0, 1.0, 2.0, 4.0, 5.0, 6.0, 8.0,
                                           10.0, 15.0, 20.0, 30.0, 50.0));

}  // namespace
}  // namespace nocw::core
