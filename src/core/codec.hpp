// Lossy weights codec (paper Sec. III-B, III-C).
//
// Compression pipeline: greedy weak-monotonic segmentation with tolerance δ
// (segment.hpp; segment ends found from kill bitmasks, segment_scan.hpp) →
// per-segment least-squares line fit (linefit.hpp) → each segment stored as
// the triple ⟨m_i, q_i, |M_i|⟩. Decompression reconstructs
// w̃_1 = q_i, w̃_j = w̃_{j-1} + m_i (Eq. 2) — accumulation only, no multiply —
// exactly what the per-PE hardware decompression unit of Fig. 6 computes.
//
// compress() keeps the segments (for serialization, the decompressor unit
// and multi-δ caches). compress_into() streams instead, as the hardware does:
// each segment is reconstructed and scored the moment it closes, while its
// ≤ 256 weights are still in L1, and is then dropped. compress_stream() goes
// one step further and never holds the whole reconstruction: it hands it to
// a sink in fixed-size blocks, which is how the δ-sweep feeds a layer's
// GEMM panel by panel (DESIGN.md §18). All three run the one segmentation
// scan and line fit and agree bit for bit (sizes, SSE and weights).
// compress() of a layer longer than one chunk, called outside a parallel
// region, runs them on every lane of the global pool, one chunk per lane,
// and stitches the chunks into the serial segmentation: a segment's end
// depends only on the kill bits after its start, so a lane agrees with the
// serial pass from their first shared boundary on (DESIGN.md §18). Its
// output is the same bit for bit at any thread count.
//
// Field widths are configurable so the storage-cost model can be explored
// (an ablation the paper leaves implicit): coefficients may be rounded to a
// truncated float32 (keeping the top `coef_bits` of the IEEE-754 encoding,
// i.e. bfloat16 when coef_bits = 16) and the segment length occupies
// `length_bits` bits, which also caps |M_i| at 2^length_bits.
#pragma once

#include <cstdint>
#include <cstddef>
#include <functional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/segment.hpp"

namespace nocw::core {

/// Raised when a compressed stream (or an in-memory CompressedLayer built
/// from one) is malformed: bad magic/version, truncation, a segment that
/// overruns the declared weight count, non-finite coefficients, or a failed
/// per-segment checksum. Never undefined behaviour — a corrupted stream is a
/// runtime input, not a programming error. `bit_offset()` locates the first
/// offending bit of the input stream (0 when the error is not tied to a
/// stream position, e.g. validation of an in-memory layer).
class DecodeError : public std::runtime_error {
 public:
  explicit DecodeError(const std::string& what, std::size_t bit_offset = 0)
      : std::runtime_error(what), bit_offset_(bit_offset) {}

  [[nodiscard]] std::size_t bit_offset() const noexcept { return bit_offset_; }
  [[nodiscard]] std::size_t byte_offset() const noexcept {
    return bit_offset_ / 8;
  }

 private:
  std::size_t bit_offset_;
};

struct CodecConfig {
  /// Tolerance threshold δ as a percentage of max(W)-min(W), the convention
  /// used throughout the paper's Table II / Fig. 10 ("δ = x%").
  double delta_percent = 0.0;

  /// Bits stored per line coefficient (m and q). 32 keeps exact float32;
  /// 16 truncates to bfloat16. Must be in [9, 32].
  unsigned coef_bits = 32;

  /// Bits of the segment-length field; caps |M_i| at 2^length_bits.
  unsigned length_bits = 8;

  /// Bits per weight in the *uncompressed* representation (32 for float
  /// models, 8 for int8-quantized models). Only used for ratio accounting.
  unsigned weight_bits = 32;

  /// Append a CRC-8 to every serialized ⟨m, q, len⟩ record so a corrupted
  /// segment is detected (and can be zeroed by deserialize_tolerant) instead
  /// of silently reconstructing garbage weights. Costs 8 bits per segment in
  /// compressed_bits(); off by default so the paper's Table II numbers are
  /// unchanged.
  bool segment_checksum = false;

  /// Bits one serialized ⟨m, q, len⟩ record occupies:
  /// 2·coef_bits + length_bits, plus 8 with the CRC-8.
  [[nodiscard]] std::size_t segment_bits() const noexcept {
    return 2 * static_cast<std::size_t>(coef_bits) + length_bits +
           (segment_checksum ? 8 : 0);
  }
};

/// Size and error of one compression, without the segments themselves: the
/// single home of the paper's bit accounting. CompressedLayer reports
/// through it, and it is all compress_into() returns.
struct CompressionStats {
  std::size_t segment_count = 0;
  std::size_t original_count = 0;  ///< n = |W|
  double delta_abs = 0.0;          ///< absolute δ used for segmentation
  double sse = 0.0;                ///< Σ (w_i - w̃_i)² after Eq. 2 replay
  CodecConfig config;

  /// Payload bits of the compressed representation (no container header).
  [[nodiscard]] std::size_t compressed_bits() const noexcept;
  /// Bits of the uncompressed representation.
  [[nodiscard]] std::size_t original_bits() const noexcept;
  /// CR column of Table II: original bits / compressed bits.
  [[nodiscard]] double compression_ratio() const noexcept;
  /// MSE column of Table II.
  [[nodiscard]] double mse() const noexcept;
  /// Mean |M_i|.
  [[nodiscard]] double mean_segment_length() const noexcept;
};

/// One encoded sub-succession: the fitted line and how many weights it
/// reconstructs. Coefficients are stored post-quantization, i.e. exactly the
/// values the decompressor will use.
struct CompressedSegment {
  float m = 0.0F;
  float q = 0.0F;
  std::uint32_t length = 0;
};

/// A compressed weight succession plus the bookkeeping needed for the
/// paper's metrics.
struct CompressedLayer {
  std::vector<CompressedSegment> segments;
  std::size_t original_count = 0;  ///< n = |W|
  double delta_abs = 0.0;          ///< absolute δ used for segmentation
  double sse = 0.0;                ///< Σ (w_i - w̃_i)² after Eq. 2 replay
  CodecConfig config;

  /// The layer's size and error; the accessors below read through it.
  [[nodiscard]] CompressionStats stats() const noexcept {
    return {segments.size(), original_count, delta_abs, sse, config};
  }
  [[nodiscard]] std::size_t compressed_bits() const noexcept;
  [[nodiscard]] std::size_t original_bits() const noexcept;
  [[nodiscard]] double compression_ratio() const noexcept;
  [[nodiscard]] double mse() const noexcept;
  [[nodiscard]] double mean_segment_length() const noexcept;
};

/// Compress `weights` with tolerance δ = cfg.delta_percent % of the range.
/// One pass segments and fits; a replay pass over the segments, in element
/// order, records the exact Eq. 2 SSE. Both run on the global pool when the
/// layer spans several chunks, with output independent of the thread count.
CompressedLayer compress(std::span<const float> weights,
                         const CodecConfig& cfg);

/// Compress `weights` and write the reconstruction decompress(compress())
/// would produce straight into `out`, in one pass that never stores a
/// segment. `range` is value_range(weights), so a caller compressing one
/// layer at many δ computes it once. Returns compress()'s statistics bit
/// for bit. Throws std::invalid_argument unless out.size() == weights.size().
/// Every element of `out` is written, so it may start uninitialized.
CompressionStats compress_into(std::span<const float> weights,
                               const CodecConfig& cfg, double range,
                               std::span<float> out);

/// Receives the reconstruction of compress_stream(), one block at a time.
using BlockSink = std::function<void(std::span<const float>)>;

/// compress_into() without the output buffer: the reconstruction goes to
/// `sink` in order, `block` weights at a time (the last block may be
/// shorter), and the pass holds only one block plus one maximum-length
/// segment. Segments cross block boundaries freely. Returns compress()'s
/// statistics bit for bit, and the blocks concatenate to compress_into()'s
/// output. Throws std::invalid_argument when block is 0.
CompressionStats compress_stream(std::span<const float> weights,
                                 const CodecConfig& cfg, double range,
                                 std::size_t block, const BlockSink& sink);

/// Reconstruct the approximated weights via Eq. (2). `out.size()` must equal
/// `layer.original_count`. Segment headers are validated first: a length that
/// would overrun `out`, a non-finite m or q, or lengths that fail to tile the
/// layer throw DecodeError — never an out-of-bounds write.
void decompress(const CompressedLayer& layer, std::span<float> out);
std::vector<float> decompress(const CompressedLayer& layer);

/// Serialize to the bit-packed storage format (what main memory would hold).
std::vector<std::uint8_t> serialize(const CompressedLayer& layer);
/// Parse a bit-packed stream back; throws DecodeError (with the offending
/// bit/byte offset in the message) on any corruption: short header, bad
/// magic/version, infeasible field widths, a declared segment count the
/// remaining bytes cannot hold, a failed per-segment CRC-8, non-finite
/// coefficients, or lengths that do not tile original_count.
CompressedLayer deserialize(std::span<const std::uint8_t> bytes);

/// What deserialize_tolerant had to repair. All zero ⇔ the stream was clean.
struct DecodeDiagnostics {
  std::size_t segments_total = 0;      ///< records the header declared
  std::size_t segments_corrupted = 0;  ///< CRC-8/validity failures, zeroed
  std::size_t segments_missing = 0;    ///< synthesized to cover truncation
  bool truncated = false;              ///< stream ended mid-payload
};

/// Best-effort parse for accuracy-under-fault studies: instead of throwing,
/// a segment whose CRC-8 fails (or whose coefficients are non-finite) keeps
/// its length but has m = q = 0, truncated tails are padded with zero
/// segments, and overrunning lengths are clamped — so the result always
/// decompresses to exactly `original_count` weights. Header corruption is
/// still fatal (DecodeError): without magic/version/counts there is nothing
/// to tolerate. `diag`, when non-null, reports what was repaired.
CompressedLayer deserialize_tolerant(std::span<const std::uint8_t> bytes,
                                     DecodeDiagnostics* diag = nullptr);

/// Round a double coefficient to the top `bits` bits of its float32 encoding
/// (round-to-nearest on the dropped mantissa bits). bits == 32 is exact.
float quantize_coefficient(double value, unsigned bits) noexcept;

}  // namespace nocw::core
