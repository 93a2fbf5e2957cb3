#include "core/codec.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <memory>
#include <stdexcept>

#include "core/segment_scan.hpp"
#include "util/bitio.hpp"
#include "util/stats.hpp"
#include "util/thread_pool.hpp"

namespace nocw::core {

namespace {

constexpr std::uint64_t kMagic = 0xC17E;  // "compressed-tensor"
// v2 adds the flags byte (bit 0 = per-segment CRC-8) after the version.
constexpr std::uint64_t kVersion = 2;
constexpr std::uint64_t kFlagSegmentChecksum = 0x1;

unsigned clamp_coef_bits(unsigned bits) {
  if (bits < 9) return 9;    // sign + 8 exponent bits is the usable minimum
  if (bits > 32) return 32;
  return bits;
}

std::size_t max_segment_length(unsigned length_bits) {
  // The field stores |M_i| - 1, so length_bits bits encode up to 2^bits.
  if (length_bits >= 24) return std::size_t{1} << 24;  // sanity cap
  return std::size_t{1} << length_bits;
}

/// CRC-8 (poly 0x07) folded over the low `bytes` bytes of `value`,
/// little-endian — covers exactly the field values as stored, so any bit
/// flip inside a serialized record changes the checksum.
std::uint8_t crc8_update(std::uint8_t crc, std::uint64_t value,
                         unsigned bytes) {
  for (unsigned i = 0; i < bytes; ++i) {
    crc ^= static_cast<std::uint8_t>(value >> (8 * i));
    for (int b = 0; b < 8; ++b) {
      crc = static_cast<std::uint8_t>((crc << 1) ^ ((crc & 0x80U) ? 0x07 : 0));
    }
  }
  return crc;
}

std::uint8_t segment_crc8(std::uint64_t raw_m, std::uint64_t raw_q,
                          std::uint64_t len_field) {
  std::uint8_t crc = 0xFF;
  crc = crc8_update(crc, raw_m, 4);
  crc = crc8_update(crc, raw_q, 4);
  crc = crc8_update(crc, len_field, 4);
  return crc;
}

[[noreturn]] void size_mismatch(const char* who, std::size_t out_size,
                                std::size_t weights) {
  throw std::invalid_argument(std::string(who) + ": output size mismatch: " +
                              std::to_string(out_size) + " floats for " +
                              std::to_string(weights) + " weights");
}

[[noreturn]] void fail(const std::string& what, std::size_t bit_offset) {
  throw DecodeError(what + " (bit " + std::to_string(bit_offset) + ", byte " +
                        std::to_string(bit_offset / 8) + ")",
                    bit_offset);
}

}  // namespace

namespace {

/// quantize_coefficient() for `bits` already in [9, 32].
[[gnu::always_inline]] inline float round_coefficient(double value,
                                                      unsigned bits) noexcept {
  const auto f = static_cast<float>(value);
  if (bits == 32) return f;
  std::uint32_t raw;
  std::memcpy(&raw, &f, sizeof(raw));
  const unsigned drop = 32 - bits;
  // Round to nearest on the dropped bits; a carry that ripples into the
  // exponent is the correct IEEE rounding behaviour.
  raw += (1u << (drop - 1));
  raw &= ~((1u << drop) - 1u);
  float out;
  std::memcpy(&out, &raw, sizeof(out));
  return out;
}

}  // namespace

float quantize_coefficient(double value, unsigned bits) noexcept {
  return round_coefficient(value, clamp_coef_bits(bits));
}

namespace {

/// Σx and the centered Σ(x-x̄)² of the ramp x = 0..len-1, computed
/// exactly as LineFitAccumulator::fit computes them.
struct RampSums {
  double sx = 0.0;
  double sxx_c = 0.0;
};

constexpr RampSums ramp_sums(std::size_t len) {
  const auto n = static_cast<double>(len);
  const double sx = n * (n - 1.0) / 2.0;
  const double sxx = (n - 1.0) * n * (2.0 * n - 1.0) / 6.0;
  return {sx, sxx - sx * sx / n};
}

// Ramp sums for every length the default 8-bit length field allows. A
// constant-initialized table: no guard, no run-time initializer.
constexpr std::size_t kRampTableSize = 257;
constexpr auto kRampTable = [] {
  std::array<RampSums, kRampTableSize> table{};
  for (std::size_t len = 1; len < kRampTableSize; ++len) {
    table[len] = ramp_sums(len);
  }
  return table;
}();

/// Least-squares line of the segment y[0..len) and its quantized triple:
/// m and q bit for bit as LineFitAccumulator::fit, with the same sums in
/// the same element order (Σy², which only its residual reads, is skipped).
[[gnu::always_inline]] inline CompressedSegment fit_segment(
    const float* y, std::size_t len, unsigned coef_bits) {
  double sy = 0.0;
  double sxy = 0.0;
  double x = 0.0;  // j, exactly
  for (std::size_t j = 0; j < len; ++j) {
    const auto v = static_cast<double>(y[j]);
    sy += v;
    sxy += x * v;
    x += 1.0;
  }
  double m = 0.0;
  double q = sy;
  if (len > 1) {
    const RampSums r = len < kRampTableSize ? kRampTable[len] : ramp_sums(len);
    const auto n = static_cast<double>(len);
    const double sxy_c = sxy - r.sx * sy / n;
    m = sxy_c / r.sxx_c;
    q = (sy - m * r.sx) / n;
  }
  CompressedSegment s;
  s.m = round_coefficient(m, coef_bits);
  s.q = round_coefficient(q, coef_bits);
  s.length = static_cast<std::uint32_t>(len);
  return s;
}

/// The Eq. 1 segmentation + line-fit loop behind compress() and its chunk
/// lanes. A fresh segment opens at weights[begin], and `sink(segment, first)`
/// is called for each segment in order, where `first` indexes the segment's
/// first weight; `cfg.coef_bits` must already be clamped. The loop stops
/// early when the sink returns false, and otherwise at `end`: a segment that
/// reaches `end` is emitted only when `end` is the end of `weights`. Returns the first weight of the segment it did not emit
/// (weights.size() once all are), i.e. the last segment boundary it
/// reached.
template <class Sink>
std::size_t fit_segments(std::span<const float> weights, std::size_t begin,
                         std::size_t end, double delta_abs,
                         const CodecConfig& cfg, Sink&& sink) {
  SegmentScan scan(weights, delta_abs, max_segment_length(cfg.length_bits));
  const bool flush = end == weights.size();
  std::size_t first = begin;
  while (first < end) {
    const std::size_t last = scan.end_of(first, end);
    if (last == end && !flush) break;
    const bool more = sink(
        fit_segment(weights.data() + first, last - first, cfg.coef_bits),
        first);
    first = last;
    if (!more) break;
  }
  return first;
}

/// Replay Eq. (2) for one segment in float — exactly what the hardware
/// decompressor produces, including accumulation drift — against its source
/// weights `src`, adding each squared error to `sse` in element order, and
/// return the new sum. With kStore the reconstruction also lands in `out`.
template <bool kStore>
[[gnu::always_inline]] inline double replay_segment(
    const CompressedSegment& s, const float* src, double sse, float* out) {
  float w = s.q;
  for (std::uint32_t j = 0; j < s.length; ++j) {
    if constexpr (kStore) out[j] = w;
    const double err = static_cast<double>(src[j]) - static_cast<double>(w);
    sse += err * err;
    w += s.m;
  }
  return sse;
}

CompressionStats begin_stats(std::span<const float> weights,
                             const CodecConfig& cfg, double range) {
  CompressionStats st;
  st.config = cfg;
  st.config.coef_bits = clamp_coef_bits(cfg.coef_bits);
  st.original_count = weights.size();
  st.delta_abs = delta_from_percent(cfg.delta_percent, range);
  return st;
}

// Weights per lane of the chunked compress(), and chunks per window: the
// stitch and SSE replay of one window overlap the fits of the next, so lane
// buffers hold about two windows of segments at any time. Constants, so the
// work split never depends on the thread count (the output never depends
// on either).
constexpr std::size_t kCompressChunk = std::size_t{1} << 17;
constexpr std::size_t kCompressWindow = 12;

/// The segmentation a lane of the chunked compress() runs from the chunk
/// start at or before each index: a fresh segmentation, restarted at every
/// multiple of kCompressChunk from `from` (itself one) on.
class ChunkProbe {
 public:
  ChunkProbe(std::span<const float> weights, std::size_t from,
             double delta_abs, std::size_t max_length) noexcept
      : scan_(weights, delta_abs, max_length),
        size_(weights.size()),
        boundary_(from) {}

  /// True when the lane of the chunk holding `e` opens a segment at `e`.
  /// Successive calls must pass nondecreasing e >= from, e < weights.size().
  bool opens_at(std::size_t e) noexcept {
    while (boundary_ < e) {
      const std::size_t chunk_end =
          (boundary_ / kCompressChunk + 1) * kCompressChunk;
      boundary_ = scan_.end_of(boundary_, std::min(chunk_end, size_));
    }
    return boundary_ == e;
  }

 private:
  SegmentScan scan_;
  std::size_t size_;
  std::size_t boundary_;
};

struct LaneStop {
  std::size_t at = 0;  ///< last segment boundary reached
  bool met = false;  ///< `at` is the end, or where the lane of its chunk opens
};

/// Segment and fit from `begin` — a chunk start, or a boundary of the serial
/// segmentation — appending to `out`. Past the next chunk start the lane
/// watches that chunk's own lane (a ChunkProbe) and stops at the first
/// boundary both open, where the two segmentations agree from then on: the
/// end of a segment depends only on the weights from its first one on,
/// whatever came before. Stops unmet at `limit` when no shared boundary came
/// first.
LaneStop run_lane(std::span<const float> weights, std::size_t begin,
                  std::size_t limit, double delta_abs, const CodecConfig& cfg,
                  std::vector<CompressedSegment>& out) {
  const std::size_t watch_from = (begin / kCompressChunk + 1) * kCompressChunk;
  ChunkProbe probe(weights, watch_from, delta_abs,
                   max_segment_length(cfg.length_bits));
  LaneStop stop;
  stop.at = fit_segments(
      weights, begin, limit, delta_abs, cfg,
      [&](const CompressedSegment& s, std::size_t first) {
        out.push_back(s);
        const std::size_t e = first + s.length;
        if (e < watch_from || e == weights.size() || !probe.opens_at(e)) {
          return true;
        }
        stop.met = true;
        return false;
      });
  stop.met = stop.met || stop.at == weights.size();
  return stop;
}

/// Chunked compress(): chunks are segmented and fitted by run_lane on the
/// pool, one window of kCompressWindow chunks per parallel_for, and stitched
/// in order into the serial segmentation. Task 0 of each window stitches and
/// replays the previous window, so the SSE keeps its serial element order.
class ChunkedCompress {
 public:
  ChunkedCompress(std::span<const float> weights, CompressedLayer& layer)
      : weights_(weights), layer_(layer) {}

  void run(ThreadPool& pool) {
    const std::size_t chunks =
        (weights_.size() + kCompressChunk - 1) / kCompressChunk;
    const std::size_t windows =
        (chunks + kCompressWindow - 1) / kCompressWindow;
    std::vector<Lane> lanes(2 * kCompressWindow);
    for (std::size_t w = 0; w < windows; ++w) {
      Lane* fitting = &lanes[(w % 2) * kCompressWindow];
      Lane* stitching = &lanes[((w + 1) % 2) * kCompressWindow];
      pool.parallel_for(
          0, kCompressWindow + 1, 1,
          [&](std::size_t first, std::size_t last, unsigned) {
            for (std::size_t t = first; t < last; ++t) {
              if (t == 0) {
                if (w > 0) stitch(w - 1, stitching);
                continue;
              }
              const std::size_t k = w * kCompressWindow + t - 1;
              if (k < chunks) fit(k, fitting[t - 1]);
            }
          });
      if (w == 0) reserve_like(lanes);
    }
    stitch(windows - 1, &lanes[((windows - 1) % 2) * kCompressWindow]);
    layer_.sse = sse_;
  }

 private:
  struct Lane {
    std::vector<CompressedSegment> segments;  // reused across windows
    LaneStop stop;
  };

  /// Size layer_.segments from the first window's segment density, plus an
  /// eighth, so the stitcher's appends rarely reallocate: a serial
  /// reallocation copies every segment kept so far, on the critical path.
  void reserve_like(const std::vector<Lane>& first_window) {
    std::size_t segments = 0;
    std::size_t covered = 0;
    for (std::size_t t = 0; t < kCompressWindow; ++t) {
      segments += first_window[t].segments.size();
      covered = std::max(covered, first_window[t].stop.at);
    }
    const double per_weight =
        static_cast<double>(segments) /
        static_cast<double>(std::max<std::size_t>(covered, 1));
    layer_.segments.reserve(static_cast<std::size_t>(
        per_weight * 1.125 * static_cast<double>(weights_.size())));
  }

  void fit(std::size_t k, Lane& lane) const {
    lane.segments.clear();
    lane.stop = run_lane(
        weights_, k * kCompressChunk,
        std::min(weights_.size(), (k + 2) * kCompressChunk),
        layer_.delta_abs, layer_.config, lane.segments);
  }

  /// Append window `w`'s lanes from the serial boundary pos_ on, then replay
  /// the new segments. A lane whose chunk an earlier lane's overrun (or a
  /// fallback) already covered is skipped; an unmet lane ends in a serial
  /// fallback from its last boundary, which a segmentation started there
  /// continues exactly, until it meets a later chunk's lane.
  void stitch(std::size_t w, const Lane* lanes) {
    for (std::size_t t = 0; t < kCompressWindow; ++t) {
      const std::size_t k = w * kCompressWindow + t;
      if (k != aligned_ || pos_ == weights_.size()) continue;
      const Lane& lane = lanes[t];
      std::size_t first = k * kCompressChunk;
      auto it = lane.segments.begin();
      while (first < pos_) first += (it++)->length;
      layer_.segments.insert(layer_.segments.end(), it, lane.segments.end());
      LaneStop stop = lane.stop;
      if (!stop.met) {
        stop = run_lane(weights_, stop.at, weights_.size(), layer_.delta_abs,
                        layer_.config, layer_.segments);
      }
      pos_ = stop.at;
      aligned_ = pos_ / kCompressChunk;
    }
    for (; replayed_ < layer_.segments.size(); ++replayed_) {
      const CompressedSegment& s = layer_.segments[replayed_];
      sse_ = replay_segment<false>(s, weights_.data() + replay_pos_, sse_,
                                   nullptr);
      replay_pos_ += s.length;
    }
  }

  std::span<const float> weights_;
  CompressedLayer& layer_;
  std::size_t pos_ = 0;      // weights before pos_ are in layer_.segments
  std::size_t aligned_ = 0;  // chunk whose lane opens a segment at pos_
  std::size_t replayed_ = 0;
  std::size_t replay_pos_ = 0;
  double sse_ = 0.0;
};

}  // namespace

CompressedLayer compress(std::span<const float> weights,
                         const CodecConfig& cfg) {
  const CompressionStats st = begin_stats(weights, cfg, value_range(weights));
  CompressedLayer layer;
  layer.config = st.config;
  layer.original_count = st.original_count;
  layer.delta_abs = st.delta_abs;
  ThreadPool& pool = global_pool();
  if (weights.size() > kCompressChunk && pool.size() > 1 &&
      !ThreadPool::in_parallel_region()) {
    ChunkedCompress(weights, layer).run(pool);
    return layer;
  }
  // One lane, nested, or one chunk: the whole span is a single chunk.
  fit_segments(weights, 0, weights.size(), st.delta_abs, st.config,
               [&](const CompressedSegment& s, std::size_t /*first*/) {
                 layer.segments.push_back(s);
                 return true;
               });
  // Score in a second pass over the kept segments: scoring each segment as
  // it closes, as compress_into() does, measured up to 12% slower here at
  // δ = 20% (32M weights), where segments are long and few.
  double sse = 0.0;
  std::size_t first = 0;
  for (const CompressedSegment& s : layer.segments) {
    sse = replay_segment<false>(s, weights.data() + first, sse, nullptr);
    first += s.length;
  }
  layer.sse = sse;
  return layer;
}

namespace {

/// The one streaming pass behind compress_into() and compress_stream(): each
/// segment is replayed into `stage` the moment it is fitted, right after the
/// weights already there, and `sink` receives every full `block` of `stage`
/// in order, then the shorter rest at the end. Unsent weights move to the
/// front of `stage` once a block has gone, so it needs min(n, block + the
/// longest segment) floats; with block = n it is the whole output and
/// nothing moves. The segment + fit loop is fit_segments()' own, spelled
/// out so that the running SSE is a plain local. Out of line: inlined into
/// compress_stream(), GCC 12 kept that SSE in a stack slot through the loop,
/// a store and a reload per weight, and the pass ran 25-40% slower.
template <class Sink>
[[gnu::noinline]] CompressionStats stream_blocks(
    std::span<const float> weights, const CodecConfig& cfg, double range,
    std::size_t block, std::span<float> stage, Sink&& sink) {
  CompressionStats st = begin_stats(weights, cfg, range);
  const std::size_t n = weights.size();
  const unsigned coef_bits = st.config.coef_bits;
  SegmentScan scan(weights, st.delta_abs, max_segment_length(cfg.length_bits));
  double sse = 0.0;
  std::size_t segments = 0;
  std::size_t fill = 0;
  for (std::size_t first = 0; first < n;) {
    const std::size_t last = scan.end_of(first, n);
    const float* src = weights.data() + first;
    const CompressedSegment s = fit_segment(src, last - first, coef_bits);
    sse = replay_segment<true>(s, src, sse, stage.data() + fill);
    ++segments;
    fill += s.length;
    first = last;
    if (fill >= block) [[unlikely]] {
      std::size_t sent = 0;
      for (; fill - sent >= block; sent += block) {
        sink(stage.subspan(sent, block));
      }
      std::memmove(stage.data(), stage.data() + sent,
                   (fill - sent) * sizeof(float));
      fill -= sent;
    }
  }
  if (fill > 0) sink(stage.first(fill));
  st.segment_count = segments;
  st.sse = sse;
  return st;
}

}  // namespace

CompressionStats compress_into(std::span<const float> weights,
                               const CodecConfig& cfg, double range,
                               std::span<float> out) {
  if (out.size() != weights.size()) {
    size_mismatch("compress_into", out.size(), weights.size());
  }
  // One block, staged in `out` itself: the sink has nothing left to do.
  return stream_blocks(weights, cfg, range,
                       std::max<std::size_t>(out.size(), 1), out,
                       [](std::span<const float>) {});
}

CompressionStats compress_stream(std::span<const float> weights,
                                 const CodecConfig& cfg, double range,
                                 std::size_t block, const BlockSink& sink) {
  if (block == 0) {
    throw std::invalid_argument("compress_stream: block must be positive");
  }
  const std::size_t stage_size = std::min(
      weights.size(), block + max_segment_length(cfg.length_bits));
  const auto stage = std::make_unique_for_overwrite<float[]>(stage_size);
  return stream_blocks(weights, cfg, range, block,
                       std::span<float>(stage.get(), stage_size), sink);
}

void decompress(const CompressedLayer& layer, std::span<float> out) {
  if (out.size() != layer.original_count) {
    size_mismatch("decompress", out.size(), layer.original_count);
  }
  std::size_t idx = 0;
  for (std::size_t i = 0; i < layer.segments.size(); ++i) {
    const CompressedSegment& s = layer.segments[i];
    // Validate before writing: a corrupted length field must degrade to a
    // descriptive error, never an out-of-bounds store; a non-finite
    // coefficient would poison every weight downstream of the segment.
    if (s.length > out.size() - idx) {
      throw DecodeError("decompress: segment " + std::to_string(i) +
                        " length " + std::to_string(s.length) +
                        " overruns declared output size " +
                        std::to_string(out.size()) + " at weight " +
                        std::to_string(idx));
    }
    if (!std::isfinite(s.m) || !std::isfinite(s.q)) {
      throw DecodeError("decompress: segment " + std::to_string(i) +
                        " has non-finite coefficients");
    }
    // Init state of the Fig. 6 FSM: w̃_1 = q; Run state: w̃_j = w̃_{j-1} + m.
    float w = s.q;
    for (std::uint32_t j = 0; j < s.length; ++j) {
      out[idx++] = w;
      w += s.m;
    }
  }
  if (idx != layer.original_count) {
    throw DecodeError("decompress: segment lengths tile " +
                      std::to_string(idx) + " weights, layer declares " +
                      std::to_string(layer.original_count));
  }
}

std::vector<float> decompress(const CompressedLayer& layer) {
  std::vector<float> out(layer.original_count);
  decompress(layer, out);
  return out;
}

std::size_t CompressionStats::compressed_bits() const noexcept {
  return segment_count * config.segment_bits();
}

std::size_t CompressionStats::original_bits() const noexcept {
  return original_count * static_cast<std::size_t>(config.weight_bits);
}

double CompressionStats::compression_ratio() const noexcept {
  const std::size_t cb = compressed_bits();
  if (cb == 0) return 1.0;
  return static_cast<double>(original_bits()) / static_cast<double>(cb);
}

double CompressionStats::mse() const noexcept {
  return original_count ? sse / static_cast<double>(original_count) : 0.0;
}

double CompressionStats::mean_segment_length() const noexcept {
  if (segment_count == 0) return 0.0;
  return static_cast<double>(original_count) /
         static_cast<double>(segment_count);
}

std::size_t CompressedLayer::compressed_bits() const noexcept {
  return stats().compressed_bits();
}

std::size_t CompressedLayer::original_bits() const noexcept {
  return stats().original_bits();
}

double CompressedLayer::compression_ratio() const noexcept {
  return stats().compression_ratio();
}

double CompressedLayer::mse() const noexcept { return stats().mse(); }

double CompressedLayer::mean_segment_length() const noexcept {
  return stats().mean_segment_length();
}

std::vector<std::uint8_t> serialize(const CompressedLayer& layer) {
  BitWriter w;
  w.write(kMagic, 16);
  w.write(kVersion, 8);
  w.write(layer.config.segment_checksum ? kFlagSegmentChecksum : 0, 8);
  w.write(layer.config.coef_bits, 6);
  w.write(layer.config.length_bits, 6);
  w.write(layer.config.weight_bits, 6);
  w.write(layer.original_count, 48);
  w.write(layer.segments.size(), 48);
  w.write_float(static_cast<float>(layer.delta_abs));
  const unsigned coef_bits = layer.config.coef_bits;
  const unsigned len_bits = layer.config.length_bits;
  for (const auto& s : layer.segments) {
    std::uint32_t raw_m = 0;
    std::uint32_t raw_q = 0;
    std::memcpy(&raw_m, &s.m, sizeof(raw_m));
    std::memcpy(&raw_q, &s.q, sizeof(raw_q));
    const std::uint64_t m_field = raw_m >> (32 - coef_bits);
    const std::uint64_t q_field = raw_q >> (32 - coef_bits);
    w.write(m_field, coef_bits);
    w.write(q_field, coef_bits);
    if (s.length == 0 || s.length > (std::uint64_t{1} << len_bits)) {
      throw std::runtime_error("serialize: segment length out of field range");
    }
    const std::uint64_t len_field = s.length - 1;
    w.write(len_field, len_bits);
    if (layer.config.segment_checksum) {
      w.write(segment_crc8(m_field, q_field, len_field), 8);
    }
  }
  return w.bytes();
}

namespace {

struct StreamHeader {
  CompressedLayer layer;       // config/counts/delta filled, segments empty
  std::uint64_t n_segments = 0;
  bool checksum = false;
};

/// Parse and validate the fixed-size header. Shared by the strict and the
/// tolerant path — header corruption is fatal for both.
StreamHeader parse_header(BitReader& r, std::size_t total_bits) {
  constexpr std::size_t kHeaderBits = 16 + 8 + 8 + 3 * 6 + 2 * 48 + 32;
  if (total_bits < kHeaderBits) {
    fail("deserialize: stream truncated inside header: " +
             std::to_string(total_bits) + " bits, header needs " +
             std::to_string(kHeaderBits),
         total_bits);
  }
  if (r.read(16) != kMagic) fail("deserialize: bad magic", 0);
  const std::uint64_t version = r.read(8);
  if (version != kVersion) {
    fail("deserialize: unsupported version " + std::to_string(version) +
             " (expected " + std::to_string(kVersion) + ")",
         16);
  }
  const std::uint64_t flags = r.read(8);
  if ((flags & ~kFlagSegmentChecksum) != 0) {
    fail("deserialize: unknown flags " + std::to_string(flags), 24);
  }
  StreamHeader h;
  h.checksum = (flags & kFlagSegmentChecksum) != 0;
  h.layer.config.segment_checksum = h.checksum;
  h.layer.config.coef_bits = static_cast<unsigned>(r.read(6));
  h.layer.config.length_bits = static_cast<unsigned>(r.read(6));
  h.layer.config.weight_bits = static_cast<unsigned>(r.read(6));
  if (clamp_coef_bits(h.layer.config.coef_bits) != h.layer.config.coef_bits) {
    fail("deserialize: corrupt coef_bits field " +
             std::to_string(h.layer.config.coef_bits),
         32);
  }
  if (h.layer.config.length_bits == 0 || h.layer.config.length_bits > 48) {
    fail("deserialize: corrupt length_bits field " +
             std::to_string(h.layer.config.length_bits),
         38);
  }
  if (h.layer.config.weight_bits == 0) {
    fail("deserialize: corrupt weight_bits field", 44);
  }
  h.layer.original_count = r.read(48);
  h.n_segments = r.read(48);
  h.layer.delta_abs = static_cast<double>(r.read_float());
  return h;
}

struct RawSegment {
  CompressedSegment seg;
  bool crc_ok = true;
};

RawSegment read_segment(BitReader& r, const StreamHeader& h) {
  const unsigned coef_bits = h.layer.config.coef_bits;
  RawSegment out;
  const std::uint64_t m_field = r.read(coef_bits);
  const std::uint64_t q_field = r.read(coef_bits);
  const std::uint64_t len_field = r.read(h.layer.config.length_bits);
  const auto raw_m = static_cast<std::uint32_t>(m_field << (32 - coef_bits));
  const auto raw_q = static_cast<std::uint32_t>(q_field << (32 - coef_bits));
  std::memcpy(&out.seg.m, &raw_m, sizeof(out.seg.m));
  std::memcpy(&out.seg.q, &raw_q, sizeof(out.seg.q));
  out.seg.length = static_cast<std::uint32_t>(len_field) + 1;
  if (h.checksum) {
    const auto stored = static_cast<std::uint8_t>(r.read(8));
    out.crc_ok = stored == segment_crc8(m_field, q_field, len_field);
  }
  return out;
}

}  // namespace

CompressedLayer deserialize(std::span<const std::uint8_t> bytes) {
  BitReader r(bytes);
  StreamHeader h = parse_header(r, bytes.size() * 8);
  const std::size_t record_bits = h.layer.config.segment_bits();
  if (h.n_segments * record_bits > r.bits_left()) {
    fail("deserialize: stream truncated: " + std::to_string(h.n_segments) +
             " segments need " + std::to_string(h.n_segments * record_bits) +
             " bits, " + std::to_string(r.bits_left()) + " left",
         r.bit_pos());
  }
  CompressedLayer layer = std::move(h.layer);
  layer.segments.reserve(h.n_segments);
  std::uint64_t total = 0;
  for (std::uint64_t i = 0; i < h.n_segments; ++i) {
    const std::size_t seg_start = r.bit_pos();
    const RawSegment raw = read_segment(r, h);
    if (!raw.crc_ok) {
      fail("deserialize: segment " + std::to_string(i) + " failed CRC-8",
           seg_start);
    }
    if (!std::isfinite(raw.seg.m) || !std::isfinite(raw.seg.q)) {
      fail("deserialize: segment " + std::to_string(i) +
               " has non-finite coefficients",
           seg_start);
    }
    total += raw.seg.length;
    layer.segments.push_back(raw.seg);
  }
  if (total != layer.original_count) {
    fail("deserialize: segment lengths tile " + std::to_string(total) +
             " weights, header declares " +
             std::to_string(layer.original_count),
         r.bit_pos());
  }
  return layer;
}

CompressedLayer deserialize_tolerant(std::span<const std::uint8_t> bytes,
                                     DecodeDiagnostics* diag) {
  DecodeDiagnostics local;
  DecodeDiagnostics& d = diag ? *diag : local;
  d = {};

  BitReader r(bytes);
  StreamHeader h = parse_header(r, bytes.size() * 8);  // header stays fatal
  d.segments_total = h.n_segments;
  const std::size_t record_bits = h.layer.config.segment_bits();

  CompressedLayer layer = std::move(h.layer);
  layer.segments.reserve(h.n_segments);
  std::uint64_t total = 0;
  for (std::uint64_t i = 0; i < h.n_segments; ++i) {
    if (r.bits_left() < record_bits) {
      d.truncated = true;
      break;
    }
    RawSegment raw = read_segment(r, h);
    bool bad = !raw.crc_ok || !std::isfinite(raw.seg.m) ||
               !std::isfinite(raw.seg.q);
    if (raw.seg.length > layer.original_count - total) {
      // Corrupted length field: clamp so the layer still tiles.
      raw.seg.length =
          static_cast<std::uint32_t>(layer.original_count - total);
      bad = true;
    }
    if (bad) {
      // Keep the (clamped) length — it still consumes its slot of the
      // weight stream — but reconstruct zeros: the fault-sweep's model of a
      // detected, unrecoverable segment.
      raw.seg.m = 0.0F;
      raw.seg.q = 0.0F;
      ++d.segments_corrupted;
    }
    if (raw.seg.length == 0) continue;  // fully clamped away
    total += raw.seg.length;
    layer.segments.push_back(raw.seg);
  }
  // Pad truncation (or under-tiling) with zero segments so the result always
  // reconstructs original_count weights.
  while (total < layer.original_count) {
    CompressedSegment pad;
    pad.length = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(layer.original_count - total,
                                std::uint64_t{1} << 24));
    total += pad.length;
    layer.segments.push_back(pad);
    ++d.segments_missing;
  }
  return layer;
}

}  // namespace nocw::core
