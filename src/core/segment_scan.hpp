// Segment ends of the Eq. 1 segmentation from kill bitmasks (paper
// Sec. III-B): the one segmentation scan behind segment_weights() and every
// compress entry point.
//
// Pair i is the consecutive pair (w_{i-1}, w_i) and its difference
// d_i = w_i - w_{i-1}, taken in double. A pair "kills increasing" when
// d_i < -δ or d_i is NaN: no weakly increasing run can hold it. It "kills
// decreasing" when d_i > δ or d_i is NaN. A segment that opens at s stays
// weakly monotonic until both directions have been killed by pairs after s,
// so it ends at max(first kill-increasing > s, first kill-decreasing > s),
// capped at s + max_length. The end depends only on the kill bits after s,
// never on what came before s.
//
// The kill bits are built lazily one 64-pair word at a time (two words:
// increasing and decreasing), with SSE2 where the target has it, and each
// end costs two countr_zero's. Only the current word is kept, so any length
// cap works and nothing the size of the layer is allocated.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

namespace nocw::core {

class SegmentScan {
 public:
  /// `delta` is δ in absolute units; `max_length` 0 means unlimited.
  SegmentScan(std::span<const float> weights, double delta,
              std::size_t max_length) noexcept
      : x_(weights.data()),
        n_(weights.size()),
        cap_(max_length == 0 ? weights.size() : max_length) {
    // Eq. 1 accepts a pair upward when d > 0 or |d| <= δ. For δ >= 0 that
    // is d >= -δ (and downward d <= δ). A negative or NaN δ accepts no
    // |d| <= δ, leaving d > 0 and d < 0: d >= min and d <= -min say the
    // same, as no difference of two floats lies strictly between 0 and
    // the smallest positive double.
    if (delta >= 0.0) {
      lo_ = -delta;
      hi_ = delta;
    } else {
      lo_ = std::numeric_limits<double>::denorm_min();
      hi_ = -lo_;
    }
  }

  /// End (one past the last weight) of the segment that opens at `s`, or
  /// `bound` if that comes first; s < bound <= weights.size(). Any s is
  /// valid; nondecreasing calls build each word once.
  [[gnu::always_inline]] std::size_t end_of(std::size_t s,
                                            std::size_t bound) noexcept {
    const std::size_t limit = std::min(bound, s + std::min(cap_, n_ - s));
    const std::size_t p = s + 1;
    if (p >= limit) return limit;
    if (p / 64 != word_) [[unlikely]] load(p / 64);
    const std::uint64_t from = ~std::uint64_t{0} << (p % 64);
    const int fi = std::countr_zero(inc_ & from);
    const int fd = std::countr_zero(dec_ & from);
    const std::size_t base = p - p % 64;
    if (fi < 64 && fd < 64) [[likely]] {
      return std::min(base + static_cast<std::size_t>(std::max(fi, fd)),
                      limit);
    }
    return end_past_word(base, fi, fd, limit);
  }

 private:
  /// end_of() when the word at `base` leaves a direction open: fi / fd are
  /// the first kills found in it (64 for none).
  std::size_t end_past_word(std::size_t base, int fi, int fd,
                            std::size_t limit) noexcept {
    std::size_t end = 0;
    bool inc_open = fi == 64;
    bool dec_open = fd == 64;
    if (!inc_open) end = base + static_cast<std::size_t>(fi);
    if (!dec_open) end = base + static_cast<std::size_t>(fd);
    for (std::size_t p = base + 64; p < limit; p += 64) {
      load(p / 64);
      if (inc_open && inc_ != 0) {
        inc_open = false;
        end = std::max(end, p + static_cast<std::size_t>(
                                    std::countr_zero(inc_)));
      }
      if (dec_open && dec_ != 0) {
        dec_open = false;
        end = std::max(end, p + static_cast<std::size_t>(
                                    std::countr_zero(dec_)));
      }
      if (!inc_open && !dec_open) return std::min(end, limit);
    }
    return limit;
  }

  /// Make inc_/dec_ the kill bits of pairs [64·word, 64·word + 64). Pair 0
  /// has no predecessor and kills nothing; pairs past the end kill both.
  void load(std::size_t word) noexcept {
    word_ = word;
    const std::size_t first = 64 * word;
#if defined(__SSE2__)
    if (first != 0 && first + 64 <= n_) {
      build_sse2(x_ + first);
      return;
    }
#endif
    inc_ = 0;
    dec_ = 0;
    for (std::size_t k = 0; k < 64; ++k) {
      const std::size_t i = first + k;
      bool kill_inc = i >= n_;
      bool kill_dec = kill_inc;
      if (i != 0 && i < n_) {
        const double d =
            static_cast<double>(x_[i]) - static_cast<double>(x_[i - 1]);
        kill_inc = !(d >= lo_);
        kill_dec = !(d <= hi_);
      }
      inc_ |= std::uint64_t{kill_inc} << k;
      dec_ |= std::uint64_t{kill_dec} << k;
    }
  }

#if defined(__SSE2__)
  /// The 64 pairs ending at w[0..63], reading w[-1..63].
  void build_sse2(const float* w) noexcept {
    const __m128d lo = _mm_set1_pd(lo_);
    const __m128d hi = _mm_set1_pd(hi_);
    std::uint64_t inc = 0;
    std::uint64_t dec = 0;
    for (unsigned k = 0; k < 64; k += 4) {
      const __m128 cur = _mm_loadu_ps(w + k);
      const __m128 prev = _mm_loadu_ps(w + k - 1);
      const __m128d d0 = _mm_sub_pd(_mm_cvtps_pd(cur), _mm_cvtps_pd(prev));
      const __m128d d1 =
          _mm_sub_pd(_mm_cvtps_pd(_mm_movehl_ps(cur, cur)),
                     _mm_cvtps_pd(_mm_movehl_ps(prev, prev)));
      const auto ki = static_cast<unsigned>(
          _mm_movemask_pd(_mm_cmpnge_pd(d0, lo)) |
          (_mm_movemask_pd(_mm_cmpnge_pd(d1, lo)) << 2));
      const auto kd = static_cast<unsigned>(
          _mm_movemask_pd(_mm_cmpnle_pd(d0, hi)) |
          (_mm_movemask_pd(_mm_cmpnle_pd(d1, hi)) << 2));
      inc |= std::uint64_t{ki} << k;
      dec |= std::uint64_t{kd} << k;
    }
    inc_ = inc;
    dec_ = dec;
  }
#endif

  const float* x_;
  std::size_t n_;
  std::size_t cap_;
  double lo_ = 0.0;  // a pair with !(d >= lo_) kills increasing
  double hi_ = 0.0;  // a pair with !(d <= hi_) kills decreasing
  std::size_t word_ = std::numeric_limits<std::size_t>::max();
  std::uint64_t inc_ = 0;
  std::uint64_t dec_ = 0;
};

}  // namespace nocw::core
