// Zero-overhead strong quantity types for the repo's physical dimensions.
//
// The paper's two headline observables — inference latency in cycles and
// energy in joules (Figs. 9/10, Table III) — used to travel the tree as bare
// std::uint64_t and double fields, where a cycles↔joules or pJ↔J mix-up
// compiles silently. Every quantity that reaches an exported figure now
// carries its dimension in the type:
//
//   Cycles     exact cycle counts (uint64; add/sub overflow-checked)
//   FracCycles analytic / window-scaled cycle estimates (double)
//   Joules     energy as exported (double)
//   Picojoules per-event energies from the back-annotation tables (double)
//   Flits      exact flit counts (uint64; overflow-checked)
//   Bits       exact bit counts (uint64; checked bits↔words conversion)
//   Words      link-width words (uint64)
//   Seconds    wall/leakage-integration time (double)
//   Watts      power (double); Milliwatts for the per-block leakage tables
//
// plus derived rate types (JoulesPerFlit, FlitsPerCycle) produced by
// dividing quantities of different dimensions.
//
// Rules, enforced at compile time:
//   * construction is explicit — no accidental double -> Joules;
//   * + and - only combine identical quantities (Cycles + Joules does not
//     compile; tests/compile_fail proves it and stays red);
//   * same-dimension division yields a plain double (a ratio), cross-
//     dimension division a typed rate;
//   * unit changes (pJ -> J, mW -> W, bits -> words) are named conversion
//     functions, never implicit scaling.
//
// Rules, enforced at run time through NOCW_CHECK (always on, one predictable
// compare per operation on integer quantities):
//   * uint64 add/sub never wraps (a silently wrapped cycle counter corrupts
//     every downstream energy figure);
//   * checked casts (FracCycles::round, scaling) reject negatives, NaNs and
//     out-of-range magnitudes.
//
// The types are trivially-copyable single-word wrappers; every operation is
// inline arithmetic (perfbench's noc_reference workload times the NoC loop
// that uses them most).
// Conversion factors are applied in exactly the order the pre-typed code
// used, so all exported figures stay bit-identical.
#pragma once

#include <cmath>
#include <cstdint>
#include <limits>
#include <string_view>
#include <type_traits>

#include "util/check.hpp"

namespace nocw::units {

// ---------------------------------------------------------------------------
// Closed unit vocabulary (shared with obs::TimeSeriesSet and tools/lint.py's
// `units.vocab` rule via units_vocab.inc).
// ---------------------------------------------------------------------------

#define NOCW_UNIT(u) #u,
inline constexpr std::string_view kUnitVocab[] = {
#include "util/units_vocab.inc"
};
#undef NOCW_UNIT

inline constexpr std::size_t kUnitVocabSize =
    sizeof(kUnitVocab) / sizeof(kUnitVocab[0]);

/// Compile-time (and runtime) membership test against the closed vocabulary.
[[nodiscard]] constexpr bool vocab_has(std::string_view unit) noexcept {
  for (const std::string_view u : kUnitVocab) {
    if (u == unit) return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// Dimension tags. `registry_unit` names the closed-vocabulary unit used when
// a quantity of this dimension is exported through the typed
// obs::TimeSeriesSet::append; dimensions that must never be exported directly
// (picojoules, milliwatts — export would be off by the scale factor) leave it
// empty, which the typed append rejects at compile time.
// ---------------------------------------------------------------------------

struct CycleDim {
  static constexpr std::string_view registry_unit = "cycles";
};
struct JouleDim {
  static constexpr std::string_view registry_unit = "joules";
};
struct PicojouleDim {
  static constexpr std::string_view registry_unit = "";  // export as Joules
};
struct FlitDim {
  static constexpr std::string_view registry_unit = "flits";
};
struct BitDim {
  static constexpr std::string_view registry_unit = "bits";
};
struct WordDim {
  static constexpr std::string_view registry_unit = "";  // width-dependent
};
struct SecondDim {
  static constexpr std::string_view registry_unit = "seconds";
};
struct WattDim {
  static constexpr std::string_view registry_unit = "watts";
};
struct MilliwattDim {
  static constexpr std::string_view registry_unit = "";  // export as Watts
};

/// Dimension of a derived rate Num/Den (e.g. joules per flit). Rates carry
/// no registry unit; publish the numerator and denominator instead.
template <class Num, class Den>
struct RateDim {
  static constexpr std::string_view registry_unit = "";
};

namespace detail {

template <class Rep>
constexpr Rep checked_add(Rep a, Rep b) {
  if constexpr (std::is_unsigned_v<Rep>) {
    NOCW_CHECK_LE(b, std::numeric_limits<Rep>::max() - a);
  }
  return static_cast<Rep>(a + b);
}

template <class Rep>
constexpr Rep checked_sub(Rep a, Rep b) {
  if constexpr (std::is_unsigned_v<Rep>) {
    NOCW_CHECK_GE(a, b);
  }
  return static_cast<Rep>(a - b);
}

}  // namespace detail

// ---------------------------------------------------------------------------
// Quantity: one value of one dimension.
// ---------------------------------------------------------------------------

template <class Dim, class Rep>
class Quantity {
  static_assert(std::is_arithmetic_v<Rep>);

 public:
  using dim = Dim;
  using rep = Rep;

  constexpr Quantity() noexcept = default;
  explicit constexpr Quantity(Rep v) noexcept : v_(v) {}

  /// The raw magnitude, for serialization and for interop with code that has
  /// not been retrofitted. Arithmetic between quantities should use the
  /// typed operators, not value().
  [[nodiscard]] constexpr Rep value() const noexcept { return v_; }
  /// The magnitude as double (formatting / analytic-math convenience).
  [[nodiscard]] constexpr double dvalue() const noexcept {
    return static_cast<double>(v_);
  }

  // --- same-dimension, same-representation arithmetic ---
  constexpr Quantity& operator+=(Quantity o) {
    v_ = detail::checked_add(v_, o.v_);
    return *this;
  }
  constexpr Quantity& operator-=(Quantity o) {
    v_ = detail::checked_sub(v_, o.v_);
    return *this;
  }
  [[nodiscard]] friend constexpr Quantity operator+(Quantity a, Quantity b) {
    return a += b;
  }
  [[nodiscard]] friend constexpr Quantity operator-(Quantity a, Quantity b) {
    return a -= b;
  }

  /// Exact counters support ++ (the cycle engines tick them).
  template <class R = Rep,
            class = std::enable_if_t<std::is_integral_v<R>>>
  constexpr Quantity& operator++() {
    return *this += Quantity{static_cast<Rep>(1)};
  }

  // --- dimensionless scaling ---
  constexpr Quantity& operator*=(Rep s) noexcept {
    v_ = static_cast<Rep>(v_ * s);
    return *this;
  }
  [[nodiscard]] friend constexpr Quantity operator*(Quantity a, Rep s) noexcept {
    return Quantity{static_cast<Rep>(a.v_ * s)};
  }
  [[nodiscard]] friend constexpr Quantity operator*(Rep s, Quantity a) noexcept {
    return Quantity{static_cast<Rep>(s * a.v_)};
  }
  [[nodiscard]] friend constexpr Quantity operator/(Quantity a, Rep s) {
    if constexpr (std::is_integral_v<Rep>) {
      NOCW_CHECK_NE(s, static_cast<Rep>(0));
    }
    return Quantity{static_cast<Rep>(a.v_ / s)};
  }

  /// Same-dimension division is a pure ratio.
  [[nodiscard]] friend constexpr double operator/(Quantity a, Quantity b) noexcept {
    return static_cast<double>(a.v_) / static_cast<double>(b.v_);
  }

  // --- comparisons (same dimension only) ---
  [[nodiscard]] friend constexpr bool operator==(Quantity a, Quantity b) noexcept {
    return a.v_ == b.v_;
  }
  [[nodiscard]] friend constexpr bool operator!=(Quantity a, Quantity b) noexcept {
    return a.v_ != b.v_;
  }
  [[nodiscard]] friend constexpr bool operator<(Quantity a, Quantity b) noexcept {
    return a.v_ < b.v_;
  }
  [[nodiscard]] friend constexpr bool operator<=(Quantity a, Quantity b) noexcept {
    return a.v_ <= b.v_;
  }
  [[nodiscard]] friend constexpr bool operator>(Quantity a, Quantity b) noexcept {
    return a.v_ > b.v_;
  }
  [[nodiscard]] friend constexpr bool operator>=(Quantity a, Quantity b) noexcept {
    return a.v_ >= b.v_;
  }

 private:
  Rep v_{};
};

/// Cross-dimension division produces a typed rate (double-valued).
template <class DimA, class RepA, class DimB, class RepB>
[[nodiscard]] constexpr Quantity<RateDim<DimA, DimB>, double> operator/(
    Quantity<DimA, RepA> a, Quantity<DimB, RepB> b) noexcept {
  return Quantity<RateDim<DimA, DimB>, double>{
      static_cast<double>(a.value()) / static_cast<double>(b.value())};
}

/// rate(Num/Den) * Den recovers the numerator dimension.
template <class Num, class Den, class RepB>
[[nodiscard]] constexpr Quantity<Num, double> operator*(
    Quantity<RateDim<Num, Den>, double> rate, Quantity<Den, RepB> den) noexcept {
  return Quantity<Num, double>{rate.value() * static_cast<double>(den.value())};
}
template <class Num, class Den, class RepB>
[[nodiscard]] constexpr Quantity<Num, double> operator*(
    Quantity<Den, RepB> den, Quantity<RateDim<Num, Den>, double> rate) noexcept {
  return rate * den;
}

// ---------------------------------------------------------------------------
// The repo's quantities.
// ---------------------------------------------------------------------------

using Cycles = Quantity<CycleDim, std::uint64_t>;
using FracCycles = Quantity<CycleDim, double>;
using Joules = Quantity<JouleDim, double>;
using Picojoules = Quantity<PicojouleDim, double>;
using Flits = Quantity<FlitDim, std::uint64_t>;
using Bits = Quantity<BitDim, std::uint64_t>;
using Words = Quantity<WordDim, std::uint64_t>;
using Seconds = Quantity<SecondDim, double>;
using Watts = Quantity<WattDim, double>;
using Milliwatts = Quantity<MilliwattDim, double>;

using JoulesPerFlit = Quantity<RateDim<JouleDim, FlitDim>, double>;
using FlitsPerCycle = Quantity<RateDim<FlitDim, CycleDim>, double>;
using CyclesPerFlit = Quantity<RateDim<CycleDim, FlitDim>, double>;

// The counter structs overlay these on what used to be bare uint64/double
// fields; keep them zero-overhead so those structs stay plain and cheap.
static_assert(sizeof(Cycles) == sizeof(std::uint64_t) &&
                  std::is_trivially_copyable_v<Cycles>,
              "Cycles must stay a zero-overhead uint64 wrapper");
static_assert(sizeof(Joules) == sizeof(double) &&
                  std::is_trivially_copyable_v<Joules>,
              "Joules must stay a zero-overhead double wrapper");

// ---------------------------------------------------------------------------
// Checked conversions. Each applies its factor in exactly the order the
// pre-typed code did, so retrofitted call sites stay bit-identical.
// ---------------------------------------------------------------------------

inline constexpr double kPicoPerUnit = 1e12;

/// pJ -> J (the energy model's export step).
[[nodiscard]] constexpr Joules to_joules(Picojoules pj) noexcept {
  return Joules{pj.value() * 1e-12};
}
/// J -> pJ (table calibration / round-trip tests).
[[nodiscard]] constexpr Picojoules to_picojoules(Joules j) noexcept {
  return Picojoules{j.value() * 1e12};
}
/// mW -> W (leakage tables integrate W * s).
[[nodiscard]] constexpr Watts to_watts(Milliwatts mw) noexcept {
  return Watts{mw.value() * 1e-3};
}
/// Power integrated over time is energy.
[[nodiscard]] constexpr Joules operator*(Watts w, Seconds s) noexcept {
  return Joules{w.value() * s.value()};
}
[[nodiscard]] constexpr Joules operator*(Seconds s, Watts w) noexcept {
  return w * s;
}

/// bits -> link-width words, rounding up; word_bits must be positive.
[[nodiscard]] constexpr Words to_words(Bits bits, std::uint64_t word_bits) {
  NOCW_CHECK_GT(word_bits, std::uint64_t{0});
  return Words{(bits.value() + word_bits - 1) / word_bits};
}
/// words -> bits, overflow-checked.
[[nodiscard]] constexpr Bits to_bits(Words words, std::uint64_t word_bits) {
  NOCW_CHECK_GT(word_bits, std::uint64_t{0});
  if (words.value() != 0) {
    NOCW_CHECK_LE(word_bits,
                  std::numeric_limits<std::uint64_t>::max() / words.value());
  }
  return Bits{words.value() * word_bits};
}

/// Analytic estimate -> exact count: llround, rejecting NaN, negatives and
/// magnitudes llround cannot represent (a cycle estimate that large is
/// always a bug).
[[nodiscard]] inline Cycles round_cycles(FracCycles c) {
  const double v = c.value();
  NOCW_CHECK(std::isfinite(v));
  NOCW_CHECK_GE(v, 0.0);
  NOCW_CHECK_LT(v, 9.2233720368547758e18);  // 2^63
  return Cycles{static_cast<std::uint64_t>(std::llround(v))};
}

/// Cycle count at a clock -> seconds; factor order matches the pre-typed
/// `cycles / (clock_ghz * 1e9)` expression bit-for-bit.
[[nodiscard]] constexpr Seconds seconds_at(FracCycles cycles,
                                           double clock_ghz) {
  NOCW_CHECK_GT(clock_ghz, 0.0);
  return Seconds{cycles.value() / (clock_ghz * 1e9)};
}

/// One flit per link-width word: the NoC's unit equivalence (a word on a
/// link is exactly one flit). Kept explicit so scatter/gather accounting
/// states the identity instead of silently reusing a number.
[[nodiscard]] constexpr Flits flits_of(Words words) noexcept {
  return Flits{words.value()};
}

}  // namespace nocw::units
