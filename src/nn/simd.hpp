// Internals shared by nn's per-width kernels (nn::gemm, the Laplacian weight
// fill): the GCC/Clang vector types they are written in, and the one probe
// of which vector widths the host CPU runs. Each kernel is compiled once per
// width through function target attributes, with no -march, and dispatches
// to the widest width the host runs. Every width gives the same bits; only
// its speed differs.
#pragma once

#include <array>
#include <cstddef>
#include <span>

namespace nocw::nn::detail {

/// W bytes of T: 16 is one SSE register on x86-64 and one NEON register on
/// AArch64, 32 one AVX register, 64 one AVX-512 register. The attribute sits
/// on the alias itself: GCC drops a dependent vector_size written after
/// `= T` and leaves a plain T.
template <typename T, std::size_t W>
using Vec [[gnu::vector_size(W)]] = T;
static_assert(sizeof(Vec<float, 16>) == 16 && sizeof(Vec<double, 64>) == 64);

/// Number of widths this build compiles: 16, 32 and 64 bytes on x86-64
/// (SSE2, AVX2, AVX-512F), 16 bytes elsewhere.
#if defined(__x86_64__)
inline constexpr std::size_t kWidthCount = 3;
#else
inline constexpr std::size_t kWidthCount = 1;
#endif

struct VectorWidth {
  std::size_t bytes;  // 16, 32 or 64
  const char* isa;    // instruction set the width is compiled for
  bool supported;     // this host's CPU can run it
};

/// Every width this build compiles, narrowest first. The CPU is probed once
/// per process.
std::span<const VectorWidth, kWidthCount> vector_widths() noexcept;

/// Index into vector_widths() of the widest width the host supports.
std::size_t widest_width() noexcept;

/// One function compiled at one vector width.
template <class Fn>
struct WidthKernel {
  std::size_t vector_bytes;  // 16, 32 or 64
  const char* isa;           // instruction set it is compiled for
  Fn run;
  bool supported;  // this host's CPU can run it
};

/// Pairs each width of vector_widths() with its instance of one function,
/// given narrowest first.
template <class Fn>
std::array<WidthKernel<Fn>, kWidthCount> at_widths(
    const std::array<Fn, kWidthCount>& fns) noexcept {
  std::array<WidthKernel<Fn>, kWidthCount> out{};
  for (std::size_t i = 0; i < kWidthCount; ++i) {
    const VectorWidth& w = vector_widths()[i];
    out[i] = {w.bytes, w.isa, fns[i], w.supported};
  }
  return out;
}

}  // namespace nocw::nn::detail
