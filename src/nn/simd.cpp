#include "nn/simd.hpp"

#if defined(__x86_64__)
#include <cpuid.h>
#endif

namespace nocw::nn::detail {

namespace {

#if defined(__x86_64__)
/// Whether this CPU has AVX2 (bytes = 32) or AVX-512F (bytes = 64) and the
/// OS saves the registers it uses (XCR0: SSE and AVX state, plus the three
/// AVX-512 states for 64). Read with CPUID and XGETBV, which add no code
/// outside this function; __builtin_cpu_supports would link libgcc's CPU
/// model constructor, 4.5 KB of start-up code the linker places ahead of
/// every function of every program.
bool cpu_runs(std::size_t bytes) noexcept {
  unsigned eax = 0;
  unsigned ebx = 0;
  unsigned ecx = 0;
  unsigned edx = 0;
  if (__get_cpuid(1, &eax, &ebx, &ecx, &edx) == 0 ||
      (ecx & bit_OSXSAVE) == 0) {
    return false;
  }
  unsigned xcr0 = 0;
  unsigned xcr0_high = 0;
  __asm__("xgetbv" : "=a"(xcr0), "=d"(xcr0_high) : "c"(0));
  const unsigned state = bytes == 64 ? 0xE6U : 0x06U;
  if ((xcr0 & state) != state ||
      __get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) == 0) {
    return false;
  }
  return (ebx & (bytes == 64 ? bit_AVX512F : bit_AVX2)) != 0;
}
#endif

}  // namespace

std::span<const VectorWidth, kWidthCount> vector_widths() noexcept {
#if defined(__x86_64__)
  static const VectorWidth widths[] = {
      {16, "sse2", true}, {32, "avx2", cpu_runs(32)},
      {64, "avx512f", cpu_runs(64)}};
#elif defined(__aarch64__)
  static const VectorWidth widths[] = {{16, "neon", true}};
#else
  static const VectorWidth widths[] = {{16, "generic", true}};
#endif
  return widths;
}

std::size_t widest_width() noexcept {
  static const std::size_t widest = [] {
    std::size_t i = kWidthCount - 1;
    while (i > 0 && !vector_widths()[i].supported) --i;
    return i;
  }();
  return widest;
}

}  // namespace nocw::nn::detail
