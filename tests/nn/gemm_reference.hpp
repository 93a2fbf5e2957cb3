// Naive reference for nn::gemm and a bitwise comparison. Each C element is
// the chain c = c + a * b in ascending k, one rounded float multiply and one
// rounded float add per step, from +0 (or from C when accumulating): the
// contract nn::gemm keeps bit for bit.
#pragma once

#include <gtest/gtest.h>

#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "nn/simd.hpp"

namespace nocw::nn {

inline void reference_gemm(const float* a, const float* b, float* c,
                           std::size_t m, std::size_t k, std::size_t n,
                           bool accumulate) {
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      float acc = accumulate ? c[i * n + j] : 0.0F;
      for (std::size_t p = 0; p < k; ++p) {
        const float prod = a[i * k + p] * b[p * n + j];
        acc = acc + prod;
      }
      c[i * n + j] = acc;
    }
  }
}

/// Equal bit patterns everywhere (so +0 and -0 differ), with the first
/// mismatch in the failure message.
inline ::testing::AssertionResult bitwise_equal(std::span<const float> got,
                                                std::span<const float> want) {
  if (got.size() != want.size()) {
    return ::testing::AssertionFailure()
           << "size " << got.size() << " vs " << want.size();
  }
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (std::bit_cast<std::uint32_t>(got[i]) !=
        std::bit_cast<std::uint32_t>(want[i])) {
      return ::testing::AssertionFailure()
             << "index " << i << ": " << got[i] << " vs " << want[i];
    }
  }
  return ::testing::AssertionSuccess();
}

/// The kernels of one per-width function (gemm_kernels(),
/// laplacian_kernels()) this host runs. Each of the 16-, 32- and 64-byte
/// widths it cannot run (not built for this architecture, or not supported
/// by the CPU) is named in `skipped`.
template <class Fn>
std::vector<detail::WidthKernel<Fn>> runnable_kernels(
    std::span<const detail::WidthKernel<Fn>> kernels, std::string& skipped) {
  std::vector<detail::WidthKernel<Fn>> out;
  for (const std::size_t bytes : {16, 32, 64}) {
    const detail::WidthKernel<Fn>* kernel = nullptr;
    for (const auto& g : kernels) {
      if (g.vector_bytes == bytes) kernel = &g;
    }
    if (kernel != nullptr && kernel->supported) {
      out.push_back(*kernel);
      continue;
    }
    skipped += (skipped.empty() ? "" : ", ") +
               (kernel == nullptr
                    ? std::to_string(bytes) + "B (not built here)"
                    : std::string(kernel->isa) + "/" +
                          std::to_string(bytes) + "B (CPU lacks it)");
  }
  return out;
}

}  // namespace nocw::nn
