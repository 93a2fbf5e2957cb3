// Internals of nn::gemm for tests and benches: the kernel at each vector
// width this build compiles, and which one gemm() runs on this host. Every
// width gives the same bits; only its speed differs.
#pragma once

#include <cstddef>
#include <span>

namespace nocw::nn::detail {

using GemmFn = void (*)(const float* a, const float* b, float* c,
                        std::size_t m, std::size_t k, std::size_t n,
                        bool accumulate);

struct GemmKernel {
  std::size_t vector_bytes;  // 16, 32 or 64
  const char* isa;           // instruction set it is compiled for
  GemmFn run;                // same contract as nn::gemm
  bool supported;            // this host's CPU can run it
};

/// Every width this build compiles, narrowest first: 16, 32 and 64 bytes on
/// x86-64, 16 bytes elsewhere.
std::span<const GemmKernel> gemm_kernels();

/// Vector width of the kernel gemm() runs: the widest the host supports.
std::size_t gemm_vector_bytes();

}  // namespace nocw::nn::detail
