#include "util/rng.hpp"

#include <bit>

namespace nocw {

Xoshiro256pp::Jump::State Xoshiro256pp::Jump::map(const Images& images,
                                                  const State& v) noexcept {
  State out{};
  for (int w = 0; w < 4; ++w) {
    for (std::uint64_t bits = v[w]; bits != 0; bits &= bits - 1) {
      const State& col = images[w * 64 + std::countr_zero(bits)];
      for (int k = 0; k < 4; ++k) out[k] ^= col[k];
    }
  }
  return out;
}

Xoshiro256pp::Jump::Jump(std::uint64_t draws) {
  // image_ starts as the identity and `power` as one draw; binary
  // exponentiation composes power = step^(2^i) into image_ for every set
  // bit i of `draws`. Powers of one map commute, so the order is free.
  Images power{};
  for (int b = 0; b < 256; ++b) {
    image_[b] = State{};
    image_[b][b / 64] = std::uint64_t{1} << (b % 64);
    Xoshiro256pp unit;
    for (int k = 0; k < 4; ++k) unit.s_[k] = image_[b][k];
    unit();
    for (int k = 0; k < 4; ++k) power[b][k] = unit.s_[k];
  }
  while (draws != 0) {
    if ((draws & 1) != 0) {
      for (auto& col : image_) col = map(power, col);
    }
    draws >>= 1;
    if (draws != 0) {
      Images squared{};
      for (int b = 0; b < 256; ++b) squared[b] = map(power, power[b]);
      power = squared;
    }
  }
}

void Xoshiro256pp::Jump::apply(Xoshiro256pp& rng) const noexcept {
  const State moved = map(image_, {rng.s_[0], rng.s_[1], rng.s_[2], rng.s_[3]});
  for (int k = 0; k < 4; ++k) rng.s_[k] = moved[k];
}

}  // namespace nocw
