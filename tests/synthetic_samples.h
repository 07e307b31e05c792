// Synthetic training samples shared by the trainer, checkpoint and snapshot
// tests: uniform random [6, grid, grid] feature stacks whose labels follow
// the RUDY channel (index 3) thresholded at 0.5, a per-pixel rule a small
// model can learn.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "train/dataset.h"

namespace mfa::test_util {

inline std::vector<train::Sample> synthetic_samples(int n, std::int64_t grid,
                                                    std::uint64_t seed) {
  Rng rng(seed);
  std::vector<train::Sample> samples;
  for (int i = 0; i < n; ++i) {
    train::Sample s;
    s.features = Tensor::uniform({6, grid, grid}, rng, 0.0f, 1.0f);
    s.label = Tensor::zeros({grid, grid});
    const float* rudy = s.features.data() + 3 * grid * grid;
    for (std::int64_t j = 0; j < grid * grid; ++j)
      s.label.data()[j] = rudy[j] > 0.5f ? 2.0f : 0.0f;
    samples.push_back(std::move(s));
  }
  return samples;
}

}  // namespace mfa::test_util
