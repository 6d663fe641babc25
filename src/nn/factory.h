// Builders for the model architectures used in the paper's evaluation:
//   - 2 conv + 2 fc for the MNIST / FMNIST tasks,
//   - 3 conv + 2 fc for the CIFAR10 task,
// plus the small MLP that hfl::make_model_factory builds for the smoke
// preset and the fleet benchmark worlds.
#pragma once

#include <cstddef>

#include "nn/model.h"

namespace mach::nn {

/// Paper's MNIST/FMNIST network: conv-relu-pool ×2 (one ConvBlock each),
/// then flatten, fc-relu-fc. Input must be [batch, channels, height, width] with height and width
/// divisible by 4 (two 2x2 poolings).
Sequential make_cnn2(std::size_t channels, std::size_t height, std::size_t width,
                     std::size_t classes);

/// Paper's CIFAR10 network: conv-relu-pool ×3 (one ConvBlock each), then
/// flatten, fc-relu-fc. Height and width must be divisible by 8.
Sequential make_cnn3(std::size_t channels, std::size_t height, std::size_t width,
                     std::size_t classes);

/// Two-layer MLP: flatten, then fc-relu-fc. The input is [batch, features]
/// or any shape whose trailing dimensions hold `features` values (images).
Sequential make_mlp(std::size_t features, std::size_t hidden, std::size_t classes);

}  // namespace mach::nn
