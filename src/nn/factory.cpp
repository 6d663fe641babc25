#include "nn/factory.h"

#include <memory>
#include <stdexcept>

#include "nn/activations.h"
#include "nn/conv_block.h"
#include "nn/dense.h"

namespace mach::nn {

Sequential make_cnn2(std::size_t channels, std::size_t height, std::size_t width,
                     std::size_t classes) {
  if (height % 4 != 0 || width % 4 != 0) {
    throw std::invalid_argument("make_cnn2: height/width must be divisible by 4");
  }
  const std::size_t c1 = 8, c2 = 16, hidden = 32;
  Sequential model;
  model.add(std::make_unique<ConvBlock>(channels, c1, 3, 1))
      .add(std::make_unique<ConvBlock>(c1, c2, 3, 1))
      .add(std::make_unique<Flatten>())
      .add(std::make_unique<Dense>(c2 * (height / 4) * (width / 4), hidden))
      .add(std::make_unique<ReLU>())
      .add(std::make_unique<Dense>(hidden, classes));
  return model;
}

Sequential make_cnn3(std::size_t channels, std::size_t height, std::size_t width,
                     std::size_t classes) {
  if (height % 8 != 0 || width % 8 != 0) {
    throw std::invalid_argument("make_cnn3: height/width must be divisible by 8");
  }
  const std::size_t c1 = 8, c2 = 16, c3 = 32, hidden = 64;
  Sequential model;
  model.add(std::make_unique<ConvBlock>(channels, c1, 3, 1))
      .add(std::make_unique<ConvBlock>(c1, c2, 3, 1))
      .add(std::make_unique<ConvBlock>(c2, c3, 3, 1))
      .add(std::make_unique<Flatten>())
      .add(std::make_unique<Dense>(c3 * (height / 8) * (width / 8), hidden))
      .add(std::make_unique<ReLU>())
      .add(std::make_unique<Dense>(hidden, classes));
  return model;
}

Sequential make_mlp(std::size_t features, std::size_t hidden, std::size_t classes) {
  Sequential model;
  model.add(std::make_unique<Flatten>())
      .add(std::make_unique<Dense>(features, hidden))
      .add(std::make_unique<ReLU>())
      .add(std::make_unique<Dense>(hidden, classes));
  return model;
}

}  // namespace mach::nn
