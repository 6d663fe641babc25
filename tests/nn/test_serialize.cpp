// nn/serialize coverage: parameter round-trips, the unified errno-carrying
// error reporting of save and load, corruption/truncation handling, and
// optimizer-state (SGD velocities) round-trips and their kind/length checks.
#include "nn/serialize.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdint>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/rng.h"
#include "nn/dense.h"
#include "nn/model.h"
#include "nn/sgd.h"

namespace mach::nn {
namespace {

Sequential make_model() {
  Sequential model;
  model.add(std::make_unique<Dense>(4, 3));
  common::Rng rng(11);
  model.init_params(rng);
  return model;
}

std::string temp_path(const std::string& name) {
  return testing::TempDir() + name;
}

/// Cuts the file at `path` down to its first `bytes` bytes.
void truncate_file(const std::string& path, std::size_t bytes) {
  std::ifstream in(path, std::ios::binary);
  std::vector<char> head(bytes);
  in.read(head.data(), static_cast<std::streamsize>(bytes));
  ASSERT_TRUE(in) << "file shorter than requested truncation";
  in.close();
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(head.data(), static_cast<std::streamsize>(bytes));
}

TEST(SerializeErrors, SaveToUnwritablePathThrowsWithErrnoContext) {
  Sequential model = make_model();
  try {
    save_parameters(model, "/no/such/dir/weights.mach");
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("save_parameters"), std::string::npos) << message;
    EXPECT_NE(message.find("/no/such/dir/weights.mach"), std::string::npos);
    // The strerror context is the point of the unified reporting.
    EXPECT_NE(message.find('('), std::string::npos) << message;
  }
}

TEST(SerializeErrors, LoadFromMissingPathThrowsWithErrnoContext) {
  Sequential model = make_model();
  try {
    load_parameters(model, "/no/such/weights.mach");
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("load_parameters"), std::string::npos) << message;
    EXPECT_NE(message.find("/no/such/weights.mach"), std::string::npos);
    EXPECT_NE(message.find('('), std::string::npos) << message;
  }
}

TEST(SerializeErrors, TruncatedHeaderThrows) {
  Sequential model = make_model();
  const std::string path = temp_path("trunc_header.mach");
  save_parameters(model, path);
  truncate_file(path, 6);  // inside the magic/version preamble
  EXPECT_THROW(load_parameters(model, path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(SerializeErrors, TruncatedPayloadThrows) {
  Sequential model = make_model();
  const std::string path = temp_path("trunc_payload.mach");
  save_parameters(model, path);
  // Keep the full preamble (magic + version + count = 16 bytes) and half of
  // the float payload.
  const std::size_t payload = model.num_parameters() * sizeof(float);
  truncate_file(path, 16 + payload / 2);
  EXPECT_THROW(load_parameters(model, path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(SerializeErrors, CorruptMagicMentionsPath) {
  const std::string path = temp_path("bad_magic.mach");
  {
    std::ofstream out(path, std::ios::binary);
    const std::vector<char> junk(64, '\x5a');
    out.write(junk.data(), static_cast<std::streamsize>(junk.size()));
  }
  Sequential model = make_model();
  try {
    load_parameters(model, path);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(path), std::string::npos) << e.what();
  }
  std::remove(path.c_str());
}

TEST(OptimizerState, SgdVelocityRoundTrip) {
  Sequential model = make_model();
  Sgd sgd({.learning_rate = 0.05, .momentum = 0.9, .weight_decay = 0.0});
  // A couple of momentum steps populate the velocity buffers.
  for (int i = 0; i < 3; ++i) {
    for (auto& param : model.params()) {
      const auto grads = param.grad->flat();
      for (std::size_t j = 0; j < grads.size(); ++j) {
        grads[j] = 0.01f * static_cast<float>(j + 1);
      }
    }
    sgd.step(model);
  }
  ASSERT_FALSE(sgd.velocities().empty());
  const auto original = sgd.velocities();

  const std::string path = temp_path("sgd_state.mopt");
  save_optimizer_state(sgd, path);
  Sgd restored({.learning_rate = 0.05, .momentum = 0.9, .weight_decay = 0.0});
  load_optimizer_state(restored, path);
  EXPECT_EQ(restored.velocities(), original);
  std::remove(path.c_str());
}

TEST(OptimizerState, KindMismatchThrows) {
  Sgd sgd({.learning_rate = 0.1, .momentum = 0.9, .weight_decay = 0.0});
  const std::string path = temp_path("kind_mismatch.mopt");
  save_optimizer_state(sgd, path);
  {
    // The kind word follows the magic and version words.
    std::fstream file(path, std::ios::binary | std::ios::in | std::ios::out);
    const std::uint32_t other_kind = 2;
    file.seekp(2 * sizeof(std::uint32_t));
    file.write(reinterpret_cast<const char*>(&other_kind), sizeof(other_kind));
    ASSERT_TRUE(file);
  }
  Sgd restored({.learning_rate = 0.1, .momentum = 0.9, .weight_decay = 0.0});
  try {
    load_optimizer_state(restored, path);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("different optimizer kind"),
              std::string::npos)
        << e.what();
  }
  std::remove(path.c_str());
}

TEST(OptimizerState, TruncatedMomentBufferThrows) {
  Sequential model = make_model();
  Sgd sgd({.learning_rate = 0.05, .momentum = 0.9, .weight_decay = 0.0});
  for (auto& param : model.params()) {
    for (float& g : param.grad->flat()) g = 0.1f;
  }
  sgd.step(model);
  ASSERT_FALSE(sgd.velocities().empty());
  const std::string path = temp_path("trunc_state.mopt");
  save_optimizer_state(sgd, path);
  std::uintmax_t size = 0;
  {
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    size = static_cast<std::uintmax_t>(in.tellg());
  }
  truncate_file(path, static_cast<std::size_t>(size) - 7);
  Sgd restored({.learning_rate = 0.05, .momentum = 0.9, .weight_decay = 0.0});
  try {
    load_optimizer_state(restored, path);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("truncated file"), std::string::npos)
        << e.what();
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace mach::nn
