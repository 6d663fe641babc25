// Flat-weight checkpointing: save/load a model's parameter vector to a
// small self-describing binary file (magic + count + float32 payload).
// Architecture is not serialised — loading requires a model with the same
// parameter count, which is how the simulator moves weights around anyway.
//
// Optimizer state travels in a separate file with its own magic and a kind
// word: SGD saves its velocity buffers, so a training loop interrupted
// mid-schedule can continue with momentum intact. Both sides of every function report I/O failures the same way —
// std::runtime_error carrying the errno/strerror context of the failed
// operation (std::invalid_argument for shape mismatches).
#pragma once

#include <string>

#include "nn/model.h"
#include "nn/sgd.h"

namespace mach::nn {

/// Writes all parameters of `model` to `path`. Throws std::runtime_error
/// with errno context when the file cannot be created or written.
void save_parameters(Sequential& model, const std::string& path);

/// Restores parameters saved by save_parameters. Throws std::runtime_error
/// (with errno context for I/O failures) on missing/corrupt files and
/// std::invalid_argument on a parameter-count mismatch with `model`.
void load_parameters(Sequential& model, const std::string& path);

/// Writes the optimizer's accumulated state (its velocity buffers).
/// Throws std::runtime_error with errno context on I/O failure.
void save_optimizer_state(const Sgd& optimizer, const std::string& path);

/// Restores state saved by save_optimizer_state. Throws std::runtime_error
/// on missing, corrupt or truncated files and on a different kind word.
void load_optimizer_state(Sgd& optimizer, const std::string& path);

}  // namespace mach::nn
