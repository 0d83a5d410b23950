// Model checkpointing: writes/reads every named parameter (including
// buffers such as BatchNorm running statistics). Loading validates both
// names and shapes, so a checkpoint only loads into a structurally
// identical model.
#pragma once

#include <iosfwd>
#include <string>

#include "nn/module.h"

namespace diva {

void save_model(Module& m, std::ostream& os);
/// Throws diva::Error on a corrupt or mismatched checkpoint, leaving the
/// model's parameters unchanged.
void load_model(Module& m, std::istream& is);

/// File variants; create parent directories before calling.
void save_model_file(Module& m, const std::string& path);
void load_model_file(Module& m, const std::string& path);

/// Copies parameter values between two models with identical parameter
/// names and shapes (e.g. two instances built by the same factory).
void copy_parameters(Module& src, Module& dst);

}  // namespace diva
