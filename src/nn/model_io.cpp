#include "nn/model_io.h"

#include <fstream>

#include "tensor/serialize.h"

namespace diva {

void save_model(Module& m, std::ostream& os) {
  auto params = m.named_parameters();
  write_i64(os, static_cast<std::int64_t>(params.size()));
  for (auto& np : params) {
    write_string(os, np.name);
    write_tensor(os, np.param->value);
  }
}

void load_model(Module& m, std::istream& is) {
  auto params = m.named_parameters();
  const std::int64_t count = read_i64(is);
  DIVA_CHECK(count == static_cast<std::int64_t>(params.size()),
             "checkpoint has " << count << " params, model has "
                               << params.size());
  // Read and check everything before touching the model, so a corrupt
  // checkpoint leaves it as it was.
  std::vector<Tensor> values;
  values.reserve(params.size());
  for (auto& np : params) {
    const std::string name = read_string(is);
    DIVA_CHECK(name == np.name,
               "checkpoint param '" << name << "' != model param '" << np.name
                                    << "'");
    Tensor t = read_tensor(is);
    DIVA_CHECK(t.shape() == np.param->value.shape(),
               "shape mismatch for " << name << ": " << t.shape().str()
                                     << " vs "
                                     << np.param->value.shape().str());
    values.push_back(std::move(t));
  }
  for (std::size_t i = 0; i < params.size(); ++i) {
    params[i].param->value = std::move(values[i]);
  }
}

void save_model_file(Module& m, const std::string& path) {
  std::ofstream os(path, std::ios::binary);
  DIVA_CHECK(os.good(), "cannot open for write: " << path);
  save_model(m, os);
  os.close();
  DIVA_CHECK(!os.fail(), "write failed: " << path);
}

void load_model_file(Module& m, const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  DIVA_CHECK(is.good(), "cannot open for read: " << path);
  load_model(m, is);
}

void copy_parameters(Module& src, Module& dst) {
  auto sp = src.named_parameters();
  auto dp = dst.named_parameters();
  DIVA_CHECK(sp.size() == dp.size(), "copy_parameters: size mismatch "
                                         << sp.size() << " vs " << dp.size());
  for (std::size_t i = 0; i < sp.size(); ++i) {
    DIVA_CHECK(sp[i].name == dp[i].name, "copy_parameters: name mismatch "
                                             << sp[i].name << " vs "
                                             << dp[i].name);
    DIVA_CHECK(sp[i].param->value.shape() == dp[i].param->value.shape(),
               "copy_parameters: shape mismatch for " << sp[i].name);
    dp[i].param->value = sp[i].param->value;
  }
}

}  // namespace diva
