#include "accel/accelerator_model.h"

#include "util/error.h"
#include "util/str.h"

namespace h2h {

void AcceleratorSpec::validate() const {
  const auto bad = [&](const char* why) {
    throw ConfigError(strformat("accelerator '%s': %s", name.c_str(), why));
  };
  if (name.empty()) throw ConfigError("accelerator with empty name");
  if (peak_macs_per_cycle == 0) bad("peak_macs_per_cycle must be > 0");
  if (pe.size() == 0) bad("PE array must be non-empty");
  if (freq_hz <= 0) bad("frequency must be > 0");
  if (dram_bandwidth <= 0) bad("local DRAM bandwidth must be > 0");
  if (energy_per_mac < 0 || energy_per_dram_byte < 0 || link_power < 0)
    bad("energy coefficients must be >= 0");
  if (arith_bytes < 1 || arith_bytes > 8) bad("arith_bytes must be in [1,8]");
  if (!kinds.conv && !kinds.fc && !kinds.lstm)
    bad("accelerator supports no compute layer kind");
}

bool AcceleratorModel::supports(LayerKind kind) const noexcept {
  return spec().kinds.supports(kind);
}

double AcceleratorModel::compute_energy(const Layer& layer) const {
  const AcceleratorSpec& s = spec();
  // Vector ops (pool/eltwise) switch far less logic than a MAC; 1/4 is a
  // conventional rough ratio for compare/add vs multiply-accumulate.
  return static_cast<double>(layer.macs()) * s.energy_per_mac +
         static_cast<double>(layer.light_ops()) * s.energy_per_mac * 0.25;
}

}  // namespace h2h
