#include "core/config.h"

namespace uolap::core {

MachineConfig MachineConfig::Broadwell() {
  MachineConfig m;
  m.name = "broadwell";
  m.freq_ghz = 2.4;
  m.sockets = 2;
  m.cores_per_socket = 14;

  m.l1i = CacheConfig{32 * 1024, 8, 64, 16};
  m.l1d = CacheConfig{32 * 1024, 8, 64, 16};
  m.l2 = CacheConfig{256 * 1024, 8, 64, 26};
  m.l3 = CacheConfig{35ull * 1024 * 1024, 20, 64, 160};
  m.l3_inclusive = true;

  m.exec.simd_width_bits = 256;  // AVX2; the paper notes no AVX-512 on BDW.

  m.bandwidth = BandwidthConfig{12.0, 7.0, 66.0, 60.0};
  return m;
}

MachineConfig MachineConfig::Skylake() {
  MachineConfig m;
  m.name = "skylake";
  m.freq_ghz = 2.4;
  m.sockets = 2;
  m.cores_per_socket = 14;

  m.l1i = CacheConfig{32 * 1024, 8, 64, 14};
  m.l1d = CacheConfig{32 * 1024, 8, 64, 14};
  // Significantly larger L2, smaller non-inclusive L3 (paper Section 2).
  m.l2 = CacheConfig{1024 * 1024, 16, 64, 28};
  m.l3 = CacheConfig{16ull * 1024 * 1024, 11, 64, 160};
  m.l3_inclusive = false;

  m.exec.simd_width_bits = 512;  // AVX-512: the reason the paper uses SKX.

  // Smaller per-core, larger per-socket sequential bandwidth; similar
  // random-access bandwidth (paper Section 2, Hardware).
  m.bandwidth = BandwidthConfig{10.0, 7.0, 87.0, 60.0};
  return m;
}

}  // namespace uolap::core
