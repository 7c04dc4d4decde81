#include "common/cpu.hpp"

#include <omp.h>
#include <unistd.h>

#include <stdexcept>

#include "common/env.hpp"

namespace sf {

bool cpu_has_avx2() { return __builtin_cpu_supports("avx2") != 0; }

bool cpu_has_avx512() {
  return __builtin_cpu_supports("avx512f") != 0 &&
         __builtin_cpu_supports("avx512dq") != 0;
}

Isa resolve_isa(Isa requested) {
  if (requested != Isa::Auto) return requested;
  if (cpu_has_avx512()) return Isa::Avx512;
  if (cpu_has_avx2()) return Isa::Avx2;
  return Isa::Scalar;
}

int isa_width(Isa isa) {
  switch (isa) {
    case Isa::Scalar: return 1;
    case Isa::Avx2: return 4;
    case Isa::Avx512: return 8;
    case Isa::Auto: return isa_width(resolve_isa(isa));
  }
  throw std::logic_error("bad isa");
}

const char* isa_name(Isa isa) {
  switch (isa) {
    case Isa::Scalar: return "scalar";
    case Isa::Avx2: return "avx2";
    case Isa::Avx512: return "avx512";
    case Isa::Auto: return "auto";
  }
  return "?";
}

int hardware_threads() { return omp_get_max_threads(); }

long llc_bytes() {
  const long overridden = env_long("SF_LLC_BYTES", 0, 0);
  if (overridden > 0) return overridden;
#ifdef _SC_LEVEL3_CACHE_SIZE
  const long l3 = sysconf(_SC_LEVEL3_CACHE_SIZE);
  if (l3 > 0) return l3;
#endif
#ifdef _SC_LEVEL2_CACHE_SIZE
  const long l2 = sysconf(_SC_LEVEL2_CACHE_SIZE);
  if (l2 > 0) return l2;
#endif
  return static_cast<long>(24.75 * 1024 * 1024);  // the paper machine's LLC
}

}  // namespace sf
