#include "simd/dispatch.hpp"

#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace lumichat::simd {

const char* isa_name(Isa isa) {
  return isa == Isa::kAvx2 ? "avx2" : "scalar";
}

bool cpu_supports_avx2() {
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_cpu_supports("avx2") != 0 &&
         __builtin_cpu_supports("pclmul") != 0;
#else
  return false;
#endif
}

bool build_has_avx2() {
#if defined(LUMICHAT_SIMD_HAS_AVX2)
  return true;
#else
  return false;
#endif
}

Isa resolve_isa(const char* env, bool avx2_usable) {
  if (env != nullptr && std::strcmp(env, "scalar") == 0) return Isa::kScalar;
  // "avx2", unset, empty, and unknown values all auto-select: the override
  // can force the portable path anywhere, but can never force an ISA the
  // machine cannot execute.
  return avx2_usable ? Isa::kAvx2 : Isa::kScalar;
}

namespace {

Isa resolve_once() {
  const char* env = std::getenv("LUMICHAT_SIMD");
  const bool usable = build_has_avx2() && cpu_supports_avx2() &&
                      avx2_kernels() != nullptr;
  if (env != nullptr && env[0] != '\0' && std::strcmp(env, "scalar") != 0 &&
      std::strcmp(env, "avx2") != 0) {
    std::fprintf(stderr,
                 "[simd] LUMICHAT_SIMD='%s' not recognised "
                 "(want avx2|scalar); auto-selecting %s\n",
                 env, isa_name(resolve_isa(nullptr, usable)));
  } else if (env != nullptr && std::strcmp(env, "avx2") == 0 && !usable) {
    std::fprintf(stderr,
                 "[simd] LUMICHAT_SIMD=avx2 requested but AVX2+PCLMUL is "
                 "unavailable (build=%d cpu=%d); using scalar\n",
                 build_has_avx2() ? 1 : 0, cpu_supports_avx2() ? 1 : 0);
  }
  return resolve_isa(env, usable);
}

}  // namespace

Isa active_isa() {
  static const Isa isa = resolve_once();
  return isa;
}

const Kernels& active() {
  static const Kernels& table =
      active_isa() == Isa::kAvx2 ? *avx2_kernels() : scalar_kernels();
  return table;
}

}  // namespace lumichat::simd
