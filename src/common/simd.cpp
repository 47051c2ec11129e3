#include "common/simd.h"

#include <atomic>
#include <cstdlib>
#include <cstring>

namespace puffer::simd {
namespace {

#ifndef PUFFER_SIMD_DEFAULT
#define PUFFER_SIMD_DEFAULT 1
#endif
#ifndef PUFFER_HAVE_AVX2
#define PUFFER_HAVE_AVX2 0
#endif
#ifndef PUFFER_HAVE_AVX512
#define PUFFER_HAVE_AVX512 0
#endif

bool initial_enabled() {
  if (const char* env = std::getenv("PUFFER_SIMD")) {
    if (std::strcmp(env, "0") == 0 || std::strcmp(env, "off") == 0) {
      return false;
    }
    if (std::strcmp(env, "1") == 0 || std::strcmp(env, "on") == 0) {
      return true;
    }
  }
  return PUFFER_SIMD_DEFAULT != 0;
}

std::atomic<bool> g_enabled{initial_enabled()};
std::atomic<Isa> g_isa_limit{Isa::kAvx512};

}  // namespace

bool enabled() { return g_enabled.load(std::memory_order_relaxed); }

void set_enabled(bool on) {
  g_enabled.store(on, std::memory_order_relaxed);
}

Isa host_isa() {
  static const Isa isa = [] {
#if PUFFER_SIMD_SSE2 && (defined(__GNUC__) || defined(__clang__))
    __builtin_cpu_init();
#if PUFFER_HAVE_AVX512
    if (__builtin_cpu_supports("avx512f")) return Isa::kAvx512;
#endif
#if PUFFER_HAVE_AVX2
    if (__builtin_cpu_supports("avx2")) return Isa::kAvx2;
#endif
    return Isa::kSse2;
#else
    return Isa::kScalar;
#endif
  }();
  return isa;
}

Isa dispatch_isa() {
  if (!enabled()) return Isa::kScalar;
  const Isa cap = g_isa_limit.load(std::memory_order_relaxed);
  const Isa host = host_isa();
  return static_cast<int>(cap) < static_cast<int>(host) ? cap : host;
}

void set_isa_limit(Isa cap) {
  g_isa_limit.store(cap, std::memory_order_relaxed);
}

const char* isa_name(Isa isa) {
  switch (isa) {
    case Isa::kAvx512:
      return "avx512";
    case Isa::kAvx2:
      return "avx2";
    case Isa::kSse2:
      return "sse2";
    case Isa::kScalar:
      break;
  }
  return "scalar";
}

const char* active_isa() { return isa_name(dispatch_isa()); }

}  // namespace puffer::simd
