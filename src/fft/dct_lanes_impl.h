// Line-kernel template shared by every width of dct_lanes.h (internal).
//
// Include once per width translation unit, after defining the vector
// type V in an anonymous namespace:
//
//   struct V {
//     using T = ...;                      // B doubles
//     static constexpr std::size_t kLanes = B;
//     static T load(const double*);       // B contiguous doubles
//     static void store(double*, T);
//     static T set1(double);
//     static T add(T, T), sub(T, T), mul(T, T);
//     static T neg(T);                    // sign flip, like unary minus
//   };
//
// and defining its constinit Kernel{B, &Lanes<V>::cols, &Lanes<V>::rows}.
// Everything here has internal linkage (anonymous namespace, TU-local V),
// so each width keeps its own code.
//
// Each lane runs the exact operation sequence of dct.h's free functions
// (and of the retired per-line plan kernels): the even/odd reordering and
// bit-reversal as a permuted load, radix-2 butterflies with the ac-bd /
// ad+bc products of std::complex's operator*, the boundary rotation, then
// the 1/N and N/2 scales as two separate multiplies.
#pragma once

#include <cstddef>
#include <cstdint>

#include "fft/dct_lanes.h"

namespace puffer::dct_lanes {
namespace {

template <class V>
struct Lanes {
  using T = typename V::T;
  static constexpr std::size_t B = V::kLanes;

  // One radix-2 butterfly on registers: (u, b) <- (u + v, u - v) with
  // v = w * b expanded like std::complex's operator* (ac-bd, ad+bc).
  static void butterfly(T& ur, T& ui, T& br, T& bi, double w_re,
                        double w_im) {
    const T wr = V::set1(w_re);
    const T wi = V::set1(w_im);
    const T vr = V::sub(V::mul(br, wr), V::mul(bi, wi));
    const T vi = V::add(V::mul(br, wi), V::mul(bi, wr));
    br = V::sub(ur, vr);
    bi = V::sub(ui, vi);
    ur = V::add(ur, vr);
    ui = V::add(ui, vi);
  }

  // In-place radix-2 FFT of B lines held as split re/im lane arrays, in
  // bit-reversed input order. The 1/N scale of the inverse is left to
  // the caller's store.
  //
  // Stages run in pairs (len, 2*len) in registers: the points I+k,
  // I+k+h, I+len+k, I+len+k+h (h = len/2) meet only each other in those
  // two stages, so every point gets the same butterflies in the same
  // order as stage by stage, with half the loads and stores.
  static void fft(double* re, double* im, std::size_t n, const double* twr,
                  const double* twi) {
    std::size_t len = 2;
    for (; 2 * len <= n; len <<= 2) {
      const std::size_t h = len / 2;
      const double* twr2 = twr + h;  // stage 2*len follows stage len's h
      const double* twi2 = twi + h;
      for (std::size_t base = 0; base < n; base += 2 * len) {
        for (std::size_t k = 0; k < h; ++k) {
          double* r0 = re + (base + k) * B;
          double* i0 = im + (base + k) * B;
          double* r1 = r0 + h * B;
          double* i1 = i0 + h * B;
          double* r2 = r0 + len * B;
          double* i2 = i0 + len * B;
          double* r3 = r2 + h * B;
          double* i3 = i2 + h * B;
          T a0r = V::load(r0), a0i = V::load(i0);
          T a1r = V::load(r1), a1i = V::load(i1);
          T a2r = V::load(r2), a2i = V::load(i2);
          T a3r = V::load(r3), a3i = V::load(i3);
          butterfly(a0r, a0i, a1r, a1i, twr[k], twi[k]);
          butterfly(a2r, a2i, a3r, a3i, twr[k], twi[k]);
          butterfly(a0r, a0i, a2r, a2i, twr2[k], twi2[k]);
          butterfly(a1r, a1i, a3r, a3i, twr2[k + h], twi2[k + h]);
          V::store(r0, a0r);
          V::store(i0, a0i);
          V::store(r1, a1r);
          V::store(i1, a1i);
          V::store(r2, a2r);
          V::store(i2, a2i);
          V::store(r3, a3r);
          V::store(i3, a3i);
        }
      }
      twr += h + len;
      twi += h + len;
    }
    if (len > n) return;
    // Odd stage count: the last stage (len == n) alone.
    const std::size_t h = len / 2;
    for (std::size_t k = 0; k < h; ++k) {
      double* r0 = re + k * B;
      double* i0 = im + k * B;
      double* r1 = r0 + h * B;
      double* i1 = i0 + h * B;
      T ur = V::load(r0), ui = V::load(i0);
      T br = V::load(r1), bi = V::load(i1);
      butterfly(ur, ui, br, bi, twr[k], twi[k]);
      V::store(r0, ur);
      V::store(i0, ui);
      V::store(r1, br);
      V::store(i1, bi);
    }
  }

  // DCT-II: v[i] = x[2i], v[n-1-i] = x[2i+1] (imaginary part +0), one
  // forward FFT, then out[k] = Re(v[k] * exp(-i*pi*k/(2N))).
  static void dct2(const LineTables& t, const double* in, std::size_t ld_in,
                   double* out, std::size_t ld_out, double* re, double* im) {
    const std::size_t n = t.n;
    const T zero = V::set1(0.0);
    for (std::size_t p = 0; p < n; ++p) {
      V::store(re + p * B, V::load(in + t.dct2_src[p] * ld_in));
      V::store(im + p * B, zero);
    }
    fft(re, im, n, t.tw_fwd_re, t.tw_fwd_im);
    for (std::size_t k = 0; k < n; ++k) {
      const T r = V::mul(V::load(re + k * B), V::set1(t.rot_fwd_re[k]));
      const T i = V::mul(V::load(im + k * B), V::set1(t.rot_fwd_im[k]));
      V::store(out + k * ld_out, V::sub(r, i));
    }
  }

  // dct3_raw(X) = (N/2) * idct(X'') with X''[0] = 2*X[0]. The shifted
  // sine series idxst(X) is dct3_raw of the flipped sequence
  // (0, X[n-1], ..., X[1]) with every odd output negated; `sine` selects
  // it by swapping which of X[k], X[n-k] enters the rotation.
  static void dct3(const LineTables& t, bool sine, const double* in,
                   std::size_t ld_in, double* out, std::size_t ld_out,
                   double* re, double* im) {
    const std::size_t n = t.n;
    const T scale = V::set1(static_cast<double>(n) / 2.0);
    const T two = V::set1(2.0);
    if (n == 1) {
      const T x0 = sine ? V::set1(0.0) : V::load(in);
      V::store(out, V::mul(V::mul(x0, two), scale));
      return;
    }
    const T zero = V::set1(0.0);
    for (std::size_t p = 0; p < n; ++p) {
      const std::size_t k = t.bitrev[p];
      if (k == 0) {
        // (X[0] * 2, 0); the sine series' flipped X[0] is +0.
        const T x0 = sine ? zero : V::load(in);
        V::store(re + p * B, V::mul(x0, two));
        V::store(im + p * B, zero);
        continue;
      }
      // rot_inv[k] * (c + i d) with c = X[k], d = -X[n-k] (cosine) or
      // c = X[n-k], d = -X[k] (sine), expanded like operator*.
      const std::size_t kc = sine ? n - k : k;
      const T c = V::load(in + kc * ld_in);
      const T d = V::neg(V::load(in + (n - kc) * ld_in));
      const T rr = V::set1(t.rot_inv_re[k]);
      const T ri = V::set1(t.rot_inv_im[k]);
      V::store(re + p * B, V::sub(V::mul(rr, c), V::mul(ri, d)));
      V::store(im + p * B, V::add(V::mul(rr, d), V::mul(ri, c)));
    }
    fft(re, im, n, t.tw_inv_re, t.tw_inv_im);
    // Only real parts are read, so the 1/N scale skips imaginary ones.
    const T inv_n = V::set1(1.0 / static_cast<double>(n));
    for (std::size_t i = 0; i < n / 2; ++i) {
      const T even = V::mul(V::mul(V::load(re + i * B), inv_n), scale);
      T odd = V::mul(V::mul(V::load(re + (n - 1 - i) * B), inv_n), scale);
      if (sine) odd = V::neg(odd);
      V::store(out + 2 * i * ld_out, even);
      V::store(out + (2 * i + 1) * ld_out, odd);
    }
  }

  // One line op over lane-interleaved in/out (every read precedes the
  // first write, so in == out is fine).
  static void run(Op op, const LineTables& t, const double* in,
                  std::size_t ld_in, double* out, std::size_t ld_out,
                  double* work) {
    double* re = work;
    double* im = work + t.n * B;
    switch (op) {
      case Op::kDct2:
        dct2(t, in, ld_in, out, ld_out, re, im);
        break;
      case Op::kDct3:
        dct3(t, false, in, ld_in, out, ld_out, re, im);
        break;
      case Op::kIdxst:
        dct3(t, true, in, ld_in, out, ld_out, re, im);
        break;
    }
  }

  static void cols(Op op, const LineTables& t, double* data, std::size_t ld,
                   double* work) {
    run(op, t, data, ld, data, ld, work);
  }

  static void rows(Op op, const LineTables& t, const RowSource& src,
                   std::size_t r0, double* out, double* work) {
    const std::size_t n = t.n;
    double* stage = work + 2 * n * B;
    for (std::size_t l = 0; l < B; ++l) {
      const std::size_t r = r0 + l;
      const double* a = src.a + r * src.stride;
      if (!src.weight) {
        for (std::size_t j = 0; j < n; ++j) stage[j * B + l] = a[j];
        continue;
      }
      const double* w = src.weight + r * src.stride;
      if (src.col_scale) {
        for (std::size_t j = 0; j < n; ++j) {
          stage[j * B + l] = (w[j] * a[j]) * src.col_scale[j];
        }
      } else if (src.row_scale) {
        const double rs = src.row_scale[r];
        for (std::size_t j = 0; j < n; ++j) {
          stage[j * B + l] = (w[j] * a[j]) * rs;
        }
      } else {
        for (std::size_t j = 0; j < n; ++j) stage[j * B + l] = w[j] * a[j];
      }
    }
    run(op, t, stage, B, stage, B, work);
    for (std::size_t l = 0; l < B; ++l) {
      double* o = out + (r0 + l) * src.stride;
      for (std::size_t j = 0; j < n; ++j) o[j] = stage[j * B + l];
    }
  }
};

}  // namespace
}  // namespace puffer::dct_lanes
