/* Op kernels of the compiled backend (Compile): one [@@noalloc] call per
   single- or reduced-precision operation.  OCaml 5.1/5.2 without flambda
   has no inlined float<->bits cast (Int64/Int32.bits_of_float and
   float_of_bits are external C calls), so the same steps written in OCaml
   cost 5-10 calls.  A kernel reads its operands from the frame's float
   array, tests the 0x7FF4DEAD sentinel in checked mode, widens the binary32
   payload, runs one double op, rounds ((float) cast or the reduced-format
   grid), re-encodes and writes the destination.  A nonzero status is a
   checked-mode operand fault: nothing was written, and the caller raises
   Vm.Trap.  Every step is the IEEE operation the interpreter (Vm, F32,
   Replaced, Formats) performs, so build with -O2 -ffp-contract=off and
   never -ffast-math. */

#define CAML_NAME_SPACE
#include <caml/mlvalues.h>
#include <caml/alloc.h>
#include <math.h>
#include <stdint.h>
#include <string.h>

#ifndef FLAT_FLOAT_ARRAY
#error "op kernels read float arrays as flat double buffers"
#endif

/* code word, built by Compile.kcode */
#define OP(c) ((int)((c) & 15))
#define CHECKED 16
#define PLAIN 32
#define PACKED 64
#define EBITS(c) ((int)(((c) >> 8) & 15)) /* 0: binary32 cast, 15: double */
#define MBITS(c) ((int)(((c) >> 12) & 31))
#define DOWNCAST 9
#define UPCAST 10

#define SENTINEL 0x7FF4DEADu
#define SIGN 0x8000000000000000ull
#define FRAC 0x000FFFFFFFFFFFFFull
#define EXPM 0x7FF0000000000000ull

static inline uint64_t bits(double x) { uint64_t u; memcpy(&u, &x, 8); return u; }
static inline double of_bits(uint64_t u) { double x; memcpy(&x, &u, 8); return x; }
static inline int is_rep(double v) { return (uint32_t)(bits(v) >> 32) == SENTINEL; }

/* the low 32 bits as a binary32, widened (Vm.extract32).  Widening quiets a
   signaling NaN; that is done explicitly, because the compiler may fold a
   later (float) cast back onto the unquieted binary32. */
static inline double x32(double v) {
  uint32_t b = (uint32_t)bits(v);
  float f;
  b |= (uint32_t)((b & 0x7FFFFFFFu) > 0x7F800000u) << 22;
  memcpy(&f, &b, 4);
  return (double)f;
}

/* Replaced.encode */
static inline double enc(double x) {
  float f = (float)x;
  uint32_t b;
  memcpy(&b, &f, 4);
  return of_bits(((uint64_t)SENTINEL << 32) | b);
}

/* bit-for-bit port of Formats.round_em */
static double round_em(double x, int mbits, int emin, int emax) {
  uint64_t b = bits(x), sign = b & SIGN, a = b & ~SIGN;
  if (a == 0) return x;
  int e_field = (int)(a >> 52);
  if (e_field == 0x7FF) {
    if ((a & FRAC) == 0) return x;
    uint64_t keep = ~((1ull << (52 - mbits)) - 1);
    return of_bits(sign | EXPM | (a & FRAC & keep) | (1ull << 51));
  }
  int ue = e_field - 1023;
  int shift = (52 - mbits) + (ue < emin ? emin - ue : 0);
  if (shift <= 0) return x;
  if (shift > 53) return of_bits(sign);
  if (shift == 53)
    return (a & FRAC) == 0 ? of_bits(sign) : of_bits(sign | bits(ldexp(1.0, emin - mbits)));
  uint64_t lsb = shift == 52 ? 1 : (a >> shift) & 1;
  uint64_t half = 1ull << (shift - 1), mask = (1ull << shift) - 1;
  uint64_t r = (a + (half - 1 + lsb)) & ~mask;
  if ((int)(r >> 52) - 1023 > emax) return of_bits(sign | EXPM);
  return of_bits(sign | r);
}

/* Formats.round: F32.round for S and e8m23, none for a double op (which
   runs as a plain op) */
static inline double rnd(intnat c, double x) {
  int eb = EBITS(c);
  if (eb == 0) return (double)(float)x;
  if (eb == 15) return x;
  int bias = (1 << (eb - 1)) - 1;
  return round_em(x, MBITS(c), 1 - bias, bias);
}

/* operand fetch (Vm.opd / ops / ope): 1 on a checked-mode fault */
static inline int fetch(intnat c, double v, double *out) {
  if ((c & CHECKED) && is_rep(v) == ((c & PLAIN) != 0)) return 1;
  *out = (c & PLAIN) ? rnd(c, v) : x32(v);
  return 0;
}

/* rounded result store (Vm.sres) */
static inline double store(intnat c, double x) {
  x = rnd(c, x);
  return (c & PLAIN) ? x : enc(x);
}

/* Stdlib.Float.min / Float.max, NaN choice and signed zeros included */
static inline double fmin_ml(double x, double y) {
  if (y > x || (!signbit(y) && signbit(x))) return isnan(y) ? y : x;
  return isnan(x) ? x : y;
}

static inline double fmax_ml(double x, double y) {
  if (y > x || (!signbit(y) && signbit(x))) return isnan(x) ? x : y;
  return isnan(y) ? y : x;
}

/* Ir.fbinop order.  When both operands are NaN, ocamlopt's two-address SSE
   code returns the first, quieted; C leaves the operand order to the
   compiler, so that case is pinned (x op x). */
static inline double binop(int op, double x, double y) {
  if (op < 4 && isnan(x)) y = x;
  switch (op) {
  case 0: return x + y;
  case 1: return x - y;
  case 2: return x * y;
  case 3: return x / y;
  case 4: return fmin_ml(x, y);
  default: return fmax_ml(x, y);
  }
}

/* Fbin, Fbinp: both lanes read before either write */
intnat craft_k_fbin(value fr, intnat d, intnat a, intnat b, intnat c) {
  double *f = (double *)fr, x0, y0, x1, y1;
  if (fetch(c, f[a], &x0) || fetch(c, f[b], &y0)) return 1;
  if (c & PACKED) {
    if (fetch(c, f[a + 1], &x1) || fetch(c, f[b + 1], &y1)) return 1;
    f[d + 1] = store(c, binop(OP(c), x1, y1));
  }
  f[d] = store(c, binop(OP(c), x0, y0));
  return 0;
}

/* Funop, Flibm (Ir order: sqrt neg abs, then sin cos tan exp log atan) */
static __attribute__((noinline)) intnat fun_any(double *f, intnat d, intnat a, intnat c) {
  double x;
  if (fetch(c, f[a], &x)) return 1;
  switch (OP(c)) {
  case 0: x = sqrt(x); break;
  case 1: x = -x; break;
  case 2: x = fabs(x); break;
  case 3: x = sin(x); break;
  case 4: x = cos(x); break;
  case 5: x = tan(x); break;
  case 6: x = exp(x); break;
  case 7: x = log(x); break;
  default: x = atan(x); break;
  }
  f[d] = store(c, x);
  return 0;
}

/* ... and the snippet ops Fdowncast and Fupcast */
intnat craft_k_fun(value fr, intnat d, intnat a, intnat c) {
  double *f = (double *)fr, v = f[a];
  if (c == DOWNCAST) f[d] = enc(v);
  else if (c != UPCAST) return fun_any(f, d, a, c);
  else if (!is_rep(v)) return 1;
  else f[d] = x32(v);
  return 0;
}

/* Fcmp (Ir.cmpop order): the flag, or -1 on a fault */
intnat craft_k_fcmp(value fr, intnat a, intnat b, intnat c) {
  double *f = (double *)fr, x, y;
  if (fetch(c, f[a], &x) || fetch(c, f[b], &y)) return -1;
  switch (OP(c)) {
  case 0: return x == y;
  case 1: return x != y;
  case 2: return x < y;
  case 3: return x <= y;
  case 4: return x > y;
  default: return x >= y;
  }
}

/* Fcvt_i2f: int -> double (float_of_int) -> format */
value craft_k_i2f(value fr, intnat d, intnat i, intnat c) {
  ((double *)fr)[d] = store(c, (double)i);
  return Val_unit;
}

/* an operand's value, unchecked, for Fcvt_f2i (whose out-of-range
   float->int cast stays in OCaml: it is undefined behaviour in C) */
double craft_k_widen(double v, intnat c) { return (c & PLAIN) ? rnd(c, v) : x32(v); }

/* bytecode entry points */
#define L Long_val
value craft_k_fbin_byte(value f, value d, value a, value b, value c) {
  return Val_long(craft_k_fbin(f, L(d), L(a), L(b), L(c)));
}
value craft_k_fun_byte(value f, value d, value a, value c) {
  return Val_long(craft_k_fun(f, L(d), L(a), L(c)));
}
value craft_k_fcmp_byte(value f, value a, value b, value c) {
  return Val_long(craft_k_fcmp(f, L(a), L(b), L(c)));
}
value craft_k_i2f_byte(value f, value d, value i, value c) {
  return craft_k_i2f(f, L(d), L(i), L(c));
}
value craft_k_widen_byte(value v, value c) {
  return caml_copy_double(craft_k_widen(Double_val(v), L(c)));
}
