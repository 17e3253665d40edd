/* SHA-256 block compression (FIPS 180-4 section 6.2.2) for
 * Fair_crypto.Sha256_block.
 *
 * Two kernels compress one 64-byte block into eight 32-bit chaining words:
 * a portable C loop, always compiled, and one on the x86 SHA extensions
 * ("SHA-NI"), compiled only for x86-64 with GCC or Clang.  The OCaml side
 * asks fair_sha256_has_sha_ni once, while the module initialises, and calls
 * one kernel from then on; this file keeps no mutable state.
 *
 * The chaining words live in an OCaml int array (tagged immediates, so
 * storing them back needs no write barrier) and the block in an OCaml
 * bytes value.  The OCaml side checks both bounds before every call, so
 * the kernels read exactly 64 bytes and touch exactly 8 words.
 */

#include <stdint.h>
#include <caml/mlvalues.h>

static const uint32_t K[64] = {
  0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
  0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
  0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
  0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
  0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
  0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
  0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
  0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
  0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
  0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
  0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2
};

#define ROTR(x, n) (((x) >> (n)) | ((x) << (32 - (n))))

static void compress_portable(uint32_t s[8], const unsigned char *p)
{
  uint32_t w[64];
  for (int t = 0; t < 16; t++)
    w[t] = (uint32_t)p[4 * t] << 24 | (uint32_t)p[4 * t + 1] << 16
           | (uint32_t)p[4 * t + 2] << 8 | (uint32_t)p[4 * t + 3];
  for (int t = 16; t < 64; t++) {
    uint32_t s0 = ROTR(w[t - 15], 7) ^ ROTR(w[t - 15], 18) ^ (w[t - 15] >> 3);
    uint32_t s1 = ROTR(w[t - 2], 17) ^ ROTR(w[t - 2], 19) ^ (w[t - 2] >> 10);
    w[t] = w[t - 16] + s0 + w[t - 7] + s1;
  }
  uint32_t a = s[0], b = s[1], c = s[2], d = s[3];
  uint32_t e = s[4], f = s[5], g = s[6], h = s[7];
  for (int t = 0; t < 64; t++) {
    uint32_t t1 = h + (ROTR(e, 6) ^ ROTR(e, 11) ^ ROTR(e, 25))
                  + ((e & f) ^ (~e & g)) + K[t] + w[t];
    uint32_t t2 = (ROTR(a, 2) ^ ROTR(a, 13) ^ ROTR(a, 22))
                  + ((a & b) ^ (a & c) ^ (b & c));
    h = g; g = f; f = e; e = d + t1;
    d = c; c = b; b = a; a = t1 + t2;
  }
  s[0] += a; s[1] += b; s[2] += c; s[3] += d;
  s[4] += e; s[5] += f; s[6] += g; s[7] += h;
}

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <immintrin.h>
#include <cpuid.h>
#define HAVE_SHA_NI 1

/* The SHA extensions keep the state as two vectors, ABEF and CDGH; each
 * sha256rnds2 runs two rounds and sha256msg1/msg2 extend the message
 * schedule four words at a time. */
__attribute__((target("sha,sse4.1")))
static void compress_sha_ni(uint32_t s[8], const unsigned char *p)
{
  const __m128i bswap = _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);
  __m128i t = _mm_shuffle_epi32(_mm_loadu_si128((const __m128i *)&s[0]), 0xB1); /* CDAB */
  __m128i cdgh = _mm_shuffle_epi32(_mm_loadu_si128((const __m128i *)&s[4]), 0x1B); /* EFGH */
  __m128i abef = _mm_alignr_epi8(t, cdgh, 8);
  cdgh = _mm_blend_epi16(cdgh, t, 0xF0);
  const __m128i abef0 = abef, cdgh0 = cdgh;
  __m128i m[4]; /* m[i % 4] holds schedule words 4i .. 4i+3 */
  for (int i = 0; i < 4; i++)
    m[i] = _mm_shuffle_epi8(_mm_loadu_si128((const __m128i *)(p + 16 * i)), bswap);
#pragma GCC unroll 16
  for (int i = 0; i < 16; i++) {
    __m128i wk = _mm_add_epi32(m[i % 4], _mm_loadu_si128((const __m128i *)&K[4 * i]));
    cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
    abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0E));
    if (i < 12) {
      /* W[t] = s1(W[t-2]) + W[t-7] + s0(W[t-15]) + W[t-16] for t = 4i+16 .. 4i+19 */
      __m128i x = _mm_sha256msg1_epu32(m[i % 4], m[(i + 1) % 4]);
      x = _mm_add_epi32(x, _mm_alignr_epi8(m[(i + 3) % 4], m[(i + 2) % 4], 4));
      m[i % 4] = _mm_sha256msg2_epu32(x, m[(i + 3) % 4]);
    }
  }
  abef = _mm_add_epi32(abef, abef0);
  cdgh = _mm_add_epi32(cdgh, cdgh0);
  t = _mm_shuffle_epi32(abef, 0x1B);    /* FEBA */
  cdgh = _mm_shuffle_epi32(cdgh, 0xB1); /* DCHG */
  _mm_storeu_si128((__m128i *)&s[0], _mm_blend_epi16(t, cdgh, 0xF0));  /* DCBA */
  _mm_storeu_si128((__m128i *)&s[4], _mm_alignr_epi8(cdgh, t, 8));     /* HGFE */
}
#endif

/* SHA-NI needs CPUID.7.0:EBX.SHA and CPUID.1:ECX.SSE4_1.  The two leaves
 * are read directly: __builtin_cpu_supports would link libgcc's CPU-model
 * constructor, which queries dozens of leaves at every process start, and
 * under a hypervisor each CPUID is a VM exit (about 2 us on a KVM guest). */
CAMLprim value fair_sha256_has_sha_ni(value unit)
{
  (void)unit;
#ifdef HAVE_SHA_NI
  unsigned a, b, c1, c7, d;
  if (!__get_cpuid(1, &a, &b, &c1, &d) || !__get_cpuid_count(7, 0, &a, &b, &c7, &d))
    return Val_false;
  return Val_bool((b & bit_SHA) && (c1 & bit_SSE4_1));
#else
  return Val_false;
#endif
}

static void run(void (*kernel)(uint32_t *, const unsigned char *),
                value h, value b, value off)
{
  uint32_t s[8];
  for (int i = 0; i < 8; i++) s[i] = (uint32_t)Long_val(Field(h, i));
  kernel(s, Bytes_val(b) + Long_val(off));
  for (int i = 0; i < 8; i++) Field(h, i) = Val_long(s[i]);
}

CAMLprim value fair_sha256_compress_portable(value h, value b, value off)
{
  run(compress_portable, h, b, off);
  return Val_unit;
}

/* Only called when fair_sha256_has_sha_ni said yes. */
CAMLprim value fair_sha256_compress_sha_ni(value h, value b, value off)
{
#ifdef HAVE_SHA_NI
  run(compress_sha_ni, h, b, off);
#else
  run(compress_portable, h, b, off);
#endif
  return Val_unit;
}
