/* The draw loop of Xoshiro256.fill_in: one stretch of next_in's draws
   into two-byte label cells.

   Each draw is one xoshiro256** step.  Its top 62 bits v are kept iff
   v < limit, the exact rejection rule of next_in, and the value is
   v land (bound - 1) at a power-of-two bound and v mod bound
   otherwise.  base + value goes to the native-endian 16-bit cell i,
   the layout of Prng.Cells.  With a list (top >= 0) every kept draw
   also writes i to the list's next slot and advances the count by
   (value <= top), so listing takes no branch; the caller sizes the
   stretch so that the slot exists.

   The OCaml side validates the arguments, computes limit, and owns the
   list: its first capacity, and its growth between stretches.  The
   call is [@@noalloc] with untagged ints, and the caller caps a
   stretch's length, so no call keeps other domains waiting long at a
   stop-the-world collection. */

#include <stdint.h>
#include <caml/mlvalues.h>

#if defined(__GNUC__)
#define ALWAYS_INLINE inline __attribute__((always_inline))
#else
#define ALWAYS_INLINE inline
#endif

static ALWAYS_INLINE uint64_t rotl(uint64_t x, int k)
{
  return (x << k) | (x >> (64 - k));
}

/* [pow2] and [list] are constants at each call site below, so each
   call compiles to its own loop, without the tests it does not need. */
static ALWAYS_INLINE intnat stretch(uint64_t *s, uint16_t *cells,
                                    value *pos, intnat bound, intnat limit,
                                    intnat base, intnat top, intnat i,
                                    intnat stop, intnat count,
                                    const int pow2, const int list)
{
  uint64_t s0 = s[0], s1 = s[1], s2 = s[2], s3 = s[3];
  const uint64_t mask = (uint64_t)bound - 1;
  while (i < stop) {
    const uint64_t result = rotl(s1 * 5, 7) * 9;
    const uint64_t t = s1 << 17;
    s2 ^= s0;
    s3 ^= s1;
    s1 ^= s2;
    s0 ^= s3;
    s2 ^= t;
    s3 = rotl(s3, 45);
    const uint64_t v = result >> 2;
    if (v < (uint64_t)limit) {
      const uint64_t r = pow2 ? v & mask : v % (uint64_t)bound;
      cells[i] = (uint16_t)((uint64_t)base + r);
      if (list) {
        pos[count] = Val_long(i);
        count += (intnat)r <= top;
      }
      i++;
    }
  }
  s[0] = s0;
  s[1] = s1;
  s[2] = s2;
  s[3] = s3;
  return count;
}

/* The state is 32 bytes of a Bytes.t and the list an int array: an
   immediate stored over an immediate needs no write barrier. */
intnat prng_fill_stretch(value state, value cells, value pos, intnat bound,
                         intnat limit, intnat base, intnat top, intnat i,
                         intnat stop, intnat count)
{
  uint64_t *s = (uint64_t *)Bytes_val(state);
  uint16_t *c = (uint16_t *)Bytes_val(cells);
  value *p = Op_val(pos);
  const int pow2 = (bound & (bound - 1)) == 0;
  if (top < 0) {
    if (pow2)
      return stretch(s, c, p, bound, limit, base, top, i, stop, count, 1, 0);
    return stretch(s, c, p, bound, limit, base, top, i, stop, count, 0, 0);
  }
  if (pow2)
    return stretch(s, c, p, bound, limit, base, top, i, stop, count, 1, 1);
  return stretch(s, c, p, bound, limit, base, top, i, stop, count, 0, 1);
}

CAMLprim value prng_fill_stretch_byte(value *argv, int argn)
{
  (void)argn;
  return Val_long(prng_fill_stretch(argv[0], argv[1], argv[2],
                                    Long_val(argv[3]), Long_val(argv[4]),
                                    Long_val(argv[5]), Long_val(argv[6]),
                                    Long_val(argv[7]), Long_val(argv[8]),
                                    Long_val(argv[9])));
}
