/* Monotonic wall clock for Obs.Clock.

   CLOCK_MONOTONIC counts real elapsed time and never jumps backwards
   (unlike gettimeofday under NTP adjustment) and never stops while the
   process sleeps (unlike Sys.time, which is CPU time).  Nanoseconds
   since an arbitrary epoch, as an OCaml int64. */

#include <caml/mlvalues.h>
#include <caml/alloc.h>

#if defined(_WIN32)
#include <windows.h>

CAMLprim value obs_clock_monotonic_ns(value unit)
{
  static LARGE_INTEGER freq;
  LARGE_INTEGER now;
  (void)unit;
  if (freq.QuadPart == 0) QueryPerformanceFrequency(&freq);
  QueryPerformanceCounter(&now);
  return caml_copy_int64((int64_t)(now.QuadPart * (1000000000.0 / freq.QuadPart)));
}

#else
#include <time.h>
#include <sys/time.h>

CAMLprim value obs_clock_monotonic_ns(value unit)
{
  (void)unit;
#if defined(CLOCK_MONOTONIC)
  struct timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return caml_copy_int64((int64_t)ts.tv_sec * 1000000000 + (int64_t)ts.tv_nsec);
#else
  struct timeval tv;
  gettimeofday(&tv, NULL);
  return caml_copy_int64((int64_t)tv.tv_sec * 1000000000 + (int64_t)tv.tv_usec * 1000);
#endif
}

#endif
