/* CPU pinning for the timing guards (Linux; elsewhere both calls do
   nothing). [pin] restricts the calling process to the CPU it is
   running on, so that a worker it forks afterwards shares that one CPU,
   and returns the CPU, or -1 when it cannot pin. [unpin] restores the
   CPUs allowed before the last successful [pin]. */

#define _GNU_SOURCE
#include <caml/mlvalues.h>
#ifdef __linux__
#include <sched.h>

static cpu_set_t allowed;
static int pinned = 0;
#endif

value dramstress_bench_pin(value unit)
{
  (void)unit;
#ifdef __linux__
  cpu_set_t one;
  int cpu = sched_getcpu();
  if (cpu < 0 || sched_getaffinity(0, sizeof allowed, &allowed) != 0)
    return Val_int(-1);
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  if (sched_setaffinity(0, sizeof one, &one) != 0) return Val_int(-1);
  pinned = 1;
  return Val_int(cpu);
#else
  return Val_int(-1);
#endif
}

value dramstress_bench_unpin(value unit)
{
  (void)unit;
#ifdef __linux__
  if (pinned) {
    sched_setaffinity(0, sizeof allowed, &allowed);
    pinned = 0;
  }
#endif
  return Val_unit;
}
