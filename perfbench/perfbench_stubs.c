/* Process primitives the OCaml Unix library does not expose: wait4 with
   the child's resource usage (CPU time and peak resident memory of an
   analyze process), the clock-tick rate for /proc CPU counters, and the
   number of CPUs this process may run on. */

#define _GNU_SOURCE
#include <errno.h>
#include <sched.h>
#include <sys/resource.h>
#include <sys/time.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <caml/alloc.h>
#include <caml/fail.h>
#include <caml/memory.h>
#include <caml/mlvalues.h>
#include <caml/signals.h>

/* wait4 (pid, WNOHANG) -> None while the child runs, else
   Some (exit_code, user_s, sys_s, maxrss_kb); a child killed by signal s
   reports exit code -s. */
value perfbench_wait4_nohang(value vpid)
{
  CAMLparam1(vpid);
  CAMLlocal2(res, some);
  int status = 0;
  struct rusage ru;
  pid_t r;
  do {
    r = wait4((pid_t)Long_val(vpid), &status, WNOHANG, &ru);
  } while (r < 0 && errno == EINTR);
  if (r < 0) caml_failwith("wait4 failed");
  if (r == 0) CAMLreturn(Val_int(0));
  res = caml_alloc_tuple(4);
  Store_field(res, 0,
              Val_int(WIFEXITED(status)
                          ? WEXITSTATUS(status)
                          : (WIFSIGNALED(status) ? -WTERMSIG(status) : -255)));
  Store_field(res, 1,
              caml_copy_double((double)ru.ru_utime.tv_sec +
                               (double)ru.ru_utime.tv_usec / 1e6));
  Store_field(res, 2,
              caml_copy_double((double)ru.ru_stime.tv_sec +
                               (double)ru.ru_stime.tv_usec / 1e6));
  Store_field(res, 3, Val_long(ru.ru_maxrss));
  some = caml_alloc_small(1, 0);
  Field(some, 0) = res;
  CAMLreturn(some);
}

value perfbench_clk_tck(value unit)
{
  long t = sysconf(_SC_CLK_TCK);
  (void)unit;
  return Val_long(t > 0 ? t : 100);
}

value perfbench_nproc(value unit)
{
  cpu_set_t set;
  long n;
  (void)unit;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0 && CPU_COUNT(&set) > 0)
    return Val_long(CPU_COUNT(&set));
  n = sysconf(_SC_NPROCESSORS_ONLN);
  return Val_long(n > 0 ? n : 1);
}
