/* wait4 for the bench harness: the exit status and the peak resident
   memory of a child process, which the OCaml Unix library does not
   report.  E14 reads the rtlb CLI's peak this way. */

#include <errno.h>
#include <sys/resource.h>
#include <sys/time.h>
#include <sys/types.h>
#include <sys/wait.h>

#include <caml/alloc.h>
#include <caml/fail.h>
#include <caml/memory.h>
#include <caml/mlvalues.h>
#include <caml/signals.h>

/* wait4 (pid) -> (exit_code, maxrss_kb); a child killed by signal s
   reports exit code -s. */
value bench_wait4(value vpid)
{
  CAMLparam1(vpid);
  CAMLlocal1(res);
  int status = 0;
  struct rusage ru;
  pid_t pid = (pid_t)Long_val(vpid), r;
  caml_enter_blocking_section();
  do {
    r = wait4(pid, &status, 0, &ru);
  } while (r < 0 && errno == EINTR);
  caml_leave_blocking_section();
  if (r < 0) caml_failwith("wait4 failed");
  res = caml_alloc_tuple(2);
  Store_field(res, 0,
              Val_int(WIFEXITED(status)
                          ? WEXITSTATUS(status)
                          : (WIFSIGNALED(status) ? -WTERMSIG(status) : -255)));
  Store_field(res, 1, Val_long(ru.ru_maxrss));
  CAMLreturn(res);
}
