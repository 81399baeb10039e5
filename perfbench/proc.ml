(* Child processes: one-shot CLI runs measured with wait4, and the serve
   daemon, whose CPU time and peak memory come from /proc. *)

let now_ns () = Int64.to_int (Rtlb_obs.Clock.now_ns Rtlb_obs.Clock.monotonic)

external wait4_nohang : int -> (int * float * float * int) option
  = "perfbench_wait4_nohang"

external clk_tck : unit -> int = "perfbench_clk_tck" [@@noalloc]
external nproc : unit -> int = "perfbench_nproc" [@@noalloc]

let seconds_since t0 = float_of_int (now_ns () - t0) /. 1e9

(* Children run with default settings: no RTLB_* variable (jobs, chaos,
   fake clock, pruning switch) leaks in from the caller. *)
let child_env () =
  Array.of_list
    (List.filter
       (fun kv -> not (String.starts_with ~prefix:"RTLB_" kv))
       (Array.to_list (Unix.environment ())))

let devnull () = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0

let spawn ~prog ~args ~stdout ~stderr =
  let null = devnull () in
  let out = Unix.openfile stdout [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let err =
    if stderr = stdout then out
    else Unix.openfile stderr [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  let pid =
    Fun.protect
      ~finally:(fun () ->
        Unix.close null;
        Unix.close out;
        if err != out then Unix.close err)
      (fun () ->
        Unix.create_process_env prog (Array.of_list (prog :: args)) (child_env ())
          null out err)
  in
  pid

type exit_info = {
  code : int;  (** Exit code; [-s] when killed by signal [s]. *)
  wall_s : float;
  cpu_s : float;  (** User + system CPU of the child. *)
  maxrss_kb : int;
}

(* Runs a child to completion, polling every millisecond so the wall
   time is exact to about a millisecond; a child still running after
   [timeout_s] is killed. *)
let run ~prog ~args ~stdout ~stderr ~timeout_s =
  let t0 = now_ns () in
  let pid = spawn ~prog ~args ~stdout ~stderr in
  let rec wait () =
    match wait4_nohang pid with
    | Some (code, user, sys, maxrss_kb) ->
        { code; wall_s = seconds_since t0; cpu_s = user +. sys; maxrss_kb }
    | None ->
        if seconds_since t0 > timeout_s then (
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          Unix.sleepf 0.01)
        else Unix.sleepf 0.001;
        wait ()
  in
  wait ()

(* ---- /proc ------------------------------------------------------- *)

(* Read in chunks: /proc files report length 0. *)
let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let buf = Buffer.create 1024 in
      let chunk = Bytes.create 4096 in
      let rec go () =
        let n = input ic chunk 0 4096 in
        if n > 0 then (
          Buffer.add_subbytes buf chunk 0 n;
          go ())
      in
      go ();
      Buffer.contents buf)

(* User + system CPU seconds of a live process. *)
let cpu_seconds pid =
  let stat = read_file (Printf.sprintf "/proc/%d/stat" pid) in
  (* fields after the parenthesised command name: state is field 3, so
     utime (14) and stime (15) are the 12th and 13th *)
  let rest =
    String.sub stat (String.rindex stat ')' + 2)
      (String.length stat - String.rindex stat ')' - 2)
  in
  let fields = Array.of_list (String.split_on_char ' ' rest) in
  float_of_string (fields.(11)) +. float_of_string (fields.(12))
  |> fun ticks -> ticks /. float_of_int (clk_tck ())

(* Peak resident set of a live process, in kB. *)
let peak_rss_kb pid =
  let status = read_file (Printf.sprintf "/proc/%d/status" pid) in
  List.fold_left
    (fun acc line ->
      match String.split_on_char ':' line with
      | [ "VmHWM"; v ] -> (
          match String.split_on_char ' ' (String.trim v) with
          | kb :: _ -> Option.value ~default:acc (int_of_string_opt kb)
          | [] -> acc)
      | _ -> acc)
    0
    (String.split_on_char '\n' status)

(* Host-wide CPU ticks as (stolen, total): the share of time the
   hypervisor ran something else on this machine's CPUs, a measure of
   interference from outside the run. *)
let host_ticks () =
  try
    match String.split_on_char '\n' (read_file "/proc/stat") with
    | line :: _ -> (
        match List.filter (( <> ) "") (String.split_on_char ' ' line) with
        | "cpu" :: fields ->
            let v = Array.of_list (List.map int_of_string fields) in
            (if Array.length v > 7 then v.(7) else 0), Array.fold_left ( + ) 0 v
        | _ -> (0, 0))
    | [] -> (0, 0)
  with Sys_error _ | Failure _ -> (0, 0)

let steal_frac ~before:(s0, t0) ~after:(s1, t1) =
  if t1 > t0 then float_of_int (s1 - s0) /. float_of_int (t1 - t0) else 0.0

let loadavg () =
  try
    match String.split_on_char ' ' (read_file "/proc/loadavg") with
    | a :: b :: c :: _ -> Printf.sprintf "%s %s %s" a b c
    | _ -> "unknown"
  with Sys_error _ -> "unknown"

(* ---- the serve daemon -------------------------------------------- *)

type daemon = { pid : int; socket : string; argv : string list }

(* Daemons not yet stopped; whatever way the benchmark exits, they are
   killed and reaped first. *)
let running = ref []

let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        !running)

let start_daemon ~cli ~socket ~log =
  (try Unix.unlink socket with Unix.Unix_error _ -> ());
  let args = [ "serve"; "--socket"; socket ] in
  let pid = spawn ~prog:cli ~args ~stdout:log ~stderr:log in
  running := pid :: !running;
  { pid; socket; argv = "rtlb" :: args }

let exited pid =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ -> None
  | _, status -> Some status

let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX path) with
  | () -> Some fd
  | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED | Unix.EAGAIN), _, _) ->
      Unix.close fd;
      None

(* Connects as soon as the daemon listens. *)
let await_daemon d ~timeout_s =
  let t0 = now_ns () in
  let rec go () =
    match connect d.socket with
    | Some fd -> fd
    | None ->
        (match exited d.pid with
        | Some _ -> failwith "rtlb serve exited before listening"
        | None -> ());
        if seconds_since t0 > timeout_s then failwith "rtlb serve did not listen";
        Unix.sleepf 0.001;
        go ()
  in
  go ()

(* SIGTERM asks for a graceful drain; returns the exit code. *)
let stop_daemon d =
  (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let t0 = now_ns () in
  let rec wait () =
    match exited d.pid with
    | Some (Unix.WEXITED c) -> c
    | Some (Unix.WSIGNALED s | Unix.WSTOPPED s) -> -s
    | None ->
        if seconds_since t0 > 10.0 then (
          (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
          ignore (Unix.waitpid [] d.pid);
          -9)
        else (
          Unix.sleepf 0.002;
          wait ())
  in
  let code = wait () in
  running := List.filter (( <> ) d.pid) !running;
  (try Unix.unlink d.socket with Unix.Unix_error _ -> ());
  code

(* ---- blocking line exchange (set-up and stats) -------------------- *)

let write_all fd s =
  let rec go off =
    if off < String.length s then
      go (off + Unix.write_substring fd s off (String.length s - off))
  in
  go 0

type reader = { fd : Unix.file_descr; buf : Buffer.t }

let reader fd = { fd; buf = Buffer.create 65536 }

(* The next line from the daemon, waiting at most [timeout_s]. *)
let read_line r ~timeout_s =
  let t0 = now_ns () in
  let chunk = Bytes.create 65536 in
  let rec go () =
    let s = Buffer.contents r.buf in
    match String.index_opt s '\n' with
    | Some i ->
        Buffer.clear r.buf;
        Buffer.add_string r.buf (String.sub s (i + 1) (String.length s - i - 1));
        String.sub s 0 i
    | None ->
        let left = timeout_s -. seconds_since t0 in
        if left <= 0.0 then failwith "timed out waiting for a reply";
        (match Unix.select [ r.fd ] [] [] left with
        | [], _, _ -> ()
        | _ ->
            let n = Unix.read r.fd chunk 0 (Bytes.length chunk) in
            if n = 0 then failwith "daemon closed the connection";
            Buffer.add_subbytes r.buf chunk 0 n);
        go ()
  in
  go ()

(* The daemon's [stats] counters, by name; none when the daemon does not
   answer (a crashed daemon shows in the answer checks instead). *)
let stats r =
  try
    write_all r.fd "{\"id\":\"stats\",\"op\":\"stats\"}\n";
    match Rtfmt.Json.member "result" (Rtfmt.Json.parse (read_line r ~timeout_s:10.0)) with
    | Rtfmt.Json.Obj fields ->
        List.filter_map
          (fun (k, v) -> match v with Rtfmt.Json.Int n -> Some (k, n) | _ -> None)
          fields
    | _ -> []
  with Failure _ | Unix.Unix_error _ | Rtfmt.Json.Parse_error _ -> []
