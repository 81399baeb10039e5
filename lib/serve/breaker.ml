(* Per-instance circuit breakers for the serve daemon.

   One breaker per instance fingerprint (the application-text digest
   the coalescer already keys on).  An instance whose analysis
   keeps failing (S302 invalid_app, S305 internal) trips its breaker:

     closed --[threshold consecutive failures]--> open
     open   --[cooldown elapsed]---------------> half-open (one probe)
     half-open --[probe succeeds]--------------> closed
     half-open --[probe fails]-----------------> open (fresh cooldown)

   While open, admission fast-fails the request with S308 circuit_open
   and a retry_after_ms hint — the queue and the workers never see it,
   so a hot broken instance cannot monopolize retries.  Exactly one
   request is let through per half-open window; concurrent requests
   racing the probe keep fast-failing until the probe settles.

   Time is injectable ([?now], nanoseconds, monotonic) so the
   open/half-open schedule is testable against a fake clock, same as
   Quota.  The table is bounded like the server's warmth table: a
   pathological stream of distinct broken fingerprints resets it
   rather than growing without bound (losing breaker state merely
   costs [threshold] more failures before re-opening). *)

module Tracer = Rtlb_obs.Tracer

type state =
  | Closed of int  (* consecutive failures so far *)
  | Open of int64  (* fast-fail until (ns, injectable clock base) *)
  | Half_open  (* one probe in flight; everyone else fast-fails *)

type t = {
  threshold : int;
  cooldown_ns : int64;
  now : unit -> int64;
  tracer : Tracer.t;
  mutex : Mutex.t;
  table : (string, state) Hashtbl.t;
}

let max_table = 4096

let create ?now ?(tracer = Tracer.null) ~threshold ~cooldown_ms () =
  if threshold < 1 then invalid_arg "Breaker.create: threshold must be >= 1";
  if cooldown_ms < 1 then
    invalid_arg "Breaker.create: cooldown_ms must be >= 1";
  let now =
    match now with
    | Some f -> f
    | None -> fun () -> Rtlb_obs.Clock.now_ns Rtlb_obs.Clock.monotonic
  in
  {
    threshold;
    cooldown_ns = Int64.mul (Int64.of_int cooldown_ms) 1_000_000L;
    now;
    tracer;
    mutex = Mutex.create ();
    table = Hashtbl.create 64;
  }

type verdict = Proceed | Probe | Fast_fail of { retry_after_ms : int }

let state t key =
  Option.value ~default:(Closed 0) (Hashtbl.find_opt t.table key)

(* Retry hint: the remaining cooldown, rounded up, clamped to
   [1, 60_000] ms — same bounds discipline as Quota's hint. *)
let retry_ms remaining_ns =
  let ms = Int64.to_int (Int64.div (Int64.add remaining_ns 999_999L) 1_000_000L) in
  if ms < 1 then 1 else if ms > 60_000 then 60_000 else ms

let check t key =
  Mutex.lock t.mutex;
  let verdict =
    match state t key with
    | Closed _ -> Proceed
    | Half_open ->
        Fast_fail
          { retry_after_ms = retry_ms (Int64.div t.cooldown_ns 2L) }
    | Open until ->
        let remaining = Int64.sub until (t.now ()) in
        if Int64.compare remaining 0L > 0 then
          Fast_fail { retry_after_ms = retry_ms remaining }
        else begin
          (* cooldown over: this caller becomes the single probe *)
          Hashtbl.replace t.table key Half_open;
          Tracer.add t.tracer Tracer.Breaker_probes 1;
          Probe
        end
  in
  Mutex.unlock t.mutex;
  verdict

let success t key =
  Mutex.lock t.mutex;
  (match state t key with
  | Closed 0 -> ()  (* never tripped: keep the table sparse *)
  | Closed _ | Half_open | Open _ -> Hashtbl.replace t.table key (Closed 0));
  Mutex.unlock t.mutex

let trip t key =
  Hashtbl.replace t.table key (Open (Int64.add (t.now ()) t.cooldown_ns));
  Tracer.add t.tracer Tracer.Breaker_opens 1

let failure t key =
  Mutex.lock t.mutex;
  if Hashtbl.length t.table > max_table then Hashtbl.reset t.table;
  (match state t key with
  | Closed n when n + 1 >= t.threshold -> trip t key
  | Closed n -> Hashtbl.replace t.table key (Closed (n + 1))
  | Half_open -> trip t key  (* the probe itself failed: back to open *)
  | Open _ -> ()  (* a request admitted before the trip; already open *));
  Mutex.unlock t.mutex

let open_count t =
  Mutex.lock t.mutex;
  let n =
    Hashtbl.fold
      (fun _ st acc ->
        match st with Open _ | Half_open -> acc + 1 | Closed _ -> acc)
      t.table 0
  in
  Mutex.unlock t.mutex;
  n
