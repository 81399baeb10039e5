(* Open-loop load over the daemon's socket.

   One thread sends every request at its due time, whatever the replies
   do, over [Schedule.connections] connections.  Frames are rendered
   before the clock starts and written without blocking: a connection
   whose socket buffer is full keeps its backlog and is flushed as the
   daemon reads, so one stalled connection never delays the other or
   the clock.  A request is timed from its due time to the arrival of
   the last byte of its reply line. *)

type conn = {
  fd : Unix.file_descr;
  out : (string * int ref) Queue.t;  (* pending frame pieces *)
  mutable inbuf : Bytes.t;
  mutable inlen : int;
  mutable scanned : int;  (* bytes of [inbuf] known to hold no newline *)
  mutable closed : bool;  (* the daemon hung up *)
}

type result = {
  start_ns : int;  (** Clock time of schedule offset [from_ns]. *)
  lag_ns : int array;
      (** How late the generator handed each frame to its connection; all
          arrays are indexed from [lo]. *)
  done_ns : int array;  (** Reply arrival, clock time; [-1] when none. *)
  replies : Check.seen option array;
  stray : int;  (** Reply lines naming no request of the schedule. *)
}

let conn fd =
  Unix.set_nonblock fd;
  { fd; out = Queue.create (); inbuf = Bytes.create 262144; inlen = 0; scanned = 0; closed = false }

(* Writes as much pending output as the socket takes now. *)
let flush c =
  let rec go () =
    match Queue.peek_opt c.out with
    | None -> ()
    | Some (s, off) -> (
        let len = String.length s - !off in
        match Unix.single_write_substring c.fd s !off len with
        | n ->
            off := !off + n;
            if n = len then (
              ignore (Queue.pop c.out);
              go ())
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
        | exception Unix.Unix_error _ ->
            (* the daemon hung up: these requests get no reply *)
            Queue.clear c.out)
  in
  go ()

(* Reads what is available; calls [line] on each complete reply. *)
let drain c ~line =
  if Bytes.length c.inbuf - c.inlen < 65536 then begin
    let bigger = Bytes.create (2 * Bytes.length c.inbuf) in
    Bytes.blit c.inbuf 0 bigger 0 c.inlen;
    c.inbuf <- bigger
  end;
  match Unix.read c.fd c.inbuf c.inlen (Bytes.length c.inbuf - c.inlen) with
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> true
  | exception Unix.Unix_error _ -> false
  | 0 -> false
  | n ->
      c.inlen <- c.inlen + n;
      let start = ref 0 in
      let i = ref c.scanned in
      while !i < c.inlen do
        if Bytes.get c.inbuf !i = '\n' then begin
          line (Bytes.sub_string c.inbuf !start (!i - !start));
          start := !i + 1
        end;
        incr i
      done;
      Bytes.blit c.inbuf !start c.inbuf 0 (c.inlen - !start);
      c.inlen <- c.inlen - !start;
      c.scanned <- c.inlen;
      true

(* Sends requests [lo, hi) of the schedule, request [i] at [start_ns +
   due_ns.(i) - from_ns], and collects their replies until all arrived or
   [drain_timeout_s] after the last due time. *)
let run ~(sched : Schedule.t) ~lo ~hi ~from_ns ~(conns : conn array) ~drain_timeout_s =
  let reqs = sched.Schedule.requests in
  let n = hi - lo in
  let pieces = Array.init n (fun k -> Schedule.frame_pieces sched reqs.(lo + k)) in
  let due k = reqs.(lo + k).Schedule.due_ns - from_ns in
  let lag_ns = Array.make n 0 in
  let done_ns = Array.make n (-1) in
  let replies = Array.make n None in
  let received = ref 0 and stray = ref 0 in
  let on_line l =
    let now = Proc.now_ns () in
    match Check.reply_id l with
    | Some id when id >= lo && id < hi && replies.(id - lo) = None ->
        done_ns.(id - lo) <- now;
        replies.(id - lo) <- Some (Check.seen_of_line l);
        incr received
    | _ -> incr stray
  in
  (* the first due time is 20 ms out, so set-up noise never makes the
     opening requests late *)
  let start_ns = Proc.now_ns () + 20_000_000 in
  let last_due = if n = 0 then start_ns else start_ns + due (n - 1) in
  let give_up = last_due + int_of_float (drain_timeout_s *. 1e9) in
  let next = ref 0 in
  let live () = List.filter (fun c -> not c.closed) (Array.to_list conns) in
  let rec loop () =
    let now = Proc.now_ns () in
    while !next < n && start_ns + due !next <= now do
      lag_ns.(!next) <- now - (start_ns + due !next);
      let c = conns.(reqs.(lo + !next).Schedule.conn) in
      List.iter (fun s -> Queue.push (s, ref 0) c.out) pieces.(!next);
      incr next
    done;
    List.iter flush (live ());
    if (!next = n && !received = n) || now > give_up || live () = [] then ()
    else begin
      let wait_s =
        if !next < n then float_of_int (start_ns + due !next - now) /. 1e9 else 0.05
      in
      let live = live () in
      let writes = List.filter (fun c -> not (Queue.is_empty c.out)) live in
      (match
         Unix.select (List.map (fun c -> c.fd) live) (List.map (fun c -> c.fd) writes) []
           (Float.max 0.0 wait_s)
       with
      | readable, _, _ ->
          List.iter
            (fun c ->
              if List.mem c.fd readable && not (drain c ~line:on_line) then c.closed <- true)
            live
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
      loop ()
    end
  in
  loop ();
  { start_ns; lag_ns; done_ns; replies; stray = !stray }
