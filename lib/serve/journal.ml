(* Warm-state journal: an append-only log of the instances the daemon
   answered, so a restarted process can rebuild its warm handle cache
   instead of serving cold.

   Format (JSON lines, like the wire protocol):

     rtlb-journal v1
     {"sum": "<md5 hex of tag, NUL, app>", "engine": "record", "app": "..."}
     ...

   The engine tag stays for format compatibility: every v1 reader
   requires it and checks the sum over it.  New records carry "record";
   records tagged "soa", written by daemons that had a second what-if
   engine, still load.  Each record's sum covers its own tag, and the
   two tags of one text are one instance.

   Every record carries its own checksum ([sum] is recomputed from the
   payload on load), so the trust discipline can match
   Rtfmt.Checkpoint: a record that fails to parse, fails its checksum,
   or is missing its trailing newline (a torn append) is dropped
   TOGETHER WITH EVERYTHING AFTER IT — a corrupt tail is never spliced
   into the warm set, and the clean prefix is immediately rewritten
   (atomically) so later appends never extend garbage.

   The log is bounded and log-structured: appends go through one
   O_APPEND fd (a single write per record), duplicates are moved to the
   front of the in-memory recency order without rewriting history, and
   once the file holds more than [2 * capacity] record lines it is
   compacted — rewritten through Atomic_io with just the live entries,
   oldest first.  A crash mid-compaction leaves the previous complete
   file (rename atomicity); a crash mid-append leaves a torn tail the
   next load drops.  Either way the journal is an optimization that can
   only lose warmth, never correctness. *)

module Json = Rtfmt.Json
module Tracer = Rtlb_obs.Tracer
module Chaos = Rtlb_par.Chaos

let header = "rtlb-journal v1"

type entry = { je_app : string }

type t = {
  path : string;
  capacity : int;
  tracer : Tracer.t;
  mutex : Mutex.t;
  mutable fd : Unix.file_descr option;
  mutable order : (string * entry) list;
      (* most recent first, keyed by the sum of the entry's record *)
  mutable file_lines : int;  (* record lines physically in the file *)
  mutable appends : int;  (* chaos replay key (journalcorrupt@N) *)
  mutable dropped : int;  (* corrupt-tail lines dropped at open *)
}

let digest_hex tag app =
  Digest.to_hex (Digest.string (String.concat "\x00" [ tag; app ]))

(* The key of an instance: the sum of the record it is written as. *)
let key app = digest_hex "record" app

let render_entry sum app =
  Json.to_string ~indent:false
    (Json.Obj
       [
         ("sum", Json.Str sum);
         ("engine", Json.Str "record");
         ("app", Json.Str app);
       ])

(* One record line back into an entry; None means the line (and, per
   the tail discipline, everything after it) is untrusted. *)
let parse_entry line =
  match Json.parse line with
  | exception Json.Parse_error _ -> None
  | Json.Obj fields -> (
      match
        ( List.assoc_opt "sum" fields,
          List.assoc_opt "engine" fields,
          List.assoc_opt "app" fields )
      with
      | ( Some (Json.Str sum),
          Some (Json.Str (("record" | "soa") as tag)),
          Some (Json.Str app) )
        when digest_hex tag app = sum ->
          Some { je_app = app }
      | _ -> None)
  | _ -> None

let read_file path =
  match open_in_bin path with
  | exception Sys_error _ -> None
  | ic ->
      let len = in_channel_length ic in
      let content = really_input_string ic len in
      close_in_noerr ic;
      Some content

(* Split into lines, flagging a missing final newline: the last
   "line" of a torn append is not a record, it is debris. *)
let lines_of content =
  let n = String.length content in
  if n = 0 then ([], false)
  else
    let complete = content.[n - 1] = '\n' in
    let body = if complete then String.sub content 0 (n - 1) else content in
    let lines = String.split_on_char '\n' body in
    if complete then (lines, false)
    else
      match List.rev lines with
      | _torn :: rest -> (List.rev rest, true)
      | [] -> ([], true)

let dedup_front entries =
  (* keep each digest's most recent occurrence; input newest first *)
  let seen = Hashtbl.create 64 in
  List.filter
    (fun (digest, _) ->
      if Hashtbl.mem seen digest then false
      else begin
        Hashtbl.add seen digest ();
        true
      end)
    entries

let take n l =
  let rec go n = function
    | [] -> []
    | _ when n = 0 -> []
    | x :: rest -> x :: go (n - 1) rest
  in
  go (max 0 n) l

(* Rewrite the file from the live set (compaction, corrupt-tail repair,
   capacity trim), atomically, and reopen the append fd. *)
let rewrite t =
  (match t.fd with
  | Some fd ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      t.fd <- None
  | None -> ());
  Rtfmt.Atomic_io.write_atomic t.path (fun oc ->
      output_string oc (header ^ "\n");
      List.iter
        (fun (sum, e) -> output_string oc (render_entry sum e.je_app ^ "\n"))
        (List.rev t.order));
  t.file_lines <- List.length t.order;
  t.fd <-
    Some (Unix.openfile t.path [ Unix.O_WRONLY; Unix.O_APPEND ] 0o644)

let open_ ?(tracer = Tracer.null) ~capacity path =
  if capacity < 1 then invalid_arg "Journal.open_: capacity must be >= 1";
  let t =
    {
      path;
      capacity;
      tracer;
      mutex = Mutex.create ();
      fd = None;
      order = [];
      file_lines = 0;
      appends = 0;
      dropped = 0;
    }
  in
  let clean =
    match read_file path with
    | None | Some "" ->
        t.order <- [];
        false  (* fresh or unreadable: write header below *)
    | Some content -> (
        let lines, torn = lines_of content in
        match lines with
        | first :: records when first = header ->
            (* walk the records; the first untrusted one poisons the
               rest of the file *)
            let rec walk acc dropped = function
              | [] -> (acc, dropped)
              | line :: rest -> (
                  match parse_entry line with
                  | Some e -> walk ((key e.je_app, e) :: acc) dropped rest
                  | None -> (acc, List.length rest + 1))
            in
            let newest_first, dropped = walk [] 0 records in
            t.dropped <- dropped + (if torn then 1 else 0);
            t.order <- take capacity (dedup_front newest_first);
            t.file_lines <- List.length records - dropped;
            (* clean only if nothing was dropped, deduped or trimmed *)
            t.dropped = 0 && t.file_lines = List.length t.order
        | _ ->
            (* missing or corrupt header: the whole file is untrusted *)
            t.dropped <- List.length lines + (if torn then 1 else 0);
            t.order <- [];
            false)
  in
  if clean then
    t.fd <-
      Some
        (Unix.openfile t.path
           [ Unix.O_WRONLY; Unix.O_APPEND; Unix.O_CREAT ]
           0o644)
  else rewrite t;
  t

let write_line fd line =
  let payload = Bytes.of_string line in
  let len = Bytes.length payload in
  let rec push off =
    if off < len then
      match Unix.write fd payload off (len - off) with
      | n -> push (off + n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> push off
  in
  push 0

let record t ~app =
  let digest = key app in
  Mutex.lock t.mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.mutex)
    (fun () ->
      match t.order with
      | (d, _) :: _ when d = digest -> ()  (* already the most recent *)
      | order ->
          let entry = { je_app = app } in
          t.order <-
            take t.capacity
              ((digest, entry) :: List.filter (fun (d, _) -> d <> digest) order);
          (match t.fd with
          | None -> ()
          | Some fd -> (
              let seq = t.appends in
              t.appends <- seq + 1;
              try
                write_line fd (render_entry digest app ^ "\n");
                t.file_lines <- t.file_lines + 1;
                (* chaos: garble the tail the way a torn write would —
                   the next open must drop it, never trust it *)
                if Chaos.journal_corrupt seq then
                  write_line fd "\xff\xfe{torn journal tail";
                if t.file_lines > max (2 * t.capacity) 8 then rewrite t
              with Unix.Unix_error _ | Sys_error _ ->
                (* disk trouble never fails a request; the journal just
                   stops gaining warmth *)
                ())))

let entries t =
  Mutex.lock t.mutex;
  let es = List.map snd t.order in
  Mutex.unlock t.mutex;
  es

let length t =
  Mutex.lock t.mutex;
  let n = List.length t.order in
  Mutex.unlock t.mutex;
  n

let dropped_tail t = t.dropped

let path t = t.path

let close t =
  Mutex.lock t.mutex;
  (match t.fd with
  | Some fd ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      t.fd <- None
  | None -> ());
  Mutex.unlock t.mutex
