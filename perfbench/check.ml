(* Answer checking.

   Every CLI output and daemon reply is compared, off the clock, with a
   cold one-shot library analysis of the same (edited) instance rendered
   by the same encoder.  A reply passes only when it is byte-identical to
   that rendering: an error reply, a refusal, a degraded or partial
   answer, or a wrong number all differ from it. *)

module Json = Rtfmt.Json
module Protocol = Rtlb_serve.Protocol

(* What [rtlb analyze FILE --json] prints. *)
let cli_output (a : Rtlb.Analysis.t) = Json.to_string (Json.of_analysis a) ^ "\n"

let analyze_reply ~id (a : Rtlb.Analysis.t) =
  Protocol.to_line
    (Protocol.ok_reply ~id:(Json.Int id) ~op:Protocol.Analyze (Json.of_analysis a))

let whatif_reply ~id ~base ~edited =
  Protocol.to_line
    (Protocol.ok_reply ~id:(Json.Int id) ~op:Protocol.Whatif
       (Json.of_whatif ~base ~edited))

(* Digests of the reference replies of a schedule, memoised per
   request, with the analyses behind them memoised per instance and
   edit. *)
type refs = {
  sched : Schedule.t;
  bases : Rtlb.Analysis.t option array;
  edited : (int * Rtlb.Incremental.edit, Rtlb.Analysis.t) Hashtbl.t;
  digests : (int, Digest.t) Hashtbl.t;
}

let refs sched =
  {
    sched;
    bases = Array.make (Array.length sched.Schedule.hot) None;
    edited = Hashtbl.create 1024;
    digests = Hashtbl.create 1024;
  }

let base refs inst =
  match refs.bases.(inst) with
  | Some a -> a
  | None ->
      let i = refs.sched.Schedule.hot.(inst) in
      let a = Rtlb.Analysis.run i.Schedule.system i.Schedule.app in
      refs.bases.(inst) <- Some a;
      a

let expected_line refs (r : Schedule.request) =
  match r.Schedule.kind with
  | Schedule.Whatif { inst; edit } ->
      let edited =
        match Hashtbl.find_opt refs.edited (inst, edit) with
        | Some a -> a
        | None ->
            let i = refs.sched.Schedule.hot.(inst) in
            let a =
              Rtlb.Analysis.run i.Schedule.system
                (Rtlb.Incremental.apply i.Schedule.app [ edit ])
            in
            Hashtbl.replace refs.edited (inst, edit) a;
            a
      in
      whatif_reply ~id:r.Schedule.id ~base:(base refs inst) ~edited
  | Schedule.Cold j ->
      let i = refs.sched.Schedule.cold.(j) in
      analyze_reply ~id:r.Schedule.id (Rtlb.Analysis.run i.Schedule.system i.Schedule.app)

let expected refs (r : Schedule.request) =
  match Hashtbl.find_opt refs.digests r.Schedule.id with
  | Some d -> d
  | None ->
      let d = Digest.string (expected_line refs r) in
      Hashtbl.replace refs.digests r.Schedule.id d;
      d

(* ---- verdicts ---------------------------------------------------- *)

(* A received reply, as kept during the run: its digest, and its first
   bytes for diagnosis. *)
type seen = { digest : Digest.t; head : string }

let head_bytes = 240

let seen_of_line line =
  {
    digest = Digest.string line;
    head = String.sub line 0 (min head_bytes (String.length line));
  }

type verdict = Correct | Wrong | Error_reply of string | Missing

(* Position just past [key] followed by optional blanks and a colon and
   blanks, searching from [from]; [None] when absent. *)
let value_after s key =
  let n = String.length s and k = String.length key in
  let rec find i =
    if i + k > n then None
    else if String.sub s i k = key then (
      let j = ref (i + k) in
      while !j < n && (s.[!j] = ' ' || s.[!j] = ':') do incr j done;
      Some !j)
    else find (i + 1)
  in
  find 0

let starts_at s i p =
  i + String.length p <= String.length s && String.sub s i (String.length p) = p

(* The stable error code of an error reply ("S303", "E102", ...). *)
let error_code head =
  match value_after head "\"ok\"" with
  | Some i when starts_at head i "false" -> (
      match value_after head "\"code\"" with
      | Some j when j < String.length head && head.[j] = '"' -> (
          match String.index_from_opt head (j + 1) '"' with
          | Some e -> Some (String.sub head (j + 1) (e - j - 1))
          | None -> Some "?")
      | _ -> Some "?")
  | _ -> None

(* [expected] is the digest of the reference reply. *)
let verdict ~expected = function
  | None -> Missing
  | Some seen -> (
      if Digest.equal seen.digest expected then Correct
      else match error_code seen.head with Some c -> Error_reply c | None -> Wrong)

(* The request id a reply echoes, read from its first field. *)
let reply_id line =
  match value_after line "\"id\"" with
  | None -> None
  | Some i ->
      let n = String.length line in
      let j = ref i in
      if !j < n && line.[!j] = '-' then incr j;
      while !j < n && line.[!j] >= '0' && line.[!j] <= '9' do incr j done;
      int_of_string_opt (String.sub line i (!j - i))

(* ---- tallies ----------------------------------------------------- *)

type tally = {
  mutable attempted : int;
  mutable correct : int;
  mutable wrong : int;
  mutable errors : int;
  mutable missing : int;
  mutable in_time : int;  (** Correct and within the latency limit. *)
  mutable codes : (string * int) list;  (** Error replies by code. *)
}

let tally () =
  { attempted = 0; correct = 0; wrong = 0; errors = 0; missing = 0; in_time = 0; codes = [] }

let failed t = t.attempted - t.correct

let record t ~within v =
  t.attempted <- t.attempted + 1;
  match v with
  | Correct ->
      t.correct <- t.correct + 1;
      if within then t.in_time <- t.in_time + 1
  | Wrong -> t.wrong <- t.wrong + 1
  | Missing -> t.missing <- t.missing + 1
  | Error_reply code ->
      t.errors <- t.errors + 1;
      t.codes <-
        (code, 1 + Option.value ~default:0 (List.assoc_opt code t.codes))
        :: List.remove_assoc code t.codes
