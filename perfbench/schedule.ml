(* Workload inputs, made from the seed alone.

   Every instance, edit and arrival time below is a function of
   [(workload, seed, seconds)]; the program under test only ever sees
   the rendered application files and request frames. *)

type workload = Analyze_frames | Serve_sweep | Serve_mixed

let workloads = [ Analyze_frames; Serve_sweep; Serve_mixed ]

let name = function
  | Analyze_frames -> "analyze-frames"
  | Serve_sweep -> "serve-sweep"
  | Serve_mixed -> "serve-mixed"

let of_name s = List.find_opt (fun w -> name w = s) workloads

(* Offered rate (requests per second) and latency limit of each serve
   workload, and the limit one analyze process is held to.  The rates
   stay well below what the daemon sustains with default flags on a
   2-core host (see README.md), so queues stay short and run-to-run
   figures steady. *)
let rate_per_s = function
  | Analyze_frames -> 0.0
  | Serve_sweep -> 48.0
  | Serve_mixed -> 46.0

let limit_ms = function
  | Analyze_frames -> 30_000.0
  | Serve_sweep -> 400.0
  | Serve_mixed -> 1000.0

let burst = 16

(* Gaps between serve-sweep bursts are this floor plus an exponential:
   a burst drains in about 90 ms, so bursts seldom pile up, and the tail
   measures a burst's own drain rather than the chance collision of two
   or three bursts, which at a hundred bursts a run varies widely from
   seed to seed. *)
let burst_floor_s = 0.2

(* Gaps between serve-mixed cold analyses are this floor plus an
   exponential: a cold request takes tens of ms, so two seldom overlap,
   and the tail does not hinge on chance pile-ups of cold builds. *)
let cold_floor_s = 0.15

(* Serve load runs this long, unmeasured, before the measured phase: the
   daemon's heap grows and its caches fill first. *)
let warmup_s = 3.0
let hot_count = 4
let hot_frames = 3  (* 300 tasks *)

(* 1,000 tasks.  With 2,000-task cold instances the cold builds took about
   half the daemon's CPU, and on a host slowed by other guests the
   daemon's queue grew enough that the run-to-run spread of the median
   latency more than doubled. *)
let cold_frames = 10
let cold_share = 0.1
let analyze_frames = 1000  (* 10^5 tasks *)

type instance = {
  app : Rtlb.App.t;
  system : Rtlb.System.t;
  text : string;  (** Application file text, system model included. *)
  json_text : string Lazy.t;
      (** [text] as a JSON string literal, for request frames; made on first
          use, so analyze-frames, which sends no frames, never makes it. *)
}

(* Distinct, reproducible generator seeds for the parts of one run. *)
let sub_seed seed k = Hashtbl.hash (seed, k, "perfbench")

let instance ~seed ~frames =
  let app = Workload.Gen.layered_frames ~seed ~frames () in
  let system = Workload.Gen.frame_system () in
  let text = Rtfmt.Appfile.to_string ~system app in
  { app; system; text; json_text = lazy (Rtfmt.Json.to_string (Rtfmt.Json.Str text)) }

let frames_instance ~seed = instance ~seed:(sub_seed seed 0) ~frames:analyze_frames

(* Frames are rendered before any clock starts: the hot set's literal is
   made here, not in the timed daemon set-up. *)
let hot_set ~seed =
  Array.init hot_count (fun k ->
      let i = instance ~seed:(sub_seed seed (1 + k)) ~frames:hot_frames in
      ignore (Lazy.force i.json_text);
      i)

type kind =
  | Whatif of { inst : int; edit : Rtlb.Incremental.edit }
      (** A single-field edit of a hot instance. *)
  | Cold of int  (** [analyze] of a never-sent instance, by index. *)

type request = {
  id : int;  (** Index in [requests]; echoed by the daemon. *)
  due_ns : int;  (** Offset from the start of the measured phase. *)
  conn : int;  (** Connection (0 or 1) that carries it. *)
  kind : kind;
}

type t = {
  workload : workload;
  seed : int;
  seconds : float;  (** Length of the measured phase. *)
  hot : instance array;
  cold : instance array;
  requests : request array;
      (** In due order, the warm-up's first; due times run over
          [warmup_s + seconds]. *)
  measured_from : int;  (** Index of the first measured request. *)
}

let connections = 2

(* A perturbation small enough to keep the instance realistic, always
   within [release + compute <= deadline] so no request is refused. *)
let random_edit st app =
  let n = Rtlb.App.n_tasks app in
  let rec pick () =
    let task = Random.State.int st n in
    let t = Rtlb.App.task app task in
    let r = t.Rtlb.Task.release
    and c = t.Rtlb.Task.compute
    and d = t.Rtlb.Task.deadline in
    let span = max 1 ((d - r) / 10) in
    let between lo hi = lo + Random.State.int st (max 1 (hi - lo + 1)) in
    match Random.State.int st 3 with
    | 0 ->
        let deadline = between (max (r + c) (d - span)) (d + span) in
        Rtlb.Incremental.Set_deadline
          { task; deadline = (if deadline = d then d + span else deadline) }
    | 1 when d - c > 0 ->
        Rtlb.Incremental.Set_release
          { task; release = between (max 0 (r - span)) (min (d - c) (r + span)) }
    | 2 when c > 0 ->
        let step = max 1 (c / 4) in
        Rtlb.Incremental.Set_compute
          { task; compute = between (max 1 (c - step)) (min (d - r) (c + step)) }
    | _ -> pick ()
  in
  pick ()

(* Arrival times of a Poisson process conditioned on its count: [n]
   uniform instants in [0, seconds), sorted, so the gaps are exponential
   and every seed offers exactly the same number of requests.  With a
   [floor], the k-th instant is moved [k * floor] later within the same
   span, which keeps every gap at least [floor] and exponential above
   it. *)
let arrivals ?(floor = 0.0) st ~n ~seconds =
  let free = seconds -. (float_of_int n *. floor) in
  let a = Array.init n (fun _ -> Random.State.float st free) in
  Array.sort Float.compare a;
  Array.mapi (fun k t -> int_of_float ((t +. (float_of_int k *. floor)) *. 1e9)) a

let make workload ~seed ~seconds =
  let st = Random.State.make [| seed; Hashtbl.hash (name workload) |] in
  let span = warmup_s +. seconds in
  let with_requests ~hot ~cold requests =
    let warm_ns = int_of_float (warmup_s *. 1e9) in
    let k = ref 0 in
    while !k < Array.length requests && requests.(!k).due_ns < warm_ns do incr k done;
    { workload; seed; seconds; hot; cold; requests; measured_from = !k }
  in
  match workload with
  | Analyze_frames ->
      { workload; seed; seconds; hot = [||]; cold = [||]; requests = [||]; measured_from = 0 }
  | Serve_sweep ->
      let hot = hot_set ~seed in
      let bursts =
        max 1
          (int_of_float
             (Float.round (rate_per_s workload *. span /. float_of_int burst)))
      in
      let times = arrivals ~floor:burst_floor_s st ~n:bursts ~seconds:span in
      let requests =
        Array.concat
          (List.init bursts (fun b ->
               let inst = Random.State.int st hot_count in
               Array.init burst (fun k ->
                   {
                     id = (b * burst) + k;
                     due_ns = times.(b);
                     conn = b mod connections;
                     kind =
                       Whatif { inst; edit = random_edit st hot.(inst).app };
                   })))
      in
      with_requests ~hot ~cold:[||] requests
  | Serve_mixed ->
      let hot = hot_set ~seed in
      let n = max 1 (int_of_float (Float.round (rate_per_s workload *. span))) in
      let n_cold = int_of_float (Float.round (cold_share *. float_of_int n)) in
      (* two streams: Poisson what-ifs, and cold analyses whose gaps keep
         a floor, so the cold stream holds its share in every stretch of
         the run instead of bunching by chance *)
      let warm_times = arrivals st ~n:(n - n_cold) ~seconds:span in
      let cold_times = arrivals ~floor:cold_floor_s st ~n:n_cold ~seconds:span in
      let merged =
        List.merge
          (fun (a, _) (b, _) -> compare a b)
          (Array.to_list (Array.map (fun t -> (t, false)) warm_times))
          (Array.to_list (Array.map (fun t -> (t, true)) cold_times))
      in
      let next_cold = ref 0 in
      let requests =
        Array.of_list
          (List.mapi
             (fun i (due_ns, cold) ->
               let kind =
                 if cold then begin
                   let j = !next_cold in
                   incr next_cold;
                   Cold j
                 end
                 else
                   let inst = Random.State.int st hot_count in
                   Whatif { inst; edit = random_edit st hot.(inst).app }
               in
               { id = i; due_ns; conn = i mod connections; kind })
             merged)
      in
      let cold =
        Array.init n_cold (fun j ->
            instance ~seed:(sub_seed seed (1000 + j)) ~frames:cold_frames)
      in
      with_requests ~hot ~cold requests

(* ---- request frames ---------------------------------------------- *)

let edit_json = function
  | Rtlb.Incremental.Set_release { task; release } ->
      Printf.sprintf "{\"task\":%d,\"release\":%d}" task release
  | Rtlb.Incremental.Set_deadline { task; deadline } ->
      Printf.sprintf "{\"task\":%d,\"deadline\":%d}" task deadline
  | Rtlb.Incremental.Set_compute { task; compute } ->
      Printf.sprintf "{\"task\":%d,\"compute\":%d}" task compute

(* The frame of a request as a few pieces (newline included): the app
   text literal is shared by every request on the same instance, so a
   long schedule costs little memory. *)
let frame_pieces t r =
  match r.kind with
  | Whatif { inst; edit } ->
      [
        Printf.sprintf "{\"id\":%d,\"op\":\"whatif\",\"app\":" r.id;
        Lazy.force t.hot.(inst).json_text;
        Printf.sprintf ",\"edits\":[%s]}\n" (edit_json edit);
      ]
  | Cold j ->
      [
        Printf.sprintf "{\"id\":%d,\"op\":\"analyze\",\"app\":" r.id;
        Lazy.force t.cold.(j).json_text;
        "}\n";
      ]

let analyze_frame ~id inst =
  Printf.sprintf "{\"id\":%d,\"op\":\"analyze\",\"app\":%s}" id (Lazy.force inst.json_text)

(* The frame as one line, without its newline (for [Server.submit]). *)
let frame_line t r =
  let s = String.concat "" (frame_pieces t r) in
  String.sub s 0 (String.length s - 1)

let is_warm r = match r.kind with Whatif _ -> true | Cold _ -> false
