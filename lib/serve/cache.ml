(* Text-keyed LRU cache of warm incremental handles, with per-key
   claims (cache.mli states the discipline).  A checked-out handle is
   out of [entries] and its key is in [held]; a crash-isolation discard
   drops the handle, so the cache cannot hold a half-mutated one. *)

type entry = { e_key : string; e_text : string; e_handle : Rtlb.Incremental.t }

type t = {
  capacity : int;
  tracer : Rtlb_obs.Tracer.t;
  mutex : Mutex.t;
  freed : Condition.t;  (* broadcast whenever a claim ends *)
  mutable entries : entry list;  (* most recently used first *)
  mutable held : string list;  (* claimed keys: checked out or being built *)
}

let create ?(tracer = Rtlb_obs.Tracer.null) ~capacity () =
  if capacity < 0 then invalid_arg "Cache.create: negative capacity";
  {
    capacity;
    tracer;
    mutex = Mutex.create ();
    freed = Condition.create ();
    entries = [];
    held = [];
  }

let length t =
  Mutex.lock t.mutex;
  let n = List.length t.entries in
  Mutex.unlock t.mutex;
  n

let mem t k =
  Mutex.lock t.mutex;
  let found =
    List.exists (String.equal k) t.held
    || List.exists (fun e -> String.equal e.e_key k) t.entries
  in
  Mutex.unlock t.mutex;
  found

let checkout t k ~text =
  Mutex.lock t.mutex;
  while List.exists (String.equal k) t.held do
    Condition.wait t.freed t.mutex
  done;
  t.held <- k :: t.held;
  let hit =
    List.find_opt
      (fun e -> String.equal e.e_key k && String.equal e.e_text text)
      t.entries
  in
  Option.iter (fun e -> t.entries <- List.filter (fun x -> x != e) t.entries) hit;
  Mutex.unlock t.mutex;
  Option.map (fun e -> e.e_handle) hit

(* Callers hold [t.mutex]. *)
let unclaim t k =
  t.held <- List.filter (fun h -> not (String.equal h k)) t.held;
  Condition.broadcast t.freed

let checkin t k ~text handle =
  Mutex.lock t.mutex;
  unclaim t k;
  let survivors = List.filter (fun e -> not (String.equal e.e_key k)) t.entries in
  let entries = { e_key = k; e_text = text; e_handle = handle } :: survivors in
  let rec take n = function
    | [] -> ([], 0)
    | _ :: rest when n = 0 -> ([], 1 + List.length rest)
    | e :: rest ->
        let kept, evicted = take (n - 1) rest in
        (e :: kept, evicted)
  in
  let kept, evicted = take t.capacity entries in
  t.entries <- kept;
  Mutex.unlock t.mutex;
  if evicted > 0 then Rtlb_obs.Tracer.add t.tracer Rtlb_obs.Tracer.Evictions evicted

let release t k =
  Mutex.lock t.mutex;
  unclaim t k;
  Mutex.unlock t.mutex

let discard t k =
  release t k;
  Rtlb_obs.Tracer.add t.tracer Rtlb_obs.Tracer.Evictions 1
