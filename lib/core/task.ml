type t = {
  id : int;
  name : string;
  compute : int;
  release : int;
  deadline : int;
  proc : string;
  resources : string list;
  demands : (string * int) list;
  preemptive : bool;
}

(* Whether [compute] fits in [release, deadline], for non-negative
   [release] and [compute].  [release + compute] would wrap past
   [max_int]; [deadline - release] cannot once [deadline >= release]. *)
let window_holds ~release ~compute ~deadline =
  deadline >= release && compute <= deadline - release

(* The sorted, grouped form of a resource list: a resource listed [k]
   times demands [k] units. *)
let group resources =
  match resources with
  | [] -> []
  | [ r ] -> [ (r, 1) ]
  | _ ->
      List.fold_left
        (fun acc r ->
          match acc with
          | (r', k) :: rest when String.equal r r' -> (r', k + 1) :: rest
          | _ -> (r, 1) :: acc)
        []
        (List.sort String.compare resources)
      |> List.rev

(* Whether [demands] is what [group] returns: names strictly ascending,
   units positive. *)
let rec grouped = function
  | [] -> true
  | [ (_, k) ] -> k >= 1
  | (r, k) :: ((r', _) :: _ as rest) ->
      k >= 1 && String.compare r r' < 0 && grouped rest

let check ~id ~compute ~release ~deadline ~proc ~demands =
  if id < 0 then invalid_arg "Task.make: negative id";
  if compute < 0 then invalid_arg "Task.make: negative computation time";
  if release < 0 then invalid_arg "Task.make: negative release time";
  if not (window_holds ~release ~compute ~deadline) then
    invalid_arg
      (Printf.sprintf "Task.make: task %d cannot meet deadline (%d + %d > %d)"
         id release compute deadline);
  if proc = "" then invalid_arg "Task.make: empty processor type";
  if not (grouped demands) then
    invalid_arg "Task.make: demands not grouped (sorted names, positive units)";
  if List.mem_assoc proc demands then
    invalid_arg "Task.make: processor type listed among resources"

let of_demands ~id ~name ~compute ~release ~deadline ~proc ~demands ~preemptive
    =
  check ~id ~compute ~release ~deadline ~proc ~demands;
  { id; name; compute; release; deadline; proc;
    resources = List.map fst demands; demands; preemptive }

let make ~id ?name ~compute ?(release = 0) ~deadline ~proc ?(resources = [])
    ?(preemptive = false) () =
  let name =
    match name with Some n -> n | None -> Printf.sprintf "T%d" (id + 1)
  in
  of_demands ~id ~name ~compute ~release ~deadline ~proc
    ~demands:(group resources) ~preemptive

let needs t = t.proc :: t.resources

let demand_units ~proc ~demands r =
  if String.equal r proc then 1
  else match List.assoc_opt r demands with Some k -> k | None -> 0

let demand_uses ~proc ~demands r =
  String.equal r proc || List.mem_assoc r demands

let units t r = demand_units ~proc:t.proc ~demands:t.demands r
let uses t r = demand_uses ~proc:t.proc ~demands:t.demands r
let laxity t = t.deadline - t.release - t.compute

let with_preemptive t preemptive = { t with preemptive }

let check_deadline ~release ~compute deadline =
  if not (window_holds ~release ~compute ~deadline) then
    invalid_arg "Task.with_deadline: deadline too tight"

let check_release ~compute ~deadline release =
  if release < 0 then invalid_arg "Task.with_release: negative release time";
  if not (window_holds ~release ~compute ~deadline) then
    invalid_arg "Task.with_release: release too late for the deadline"

let check_compute ~release ~deadline compute =
  if compute < 0 then invalid_arg "Task.with_compute: negative computation time";
  if not (window_holds ~release ~compute ~deadline) then
    invalid_arg "Task.with_compute: computation does not fit the window"

let with_deadline t deadline =
  check_deadline ~release:t.release ~compute:t.compute deadline;
  { t with deadline }

let with_release t release =
  check_release ~compute:t.compute ~deadline:t.deadline release;
  { t with release }

let with_compute t compute =
  check_compute ~release:t.release ~deadline:t.deadline compute;
  { t with compute }

let equal a b =
  a.id = b.id && String.equal a.name b.name && a.compute = b.compute
  && a.release = b.release && a.deadline = b.deadline
  && String.equal a.proc b.proc
  && List.equal String.equal a.resources b.resources
  && a.demands = b.demands
  && Bool.equal a.preemptive b.preemptive

let pp ppf t =
  Format.fprintf ppf "%s[C=%d rel=%d D=%d on %s%s%s]" t.name t.compute
    t.release t.deadline t.proc
    (match t.demands with
    | [] -> ""
    | ds ->
        " +"
        ^ String.concat "+"
            (List.map
               (fun (r, k) -> if k = 1 then r else Printf.sprintf "%dx%s" k r)
               ds))
    (if t.preemptive then " preemptive" else "")
