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

let make ?name ~id ?(release = 0) ~compute ~deadline ~proc ?(resources = [])
    ?(preemptive = false) () =
  if id < 0 then invalid_arg "Task.make: negative id";
  if compute < 0 then invalid_arg "Task.make: negative computation time";
  if release < 0 then invalid_arg "Task.make: negative release time";
  if not (window_holds ~release ~compute ~deadline) then
    invalid_arg
      (Printf.sprintf "Task.make: task %d cannot meet deadline (%d + %d > %d)"
         id release compute deadline);
  if proc = "" then invalid_arg "Task.make: empty processor type";
  let name =
    match name with Some n -> n | None -> Printf.sprintf "T%d" (id + 1)
  in
  let resources, demands =
    match resources with
    | [] -> ([], [])
    | [ r ] -> (resources, [ (r, 1) ])
    | _ ->
        let demands =
          List.fold_left
            (fun acc r ->
              match acc with
              | (r', k) :: rest when String.equal r r' -> (r', k + 1) :: rest
              | _ -> (r, 1) :: acc)
            []
            (List.sort String.compare resources)
          |> List.rev
        in
        (List.map fst demands, demands)
  in
  if List.mem proc resources then
    invalid_arg "Task.make: processor type listed among resources";
  { id; name; compute; release; deadline; proc; resources; demands; preemptive }

let make ~id ?name ~compute ?release ~deadline ~proc ?resources ?preemptive ()
    =
  make ?name ~id ?release ~compute ~deadline ~proc ?resources ?preemptive ()

let needs t = t.proc :: t.resources

let units t r =
  if String.equal r t.proc then 1
  else match List.assoc_opt r t.demands with Some k -> k | None -> 0
let uses t r = String.equal r t.proc || List.exists (String.equal r) t.resources
let laxity t = t.deadline - t.release - t.compute

let with_preemptive t preemptive = { t with preemptive }

let with_deadline t deadline =
  if not (window_holds ~release:t.release ~compute:t.compute ~deadline) then
    invalid_arg "Task.with_deadline: deadline too tight";
  { t with deadline }

let with_release t release =
  if release < 0 then invalid_arg "Task.with_release: negative release time";
  if not (window_holds ~release ~compute:t.compute ~deadline:t.deadline) then
    invalid_arg "Task.with_release: release too late for the deadline";
  { t with release }

let with_compute t compute =
  if compute < 0 then invalid_arg "Task.with_compute: negative computation time";
  if not (window_holds ~release:t.release ~compute ~deadline:t.deadline) then
    invalid_arg "Task.with_compute: computation does not fit the window";
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
