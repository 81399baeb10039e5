type severity = Error | Warning

type diag = {
  d_code : string;
  d_severity : severity;
  d_subject : string;
  d_message : string;
  d_line : int option;
}

type task_spec = {
  ts_name : string;
  ts_compute : int;
  ts_release : int;
  ts_deadline : int;
  ts_proc : string;
  ts_demands : (string * int) list;
  ts_preemptive : bool;
  ts_period : int option;
  ts_line : int option;
}

type edge_spec = {
  es_src : string;
  es_dst : string;
  es_message : int;
  es_line : int option;
}

let errors diags = List.filter (fun d -> d.d_severity = Error) diags
let has_errors diags = List.exists (fun d -> d.d_severity = Error) diags

let to_string ?file d =
  let body = Printf.sprintf "%s %s: %s" d.d_code d.d_subject d.d_message in
  match (file, d.d_line) with
  | Some f, Some l -> Printf.sprintf "%s:%d: %s" f l body
  | Some f, None -> Printf.sprintf "%s: %s" f body
  | None, Some l -> Printf.sprintf "line %d: %s" l body
  | None, None -> body

let pp_diag ppf d = Format.pp_print_string ppf (to_string d)

(* Diagnostics are accumulated in pass order, then stably sorted by
   source line so the output reads like compiler errors; diagnostics
   without a line sink to the end. *)
let by_line diags =
  List.stable_sort
    (fun a b ->
      let key d = match d.d_line with Some l -> l | None -> max_int in
      compare (key a) (key b))
    diags

let spec_of_app app =
  let c = App.columns app in
  let tasks =
    List.init (App.n_tasks app) (fun i ->
        {
          ts_name = c.App.names.(i);
          ts_compute = c.App.compute.(i);
          ts_release = c.App.release.(i);
          ts_deadline = c.App.deadline.(i);
          ts_proc = c.App.proc.(i);
          ts_demands = c.App.demands.(i);
          ts_preemptive = c.App.preemptive.(i);
          ts_period = None;
          ts_line = None;
        })
  in
  let name = Array.get c.App.names in
  let edges =
    Dag.fold_edges (App.graph app) ~init:[] ~f:(fun acc ~src ~dst m ->
        { es_src = name src; es_dst = name dst; es_message = m; es_line = None }
        :: acc)
    |> List.rev
  in
  (tasks, edges)

(* ---------------- spec-level checks ---------------- *)

let edge_subject e = Printf.sprintf "edge %s->%s" e.es_src e.es_dst

let check_task add (ts : task_spec) =
  let add ~code ~severity fmt =
    Printf.ksprintf
      (fun m -> add ~code ~severity ~subject:("task " ^ ts.ts_name) ~line:ts.ts_line m)
      fmt
  in
  if ts.ts_name = "" then add ~code:"E104" ~severity:Error "empty task name";
  if ts.ts_proc = "" then
    add ~code:"E104" ~severity:Error "empty processor type";
  if ts.ts_compute < 0 then
    add ~code:"E104" ~severity:Error "negative compute time %d" ts.ts_compute;
  if ts.ts_compute = 0 then
    add ~code:"W201" ~severity:Warning
      "zero-compute task (milestone): occupies no resource time";
  List.iter
    (fun (r, k) ->
      if k < 1 then
        add ~code:"E104" ~severity:Error "%d units of resource '%s'" k r)
    ts.ts_demands;
  match ts.ts_period with
  | None ->
      if ts.ts_release < 0 then
        add ~code:"E104" ~severity:Error "negative release time %d" ts.ts_release;
      if ts.ts_deadline < 0 then
        add ~code:"E104" ~severity:Error "negative deadline %d" ts.ts_deadline;
      if
        ts.ts_compute >= 0 && ts.ts_release >= 0 && ts.ts_deadline >= 0
        && not
             (Task.window_holds ~release:ts.ts_release ~compute:ts.ts_compute
                ~deadline:ts.ts_deadline)
      then
        add ~code:"E102" ~severity:Error
          "window [%d, %d] cannot hold compute %d" ts.ts_release ts.ts_deadline
          ts.ts_compute
  | Some p ->
      if p <= 0 then add ~code:"E104" ~severity:Error "non-positive period %d" p;
      if ts.ts_deadline < 0 then
        add ~code:"E104" ~severity:Error "negative deadline %d" ts.ts_deadline;
      if p > 0 && (ts.ts_release < 0 || ts.ts_release >= p) then
        add ~code:"E104" ~severity:Error "offset %d outside [0, period %d)"
          ts.ts_release p;
      if ts.ts_compute >= 0 && ts.ts_deadline >= 0 && ts.ts_compute > ts.ts_deadline
      then
        add ~code:"E102" ~severity:Error
          "relative deadline %d cannot hold compute %d" ts.ts_deadline
          ts.ts_compute

(* Kahn's algorithm over the declared-name graph; whatever survives is
   (part of) a cycle, from which one concrete cycle is walked out for the
   message. *)
let check_cycles add tasks edges =
  let index = Hashtbl.create 16 in
  List.iteri
    (fun i ts ->
      if not (Hashtbl.mem index ts.ts_name) then Hashtbl.add index ts.ts_name i)
    tasks;
  let n = List.length tasks in
  let names = Array.make (max n 1) "" in
  List.iteri (fun i ts -> if i < n then names.(i) <- ts.ts_name) tasks;
  let succs = Array.make (max n 1) [] in
  let indeg = Array.make (max n 1) 0 in
  let seen = Hashtbl.create 16 in
  let usable =
    List.filter
      (fun e ->
        match (Hashtbl.find_opt index e.es_src, Hashtbl.find_opt index e.es_dst) with
        | Some s, Some d when s <> d ->
            if Hashtbl.mem seen (s, d) then false
            else begin
              Hashtbl.add seen (s, d) ();
              succs.(s) <- d :: succs.(s);
              indeg.(d) <- indeg.(d) + 1;
              true
            end
        | _ -> false)
      edges
  in
  let queue = Queue.create () in
  for i = 0 to n - 1 do
    if indeg.(i) = 0 then Queue.add i queue
  done;
  let removed = ref 0 in
  while not (Queue.is_empty queue) do
    let v = Queue.pop queue in
    incr removed;
    List.iter
      (fun d ->
        indeg.(d) <- indeg.(d) - 1;
        if indeg.(d) = 0 then Queue.add d queue)
      succs.(v)
  done;
  if !removed < n then begin
    (* walk one cycle inside the residual graph *)
    let residual i = indeg.(i) > 0 in
    let start = ref 0 in
    for i = n - 1 downto 0 do
      if residual i then start := i
    done;
    let rec walk path v =
      if List.mem v path then
        (* drop the lead-in, keep the loop *)
        let rec cut = function
          | x :: _ as l when x = v -> l
          | _ :: rest -> cut rest
          | [] -> []
        in
        cut (List.rev (v :: path))
      else
        match List.find_opt residual succs.(v) with
        | Some next -> walk (v :: path) next
        | None -> List.rev (v :: path)
    in
    (* [walk] closes the loop by repeating the entry vertex; drop that
       tail so the pairing and rendering below close it exactly once. *)
    let cycle =
      match walk [] !start with
      | first :: _ :: _ as l when List.nth l (List.length l - 1) = first ->
          List.filteri (fun i _ -> i < List.length l - 1) l
      | l -> l
    in
    let cycle_names = List.map (fun i -> names.(i)) cycle in
    let line =
      (* earliest source line of an edge along the cycle *)
      let pairs =
        match cycle with
        | [] -> []
        | first :: _ ->
            let rec pair = function
              | a :: (b :: _ as rest) -> (names.(a), names.(b)) :: pair rest
              | [ last ] -> [ (names.(last), names.(first)) ]
              | [] -> []
            in
            pair cycle
      in
      List.filter_map
        (fun e ->
          if List.mem (e.es_src, e.es_dst) pairs then e.es_line else None)
        usable
      |> function [] -> None | lines -> Some (List.fold_left min max_int lines)
    in
    add ~code:"E101" ~severity:Error ~subject:"application" ~line
      (Printf.sprintf "precedence cycle: %s -> %s"
         (String.concat " -> " cycle_names)
         (match cycle_names with first :: _ -> first | [] -> "?"))
  end

let check_system add ~system tasks =
  let used = Hashtbl.create 16 in
  List.iter
    (fun ts ->
      Hashtbl.replace used ts.ts_proc ();
      List.iter (fun (r, _) -> Hashtbl.replace used r ()) ts.ts_demands)
    tasks;
  (match system with
  | System.Shared costs ->
      let declared r = List.mem_assoc r costs in
      List.iter
        (fun ts ->
          let add ~code fmt =
            Printf.ksprintf
              (fun m ->
                add ~code ~severity:Error ~subject:("task " ^ ts.ts_name)
                  ~line:ts.ts_line m)
              fmt
          in
          if ts.ts_proc <> "" && not (declared ts.ts_proc) then
            add ~code:"E103" "processor type '%s' has no cost in the shared model"
              ts.ts_proc;
          List.iter
            (fun (r, _) ->
              if not (declared r) then
                add ~code:"E103" "resource '%s' has no cost in the shared model" r)
            ts.ts_demands)
        tasks;
      List.iter
        (fun (r, _) ->
          if not (Hashtbl.mem used r) then
            add ~code:"W202" ~severity:Warning ~subject:("resource " ^ r)
              ~line:None "declared in the system model but used by no task")
        costs
  | System.Dedicated nts ->
      List.iter
        (fun ts ->
          let with_proc =
            List.filter
              (fun (nt : System.node_type) ->
                String.equal nt.System.nt_proc ts.ts_proc)
              nts
          in
          let hosts nt =
            List.for_all
              (fun (r, k) -> System.node_provides nt r >= k)
              ts.ts_demands
          in
          if ts.ts_proc <> "" && with_proc = [] then
            add ~code:"E103" ~severity:Error ~subject:("task " ^ ts.ts_name)
              ~line:ts.ts_line
              (Printf.sprintf "no node type provides processor '%s'" ts.ts_proc)
          else if
            ts.ts_proc <> ""
            && List.for_all (fun (_, k) -> k >= 1) ts.ts_demands
            && not (List.exists hosts with_proc)
          then
            add ~code:"E103" ~severity:Error ~subject:("task " ^ ts.ts_name)
              ~line:ts.ts_line
              (Printf.sprintf
                 "no node type with processor '%s' provides its resources (%s)"
                 ts.ts_proc
                 (String.concat ", "
                    (List.map
                       (fun (r, k) ->
                         if k = 1 then r else Printf.sprintf "%dx%s" k r)
                       ts.ts_demands))))
        tasks;
      let provided = Hashtbl.create 16 in
      List.iter
        (fun (nt : System.node_type) ->
          Hashtbl.replace provided nt.System.nt_proc ();
          List.iter (fun (r, _) -> Hashtbl.replace provided r ()) nt.System.nt_provides)
        nts;
      Hashtbl.fold (fun r () acc -> r :: acc) provided []
      |> List.sort String.compare
      |> List.iter (fun r ->
             if not (Hashtbl.mem used r) then
               add ~code:"W202" ~severity:Warning ~subject:("resource " ^ r)
                 ~line:None "provided by the node catalogue but used by no task"))

let check_spec ~system ~tasks ~edges =
  let acc = ref [] in
  let add ~code ~severity ~subject ?(line = None) message =
    acc :=
      { d_code = code; d_severity = severity; d_subject = subject;
        d_message = message; d_line = line }
      :: !acc
  in
  (* per-task quantity and window checks *)
  List.iter
    (fun ts ->
      check_task
        (fun ~code ~severity ~subject ~line m ->
          add ~code ~severity ~subject ~line m)
        ts)
    tasks;
  (* duplicate task names *)
  let first_decl = Hashtbl.create 16 in
  List.iter
    (fun ts ->
      match Hashtbl.find_opt first_decl ts.ts_name with
      | None -> Hashtbl.add first_decl ts.ts_name ts.ts_line
      | Some _ ->
          add ~code:"E105" ~severity:Error ~subject:("task " ^ ts.ts_name)
            ~line:ts.ts_line "duplicate task name")
    tasks;
  (* mixed periodic and one-shot *)
  let periodic, oneshot =
    List.partition (fun ts -> ts.ts_period <> None) tasks
  in
  if periodic <> [] && oneshot <> [] then
    add ~code:"E106" ~severity:Error ~subject:"application" ~line:None
      (Printf.sprintf
         "mixed periodic and one-shot tasks (%d periodic, %d one-shot)"
         (List.length periodic) (List.length oneshot));
  (* per-edge checks *)
  let seen_edges = Hashtbl.create 16 in
  List.iter
    (fun e ->
      let add ~code ~severity fmt =
        Printf.ksprintf
          (fun m ->
            add ~code ~severity ~subject:(edge_subject e) ~line:e.es_line m)
          fmt
      in
      if e.es_message < 0 then
        add ~code:"E104" ~severity:Error "negative message size %d" e.es_message;
      List.iter
        (fun endpoint ->
          if not (Hashtbl.mem first_decl endpoint) then
            add ~code:"E103" ~severity:Error "references undeclared task '%s'"
              endpoint)
        (List.sort_uniq String.compare [ e.es_src; e.es_dst ]);
      if e.es_src = e.es_dst && Hashtbl.mem first_decl e.es_src then
        add ~code:"E101" ~severity:Error "self-loop";
      if Hashtbl.mem seen_edges (e.es_src, e.es_dst) then
        add ~code:"E105" ~severity:Error "duplicate edge"
      else Hashtbl.add seen_edges (e.es_src, e.es_dst) ())
    edges;
  (* cycles through the whole graph *)
  check_cycles
    (fun ~code ~severity ~subject ~line m -> add ~code ~severity ~subject ~line m)
    tasks edges;
  (* system-model references *)
  (match system with
  | None -> ()
  | Some system ->
      check_system
        (fun ~code ~severity ~subject ~line m ->
          add ~code ~severity ~subject ~line m)
        ~system tasks);
  by_line (List.rev !acc)

(* ---------------- post-construction window checks ---------------- *)

(* The E102/W203 window diagnostics of an instance the analysis can
   take, from the windows of the packed sweep. *)
let window_diagnostics ~line_of ~system app =
  let { Windows.est; lct } = Analysis.windows system app in
  let cols = App.columns app in
  let acc = ref [] in
  Array.iteri
    (fun i name ->
      let e = est.(i) and l = lct.(i) and c = cols.App.compute.(i) in
      if e + c > l then
        acc :=
          {
            d_code = "E102";
            d_severity = Error;
            d_subject = "task " ^ name;
            d_message =
              Printf.sprintf
                "EST/LCT window [%d, %d] cannot hold compute %d \
                 (infeasible on every system of this model)"
                e l c;
            d_line = line_of name;
          }
          :: !acc
      else if c > 0 && e + c = l then
        acc :=
          {
            d_code = "W203";
            d_severity = Warning;
            d_subject = "task " ^ name;
            d_message =
              Printf.sprintf
                "zero slack: EST/LCT window [%d, %d] exactly holds \
                 compute %d"
                e l c;
            d_line = line_of name;
          }
          :: !acc)
    cols.App.names;
  by_line (List.rev !acc)

let application_error code e =
  {
    d_code = code;
    d_severity = Error;
    d_subject = "application";
    d_message = e;
    d_line = None;
  }

let check_windows ?(line_of = fun _ -> None) ~system app =
  match System.validate_for system app with
  | Error e -> [ application_error "E103" e ]
  | Ok () -> (
      match App.check_range app with
      | Error e -> [ application_error "E104" e ]
      | Ok () -> window_diagnostics ~line_of ~system app)

let check ?system app =
  let system =
    match system with
    | Some s -> s
    | None -> System.shared_uniform ~resources:(App.resource_set app)
  in
  let tasks, edges = spec_of_app app in
  let spec_diags = check_spec ~system:(Some system) ~tasks ~edges in
  if has_errors spec_diags then spec_diags
  else spec_diags @ check_windows ~system app
