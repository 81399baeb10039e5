(* The list-based reader of application files: the whole text is split
   into lines and words with String.split_on_char, duplicate edges are
   found through a hash table keyed on (src, dst) pairs.  Kept verbatim
   as the reference the index-based Rtfmt.Appfile reader is tested
   against; it separates words on spaces only, so it agrees with the
   library reader on every input without tabs or carriage returns.

   [to_string] at the end is the writer that formatted each line with
   Printf.sprintf, kept verbatim as the reference for the Buffer-based
   Rtfmt.Appfile.to_string. *)

let fail line fmt =
  Printf.ksprintf (fun m -> raise (Rtfmt.Appfile.Parse_error (line, m))) fmt

type pending_task = {
  pt_name : string;
  pt_compute : int;
  pt_release : int;
  pt_deadline : int;
  pt_proc : string;
  pt_demands : (string * int) list;  (* grouped units; counts may be bad *)
  pt_preemptive : bool;
  pt_period : int option;  (* period= turns the file periodic *)
  pt_line : int;
}

let split_words s =
  String.split_on_char ' ' s |> List.filter (fun w -> w <> "")

let strip_comment s =
  match String.index_opt s '#' with
  | Some i -> String.sub s 0 i
  | None -> s

let key_value line word =
  match String.index_opt word '=' with
  | Some i ->
      Some
        ( String.sub word 0 i,
          String.sub word (i + 1) (String.length word - i - 1) )
  | None ->
      if word = "preemptive" then None
      else fail line "expected key=value, got %S" word

let int_of line what s =
  match int_of_string_opt s with
  | Some v -> v
  | None -> fail line "%s: not an integer: %S" what s

(* "2xr1" -> ("r1", 2); "r1" -> ("r1", 1).  Counts are not range-checked
   here: the spec path wants to see a bad count as a diagnostic, the
   strict path rejects it in [expand_demands]. *)
let parse_counted r =
  match String.index_opt r 'x' with
  | Some i when i > 0 && int_of_string_opt (String.sub r 0 i) <> None ->
      (String.sub r (i + 1) (String.length r - i - 1),
       int_of_string (String.sub r 0 i))
  | _ -> (r, 1)

(* Group repeated names, first-occurrence order: "r1,r1,2xr2" ->
   [(r1, 2); (r2, 2)]. *)
let group_demands pairs =
  List.fold_left
    (fun acc (r, k) ->
      match List.assoc_opt r acc with
      | Some k0 -> List.map (fun (r', k') -> if r' = r then (r', k0 + k) else (r', k')) acc
      | None -> acc @ [ (r, k) ])
    [] pairs

let parse_task line words =
  match words with
  | name :: rest ->
      let preemptive = List.mem "preemptive" rest in
      let kvs = List.filter_map (key_value line) rest in
      let get k = List.assoc_opt k kvs in
      let compute =
        match get "compute" with
        | Some v -> int_of line "compute" v
        | None -> fail line "task %s: missing compute=" name
      in
      let period_opt = Option.map (int_of line "period") (get "period") in
      let deadline =
        match (get "deadline", period_opt) with
        | Some v, _ -> int_of line "deadline" v
        | None, Some p -> p
        | None, None -> fail line "task %s: missing deadline=" name
      in
      let proc =
        match get "proc" with
        | Some v -> v
        | None -> fail line "task %s: missing proc=" name
      in
      let release =
        match get "release" with Some v -> int_of line "release" v | None -> 0
      in
      let demands =
        match get "res" with
        | Some v ->
            String.split_on_char ',' v
            |> List.filter (( <> ) "")
            |> List.map parse_counted |> group_demands
        | None -> []
      in
      {
        pt_name = name;
        pt_compute = compute;
        pt_release = release;
        pt_deadline = deadline;
        pt_proc = proc;
        pt_demands = demands;
        pt_preemptive = preemptive;
        pt_period = period_opt;
        pt_line = line;
      }
  | [] -> fail line "task: missing name"

let parse_shared line words =
  let costs =
    List.map
      (fun w ->
        match key_value line w with
        | Some (r, c) -> (r, int_of line "cost" c)
        | None -> fail line "shared: expected RESOURCE=COST")
      words
  in
  try Rtlb.System.shared ~costs
  with Invalid_argument m -> fail line "shared: %s" m

let parse_node line words =
  match words with
  | name :: rest ->
      let kvs = List.filter_map (key_value line) rest in
      let proc =
        match List.assoc_opt "proc" kvs with
        | Some p -> p
        | None -> fail line "node %s: missing proc=" name
      in
      let cost =
        match List.assoc_opt "cost" kvs with
        | Some c -> int_of line "cost" c
        | None -> 1
      in
      let provides =
        match List.assoc_opt "res" kvs with
        | Some v ->
            String.split_on_char ',' v
            |> List.filter (( <> ) "")
            |> List.map parse_counted
        | None -> []
      in
      (try Rtlb.System.node_type ~name ~proc ~provides ~cost ()
       with Invalid_argument m -> fail line "node %s: %s" name m)
  | [] -> fail line "node: missing name"

(* Tokenize the whole file into declarations.  Only syntax-level problems
   raise here; semantic ones (duplicates, cycles, bad quantities, dangling
   edges) survive into the returned lists so both the strict constructor
   path and the diagnostic path can decide how to report them. *)
let scan text =
  let tasks = ref [] and edges = ref [] in
  let shared = ref None and nodes = ref [] in
  let lines = String.split_on_char '\n' text in
  List.iteri
    (fun idx raw ->
      let line = idx + 1 in
      let words = split_words (strip_comment raw) in
      match words with
      | [] -> ()
      | "task" :: rest -> tasks := parse_task line rest :: !tasks
      | [ "edge"; src; dst; m ] ->
          edges := (line, src, dst, int_of line "message" m) :: !edges
      | "edge" :: _ -> fail line "edge: expected 'edge SRC DST SIZE'"
      | "shared" :: rest ->
          if !shared <> None then fail line "duplicate shared line";
          shared := Some (parse_shared line rest)
      | "node" :: rest -> nodes := (line, parse_node line rest) :: !nodes
      | w :: _ -> fail line "unknown directive %S" w)
    lines;
  (List.rev !tasks, List.rev !edges, !shared, List.rev !nodes)

let system_of line_of_conflict shared nodes =
  match (shared, nodes) with
  | Some _, (_ : (int * Rtlb.System.node_type) list) when nodes <> [] ->
      fail (line_of_conflict nodes) "both shared and node lines present"
  | Some s, _ -> Some s
  | None, [] -> None
  | None, nodes -> (
      try Some (Rtlb.System.dedicated (List.map snd nodes))
      with Invalid_argument m -> fail 0 "%s" m)

(* Repeat each resource name [units] times, the form Task.make expects. *)
let expand_demands pt =
  List.concat_map
    (fun (r, k) ->
      if k < 1 then fail pt.pt_line "task %s: zero resource units" pt.pt_name;
      List.init k (fun _ -> r))
    pt.pt_demands

let parse text =
  let tasks, edge_decls, shared, nodes = scan text in
  let index = Hashtbl.create 16 in
  List.iteri
    (fun i pt ->
      if Hashtbl.mem index pt.pt_name then
        fail pt.pt_line "duplicate task name %s" pt.pt_name;
      Hashtbl.add index pt.pt_name i)
    tasks;
  (* Reject dangling endpoints, self-loops and duplicate edges here, where
     the source line is still known — Dag.create would only raise an
     unlocated Invalid_argument. *)
  let seen_edges = Hashtbl.create 16 in
  let edges =
    List.map
      (fun (line, src, dst, m) ->
        let find n =
          match Hashtbl.find_opt index n with
          | Some i -> i
          | None -> fail line "edge: unknown task %s" n
        in
        let s = find src and d = find dst in
        if s = d then fail line "edge: self loop on task %s" src;
        if Hashtbl.mem seen_edges (s, d) then
          fail line "duplicate edge %s -> %s" src dst;
        Hashtbl.add seen_edges (s, d) ();
        (line, s, d, m))
      edge_decls
  in
  let cycle_error ids =
    (* Map the Dag.Cycle payload back to names and the earliest source
       line of an edge on the cycle. *)
    let name i = (List.nth tasks i).pt_name in
    let names = List.map name ids in
    let pairs =
      match ids with
      | [] -> []
      | first :: _ ->
          let rec consecutive = function
            | a :: (b :: _ as rest) -> (a, b) :: consecutive rest
            | [ last ] -> [ (last, first) ]
            | [] -> []
          in
          consecutive ids
    in
    let line =
      List.fold_left
        (fun acc (l, s, d, _) ->
          if List.mem (s, d) pairs then min acc l else acc)
        max_int edges
    in
    let line = if line = max_int then 0 else line in
    fail line "precedence cycle: %s"
      (String.concat " -> " (names @ [ List.nth names 0 ]))
  in
  let periodic = List.exists (fun pt -> pt.pt_period <> None) tasks in
  let app =
    if periodic then begin
      (match List.find_opt (fun pt -> pt.pt_period = None) tasks with
      | Some pt ->
          fail pt.pt_line
            "task %s: mixing periodic and one-shot tasks is not supported"
            pt.pt_name
      | None -> ());
      let ptasks =
        List.map
          (fun pt ->
            try
              Rtlb.Periodic.ptask ~name:pt.pt_name
                ~period:(Option.get pt.pt_period) ~offset:pt.pt_release
                ~compute:pt.pt_compute ~deadline:pt.pt_deadline
                ~proc:pt.pt_proc ~resources:(expand_demands pt)
                ~preemptive:pt.pt_preemptive ()
            with Invalid_argument m -> fail pt.pt_line "task %s: %s" pt.pt_name m)
          tasks
      in
      let name i = (List.nth tasks i).pt_name in
      let pedges = List.map (fun (_, s, d, m) -> (name s, name d, m)) edges in
      match Rtlb.Periodic.unroll ~tasks:ptasks ~edges:pedges () with
      | app -> app
      | exception Invalid_argument m -> fail 0 "%s" m
      | exception Dag.Cycle _ -> fail 0 "precedence cycle in task graph"
    end
    else begin
      let task_list =
        List.mapi
          (fun i pt ->
            try
              Rtlb.Task.make ~id:i ~name:pt.pt_name ~compute:pt.pt_compute
                ~release:pt.pt_release ~deadline:pt.pt_deadline ~proc:pt.pt_proc
                ~resources:(expand_demands pt) ~preemptive:pt.pt_preemptive ()
            with Invalid_argument m -> fail pt.pt_line "task %s: %s" pt.pt_name m)
          tasks
      in
      let edge_list = List.map (fun (_, s, d, m) -> (s, d, m)) edges in
      match Rtlb.App.make ~tasks:task_list ~edges:edge_list with
      | app -> app
      | exception Invalid_argument m -> fail 0 "%s" m
      | exception Dag.Cycle ids -> cycle_error ids
    end
  in
  let line_of_conflict nodes =
    match nodes with (l, _) :: _ -> l | [] -> 0
  in
  let system = system_of line_of_conflict shared nodes in
  { Rtfmt.Appfile.app; system }

(* ---------------- the spec path ---------------- *)

(* The validator that read a file twice: the declarations as records
   (with source lines, semantic errors kept), checked with string-keyed
   tables and a string graph, then, when those checks found no error,
   the strict parse again and the window phase on what it built.  It is
   the reference Rtfmt.Appfile.check is tested against; its cycle walk
   first drops the tasks that only hang below a cycle, and its window
   phase reports a one-shot task at its own line and a periodic job
   [t@k] at the line of [t]. *)

type task_spec = {
  ts_name : string;
  ts_compute : int;
  ts_release : int;  (* offset when [ts_period] is set *)
  ts_deadline : int;  (* relative to the period when [ts_period] is set *)
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

type spec = {
  spec_tasks : task_spec list;
  spec_edges : edge_spec list;
  spec_system : Rtlb.System.t option;
  spec_source : string;
}

let parse_spec text =
  let tasks, edges, shared, nodes = scan text in
  let line_of_conflict nodes =
    match nodes with (l, _) :: _ -> l | [] -> 0
  in
  let system = system_of line_of_conflict shared nodes in
  {
    spec_tasks =
      List.map
        (fun pt ->
          {
            ts_name = pt.pt_name;
            ts_compute = pt.pt_compute;
            ts_release = pt.pt_release;
            ts_deadline = pt.pt_deadline;
            ts_proc = pt.pt_proc;
            ts_demands = pt.pt_demands;
            ts_preemptive = pt.pt_preemptive;
            ts_period = pt.pt_period;
            ts_line = Some pt.pt_line;
          })
        tasks;
    spec_edges =
      List.map
        (fun (line, src, dst, m) ->
          { es_src = src; es_dst = dst; es_message = m; es_line = Some line })
        edges;
    spec_system = system;
    spec_source = text;
  }

open Rtlb.Validate

let by_line diags =
  List.stable_sort
    (fun a b ->
      let key d = match d.d_line with Some l -> l | None -> max_int in
      compare (key a) (key b))
    diags

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
             (Rtlb.Task.window_holds ~release:ts.ts_release ~compute:ts.ts_compute
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
   (part of) a cycle or hangs below one.  Those that hang below one are
   dropped until none is left, then one concrete cycle is walked out
   for the message. *)
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
    let left = Array.map (fun d -> d > 0) indeg in
    let dropped = ref true in
    while !dropped do
      dropped := false;
      for i = 0 to n - 1 do
        if left.(i) && not (List.exists (fun d -> left.(d)) succs.(i)) then begin
          left.(i) <- false;
          dropped := true
        end
      done
    done;
    (* walk one cycle inside the residual graph *)
    let residual i = left.(i) in
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
  match system with
  | Rtlb.System.Shared costs ->
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
  | Rtlb.System.Dedicated nts ->
      List.iter
        (fun ts ->
          let with_proc =
            List.filter
              (fun (nt : Rtlb.System.node_type) ->
                String.equal nt.Rtlb.System.nt_proc ts.ts_proc)
              nts
          in
          let hosts nt =
            List.for_all
              (fun (r, k) -> Rtlb.System.node_provides nt r >= k)
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
        (fun (nt : Rtlb.System.node_type) ->
          Hashtbl.replace provided nt.Rtlb.System.nt_proc ();
          List.iter
            (fun (r, _) -> Hashtbl.replace provided r ())
            nt.Rtlb.System.nt_provides)
        nts;
      Hashtbl.fold (fun r () acc -> r :: acc) provided []
      |> List.sort String.compare
      |> List.iter (fun r ->
             if not (Hashtbl.mem used r) then
               add ~code:"W202" ~severity:Warning ~subject:("resource " ^ r)
                 ~line:None "provided by the node catalogue but used by no task")

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

let e100 line m =
  {
    d_code = "E100";
    d_severity = Error;
    d_subject = "application";
    d_message = m;
    d_line = (if line > 0 then Some line else None);
  }

let check text =
  match parse_spec text with
  | exception Rtfmt.Appfile.Parse_error (l, m) -> [ e100 l m ]
  | spec -> (
      let diags =
        check_spec ~system:spec.spec_system ~tasks:spec.spec_tasks
          ~edges:spec.spec_edges
      in
      if has_errors diags then diags
      else
        (* The spec phase found nothing fatal, so the strict parse is
           expected to succeed; anything it still rejects surfaces as
           E100 rather than an exception. *)
        match parse spec.spec_source with
        | { Rtfmt.Appfile.app; system } ->
            let system =
              match system with
              | Some s -> s
              | None ->
                  Rtlb.System.shared_uniform
                    ~resources:(Rtlb.App.resource_set app)
            in
            let tasks = Array.of_list spec.spec_tasks in
            let line_of =
              if Array.exists (fun ts -> ts.ts_period <> None) tasks then begin
                let tbl = Hashtbl.create 16 in
                Array.iter
                  (fun ts -> Hashtbl.replace tbl ts.ts_name ts.ts_line)
                  tasks;
                fun i ->
                  (* a job "t@k" is reported at the line of t *)
                  let job = (Rtlb.App.task app i).Rtlb.Task.name in
                  Option.join
                    (Hashtbl.find_opt tbl
                       (String.sub job 0 (String.rindex job '@')))
              end
              else fun i -> tasks.(i).ts_line
            in
            by_line (diags @ check_windows ~line_of ~system app)
        | exception Rtfmt.Appfile.Parse_error (l, m) -> diags @ [ e100 l m ]
        | exception e -> diags @ [ e100 0 (Printexc.to_string e) ])

let to_string ?system app =
  let buf = Buffer.create 512 in
  Array.iter
    (fun (task : Rtlb.Task.t) ->
      Buffer.add_string buf
        (Printf.sprintf "task %s compute=%d release=%d deadline=%d proc=%s"
           task.Rtlb.Task.name task.Rtlb.Task.compute task.Rtlb.Task.release
           task.Rtlb.Task.deadline task.Rtlb.Task.proc);
      (match task.Rtlb.Task.demands with
      | [] -> ()
      | ds ->
          Buffer.add_string buf
            (" res="
            ^ String.concat ","
                (List.map
                   (fun (r, k) ->
                     if k = 1 then r else Printf.sprintf "%dx%s" k r)
                   ds)));
      if task.Rtlb.Task.preemptive then Buffer.add_string buf " preemptive";
      Buffer.add_char buf '\n')
    (Rtlb.App.tasks app);
  let name i = (Rtlb.App.task app i).Rtlb.Task.name in
  Dag.fold_edges (Rtlb.App.graph app) ~init:() ~f:(fun () ~src ~dst m ->
      Buffer.add_string buf
        (Printf.sprintf "edge %s %s %d\n" (name src) (name dst) m));
  (match system with
  | None -> ()
  | Some (Rtlb.System.Shared costs) ->
      Buffer.add_string buf "shared";
      List.iter
        (fun (r, c) -> Buffer.add_string buf (Printf.sprintf " %s=%d" r c))
        costs;
      Buffer.add_char buf '\n'
  | Some (Rtlb.System.Dedicated nts) ->
      List.iter
        (fun (nt : Rtlb.System.node_type) ->
          Buffer.add_string buf
            (Printf.sprintf "node %s proc=%s" nt.Rtlb.System.nt_name
               nt.Rtlb.System.nt_proc);
          (match nt.Rtlb.System.nt_provides with
          | [] -> ()
          | provides ->
              Buffer.add_string buf " res=";
              Buffer.add_string buf
                (String.concat ","
                   (List.map
                      (fun (r, c) ->
                        if c = 1 then r else Printf.sprintf "%dx%s" c r)
                      provides)));
          Buffer.add_string buf
            (Printf.sprintf " cost=%d\n" nt.Rtlb.System.nt_cost))
        nts);
  Buffer.contents buf
