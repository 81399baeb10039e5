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

let parse_spec text =
  let tasks, edges, shared, nodes = scan text in
  let line_of_conflict nodes =
    match nodes with (l, _) :: _ -> l | [] -> 0
  in
  let system = system_of line_of_conflict shared nodes in
  {
    Rtfmt.Appfile.spec_tasks =
      List.map
        (fun pt ->
          {
            Rtlb.Validate.ts_name = pt.pt_name;
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
          {
            Rtlb.Validate.es_src = src;
            es_dst = dst;
            es_message = m;
            es_line = Some line;
          })
        edges;
    spec_system = system;
    spec_source = text;
  }

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
