type t = { app : Rtlb.App.t; system : Rtlb.System.t option }

exception Parse_error of int * string

let fail line fmt = Printf.ksprintf (fun m -> raise (Parse_error (line, m))) fmt

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

(* ---------------- tokenizer ---------------- *)

(* One pass over the text by index.  A line ends at '\n' and its content
   at the first '#'; its words are the maximal runs of bytes other than
   space, tab and carriage return.  A word stays a (start, stop) span of
   the text, and only the pieces a declaration keeps become strings. *)

type words = {
  text : string;
  mutable starts : int array;
  mutable stops : int array;
  mutable count : int;
}

let is_blank c = c = ' ' || c = '\t' || c = '\r'
let ends_content c = c = '\n' || c = '#'

(* Read the words of the line starting at [start] into [w]; returns the
   index of the line's '\n', or the length of the text. *)
let split_line w start =
  let text = w.text and len = String.length w.text in
  w.count <- 0;
  let i = ref start in
  while !i < len && not (ends_content (String.unsafe_get text !i)) do
    if is_blank (String.unsafe_get text !i) then incr i
    else begin
      let first = !i in
      while
        !i < len
        &&
        let c = String.unsafe_get text !i in
        not (is_blank c || ends_content c)
      do
        incr i
      done;
      if w.count = Array.length w.starts then begin
        let grow a = Array.append a (Array.make (Array.length a) 0) in
        w.starts <- grow w.starts;
        w.stops <- grow w.stops
      end;
      w.starts.(w.count) <- first;
      w.stops.(w.count) <- !i;
      w.count <- w.count + 1
    end
  done;
  (* skip the comment, if any *)
  while !i < len && String.unsafe_get text !i <> '\n' do
    incr i
  done;
  !i

let word w k = String.sub w.text w.starts.(k) (w.stops.(k) - w.starts.(k))

(* The hot helpers below recurse at top level: a local recursive
   function that captures variables is a closure allocated per call. *)

let rec same_from text start lit j =
  j = String.length lit
  || String.unsafe_get text (start + j) = String.unsafe_get lit j
     && same_from text start lit (j + 1)

(* Whether text.[start, stop) spells [lit]. *)
let spells text start stop lit =
  stop - start = String.length lit && same_from text start lit 0

(* The first index of [c] in text.[start, stop), or [stop]. *)
let index_in text start stop c =
  let i = ref start in
  while !i < stop && String.unsafe_get text !i <> c do
    incr i
  done;
  !i

(* The integer text.[start, stop) spells. *)
let int_span line what text start stop =
  let s = String.sub text start (stop - start) in
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

let counted_list v =
  String.split_on_char ',' v |> List.filter (( <> ) "") |> List.map parse_counted

(* Group repeated names, first-occurrence order: "r1,r1,2xr2" ->
   [(r1, 2); (r2, 2)]. *)
let group_demands pairs =
  List.fold_left
    (fun acc (r, k) ->
      match List.assoc_opt r acc with
      | Some k0 -> List.map (fun (r', k') -> if r' = r then (r', k0 + k) else (r', k')) acc
      | None -> acc @ [ (r, k) ])
    [] pairs

(* The index of the key text.[start, stop) spells, from [j] on, or the
   number of keys. *)
let rec key_index keys text start stop j =
  if j = Array.length keys || spells text start stop keys.(j) then j
  else key_index keys text start stop (j + 1)

type fields = {
  f_start : int array;
  f_stop : int array;
  mutable f_preemptive : bool;
}

(* The key=value words of a declaration, from word [first] on, read
   against the [keys] it knows: the value span of each key's first
   occurrence (start -1 when absent) and whether the bare word
   "preemptive" appears.  Other keys are ignored; any other bare word is
   an error. *)
let fields line w ~first keys =
  let nk = Array.length keys in
  let f =
    { f_start = Array.make nk (-1); f_stop = Array.make nk 0;
      f_preemptive = false }
  in
  for k = first to w.count - 1 do
    let start = w.starts.(k) and stop = w.stops.(k) in
    let eq = index_in w.text start stop '=' in
    if eq < stop then begin
      let j = key_index keys w.text start eq 0 in
      if j < nk && f.f_start.(j) < 0 then begin
        f.f_start.(j) <- eq + 1;
        f.f_stop.(j) <- stop
      end
    end
    else if spells w.text start stop "preemptive" then f.f_preemptive <- true
    else fail line "expected key=value, got %S" (word w k)
  done;
  f

let has f j = f.f_start.(j) >= 0
let field_string w f j = String.sub w.text f.f_start.(j) (f.f_stop.(j) - f.f_start.(j))
let field_int line what w f j = int_span line what w.text f.f_start.(j) f.f_stop.(j)

let task_keys = [| "compute"; "period"; "deadline"; "proc"; "release"; "res" |]

let parse_task line w =
  if w.count < 2 then fail line "task: missing name";
  let name = word w 1 in
  let f = fields line w ~first:2 task_keys in
  let compute =
    if has f 0 then field_int line "compute" w f 0
    else fail line "task %s: missing compute=" name
  in
  let period_opt =
    if has f 1 then Some (field_int line "period" w f 1) else None
  in
  let deadline =
    if has f 2 then field_int line "deadline" w f 2
    else
      match period_opt with
      | Some p -> p
      | None -> fail line "task %s: missing deadline=" name
  in
  let proc =
    if has f 3 then field_string w f 3
    else fail line "task %s: missing proc=" name
  in
  let release = if has f 4 then field_int line "release" w f 4 else 0 in
  let demands =
    if has f 5 then group_demands (counted_list (field_string w f 5)) else []
  in
  {
    pt_name = name;
    pt_compute = compute;
    pt_release = release;
    pt_deadline = deadline;
    pt_proc = proc;
    pt_demands = demands;
    pt_preemptive = f.f_preemptive;
    pt_period = period_opt;
    pt_line = line;
  }

let parse_shared line w =
  let costs = ref [] in
  for k = 1 to w.count - 1 do
    let start = w.starts.(k) and stop = w.stops.(k) in
    let eq = index_in w.text start stop '=' in
    if eq < stop then
      costs :=
        ( String.sub w.text start (eq - start),
          int_span line "cost" w.text (eq + 1) stop )
        :: !costs
    else if spells w.text start stop "preemptive" then
      fail line "shared: expected RESOURCE=COST"
    else fail line "expected key=value, got %S" (word w k)
  done;
  try Rtlb.System.shared ~costs:(List.rev !costs)
  with Invalid_argument m -> fail line "shared: %s" m

let node_keys = [| "proc"; "cost"; "res" |]

let parse_node line w =
  if w.count < 2 then fail line "node: missing name";
  let name = word w 1 in
  let f = fields line w ~first:2 node_keys in
  let proc =
    if has f 0 then field_string w f 0
    else fail line "node %s: missing proc=" name
  in
  let cost = if has f 1 then field_int line "cost" w f 1 else 1 in
  let provides = if has f 2 then counted_list (field_string w f 2) else [] in
  try Rtlb.System.node_type ~name ~proc ~provides ~cost ()
  with Invalid_argument m -> fail line "node %s: %s" name m

(* Tokenize the whole file into declarations.  Only syntax-level problems
   raise here; semantic ones (duplicates, cycles, bad quantities, dangling
   edges) survive into the returned lists so both the strict constructor
   path and the diagnostic path can decide how to report them. *)
let scan text =
  let tasks = ref [] and edges = ref [] in
  let shared = ref None and nodes = ref [] in
  let w = { text; starts = Array.make 16 0; stops = Array.make 16 0; count = 0 } in
  let len = String.length text in
  let directive line =
    match word w 0 with
    | "task" -> tasks := parse_task line w :: !tasks
    | "edge" ->
        if w.count <> 4 then fail line "edge: expected 'edge SRC DST SIZE'";
        let m = int_span line "message" text w.starts.(3) w.stops.(3) in
        edges := (line, word w 1, word w 2, m) :: !edges
    | "shared" ->
        if Option.is_some !shared then fail line "duplicate shared line";
        shared := Some (parse_shared line w)
    | "node" -> nodes := (line, parse_node line w) :: !nodes
    | d -> fail line "unknown directive %S" d
  in
  let rec lines start line =
    let stop = split_line w start in
    if w.count > 0 then directive line;
    if stop < len then lines (stop + 1) (line + 1)
  in
  lines 0 1;
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

module Names = Hashtbl.Make (String)
module Ints = Hashtbl.Make (Int)

let parse text =
  let tasks, edge_decls, shared, nodes = scan text in
  let decls = Array.of_list tasks in
  let n = Array.length decls in
  let name i = decls.(i).pt_name in
  let index = Names.create n in
  Array.iteri
    (fun i pt ->
      if Names.mem index pt.pt_name then
        fail pt.pt_line "duplicate task name %s" pt.pt_name;
      Names.add index pt.pt_name i)
    decls;
  (* Reject dangling endpoints, self-loops and duplicate edges here, where
     the source line is still known — Dag.create would only raise an
     unlocated Invalid_argument. *)
  let seen_edges = Ints.create (List.length edge_decls) in
  let edges =
    List.map
      (fun (line, src, dst, m) ->
        let find name =
          match Names.find_opt index name with
          | Some i -> i
          | None -> fail line "edge: unknown task %s" name
        in
        let s = find src in
        let d = find dst in
        if s = d then fail line "edge: self loop on task %s" src;
        let key = (s * n) + d in
        if Ints.mem seen_edges key then
          fail line "duplicate edge %s -> %s" src dst;
        Ints.add seen_edges key ();
        (s, d, m))
      edge_decls
  in
  let cycle_error ids =
    (* Map the Dag.Cycle payload back to names and the earliest source
       line of an edge on the cycle. *)
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
        (fun acc (l, src, dst, _) ->
          if List.mem (Names.find index src, Names.find index dst) pairs then
            min acc l
          else acc)
        max_int edge_decls
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
      let pedges = List.map (fun (_, src, dst, m) -> (src, dst, m)) edge_decls in
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
      match Rtlb.App.make ~tasks:task_list ~edges with
      | app -> app
      | exception Invalid_argument m -> fail 0 "%s" m
      | exception Dag.Cycle ids -> cycle_error ids
    end
  in
  let line_of_conflict nodes =
    match nodes with (l, _) :: _ -> l | [] -> 0
  in
  let system = system_of line_of_conflict shared nodes in
  { app; system }

let parse_file path =
  let ic = open_in path in
  let len = in_channel_length ic in
  let text = really_input_string ic len in
  close_in ic;
  parse text

(* ---------------- diagnostic (spec) path ---------------- *)

type spec = {
  spec_tasks : Rtlb.Validate.task_spec list;
  spec_edges : Rtlb.Validate.edge_spec list;
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

let parse_spec_file path =
  let ic = open_in path in
  let len = in_channel_length ic in
  let text = really_input_string ic len in
  close_in ic;
  parse_spec text

let e100 line m =
  {
    Rtlb.Validate.d_code = "E100";
    d_severity = Rtlb.Validate.Error;
    d_subject = "application";
    d_message = m;
    d_line = (if line > 0 then Some line else None);
  }

let check spec =
  let diags =
    Rtlb.Validate.check_spec ~system:spec.spec_system ~tasks:spec.spec_tasks
      ~edges:spec.spec_edges
  in
  if Rtlb.Validate.has_errors diags then diags
  else
    (* The spec phase found nothing fatal, so the strict parse is expected
       to succeed; anything it still rejects surfaces as E100 rather than
       an exception. *)
    match parse spec.spec_source with
    | { app; system } ->
        let system =
          match system with
          | Some s -> s
          | None ->
              Rtlb.System.shared_uniform
                ~resources:(Rtlb.App.resource_set app)
        in
        let line_of =
          let tbl = Hashtbl.create 16 in
          List.iter
            (fun (ts : Rtlb.Validate.task_spec) ->
              match ts.Rtlb.Validate.ts_line with
              | Some l -> Hashtbl.replace tbl ts.Rtlb.Validate.ts_name l
              | None -> ())
            spec.spec_tasks;
          fun name ->
            (* Periodic unrolling names jobs "t@k"; report the line of the
               declaring task. *)
            let base =
              match String.index_opt name '@' with
              | Some i -> String.sub name 0 i
              | None -> name
            in
            Hashtbl.find_opt tbl base
        in
        let all = diags @ Rtlb.Validate.check_windows ~line_of ~system app in
        (* Interleave the two phases by source line (stable; unlocated
           diagnostics sink to the end). *)
        List.stable_sort
          (fun (a : Rtlb.Validate.diag) (b : Rtlb.Validate.diag) ->
            match (a.Rtlb.Validate.d_line, b.Rtlb.Validate.d_line) with
            | Some x, Some y -> compare x y
            | Some _, None -> -1
            | None, Some _ -> 1
            | None, None -> 0)
          all
    | exception Parse_error (l, m) -> diags @ [ e100 l m ]
    | exception e -> diags @ [ e100 0 (Printexc.to_string e) ]

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
