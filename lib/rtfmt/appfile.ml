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

(* Byte classes: 0 inside a word, 1 blank (space, tab, carriage return),
   2 the end of a line's content ('\n' or '#'). *)
let byte_class =
  String.init 256 (fun k ->
      match Char.chr k with
      | ' ' | '\t' | '\r' -> '\001'
      | '\n' | '#' -> '\002'
      | _ -> '\000')

let class_at text i =
  Char.code (String.unsafe_get byte_class (Char.code (String.unsafe_get text i)))

(* Read the words of the line starting at [start] into [w]; returns the
   index of the line's '\n', or the length of the text. *)
let split_line w start =
  let text = w.text and len = String.length w.text in
  w.count <- 0;
  let i = ref start in
  while !i < len && class_at text !i < 2 do
    if class_at text !i = 1 then incr i
    else begin
      let first = !i in
      while !i < len && class_at text !i = 0 do
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

let span text start stop = String.sub text start (stop - start)
let word w k = span w.text w.starts.(k) w.stops.(k)

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

(* The value of the decimal digits text.[start, stop), or -1 when the
   span holds anything else. *)
let rec digits_value text start stop acc =
  if start = stop then acc
  else
    match String.unsafe_get text start with
    | '0' .. '9' as c ->
        digits_value text (start + 1) stop ((10 * acc) + Char.code c - 48)
    | _ -> -1

(* The integer text.[start, stop) spells.  Up to 18 plain digits cannot
   overflow and are read in place; anything else (signs, prefixes,
   underscores, overflow) goes through [int_of_string_opt]. *)
let int_span line what text start stop =
  let v =
    if stop > start && stop - start <= 18 then digits_value text start stop 0
    else -1
  in
  if v >= 0 then v
  else
    let s = span text start stop in
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

(* One buffer per scan, refilled by each declaration. *)
type fields = {
  f_start : int array;
  f_stop : int array;
  mutable f_preemptive : bool;
}

let max_keys = 6

(* The key=value words of a declaration, from word [first] on, read
   against the [keys] it knows (at most [max_keys]) into [f]: the value
   span of each key's first occurrence (start -1 when absent) and whether
   the bare word "preemptive" appears.  Other keys are ignored; any other
   bare word is an error. *)
let fields f line w ~first keys =
  let nk = Array.length keys in
  Array.fill f.f_start 0 nk (-1);
  f.f_preemptive <- false;
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
let field_string w f j = span w.text f.f_start.(j) f.f_stop.(j)
let field_int line what w f j = int_span line what w.text f.f_start.(j) f.f_stop.(j)

let task_keys = [| "compute"; "period"; "deadline"; "proc"; "release"; "res" |]

let parse_task f line w =
  if w.count < 2 then fail line "task: missing name";
  let name = word w 1 in
  let f = fields f line w ~first:2 task_keys in
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

let parse_node f line w =
  if w.count < 2 then fail line "node: missing name";
  let name = word w 1 in
  let f = fields f line w ~first:2 node_keys in
  let proc =
    if has f 0 then field_string w f 0
    else fail line "node %s: missing proc=" name
  in
  let cost = if has f 1 then field_int line "cost" w f 1 else 1 in
  let provides = if has f 2 then counted_list (field_string w f 2) else [] in
  try Rtlb.System.node_type ~name ~proc ~provides ~cost ()
  with Invalid_argument m -> fail line "node %s: %s" name m

(* Edges stay spans of the text until [parse] resolves them: [edge_width]
   ints each (line, source start and stop, destination start and stop,
   size) in one int array that doubles when full. *)
let edge_width = 6

type edge_store = { mutable fields : int array; mutable n_edges : int }

let edge_field st k f = st.fields.((k * edge_width) + f)

let push_edge st line (w : words) size =
  let o = st.n_edges * edge_width in
  if o = Array.length st.fields then begin
    let grown = Array.make (2 * o) 0 in
    Array.blit st.fields 0 grown 0 o;
    st.fields <- grown
  end;
  let a = st.fields in
  a.(o) <- line;
  a.(o + 1) <- w.starts.(1);
  a.(o + 2) <- w.stops.(1);
  a.(o + 3) <- w.starts.(2);
  a.(o + 4) <- w.stops.(2);
  a.(o + 5) <- size;
  st.n_edges <- st.n_edges + 1

type scanned = {
  tasks : pending_task list;
  edges : edge_store;
  shared : Rtlb.System.t option;
  nodes : (int * Rtlb.System.node_type) list;
}

let edge_src_name text st k = span text (edge_field st k 1) (edge_field st k 2)
let edge_dst_name text st k = span text (edge_field st k 3) (edge_field st k 4)

(* Tokenize the whole file into declarations.  Only syntax-level problems
   raise here; semantic ones (duplicates, cycles, bad quantities, dangling
   edges) survive into the result so both the strict constructor path
   and the diagnostic path can decide how to report them. *)
let scan text =
  let tasks = ref []
  and edges = { fields = Array.make (16 * edge_width) 0; n_edges = 0 } in
  let shared = ref None and nodes = ref [] in
  let w = { text; starts = Array.make 16 0; stops = Array.make 16 0; count = 0 } in
  let f =
    { f_start = Array.make max_keys (-1); f_stop = Array.make max_keys 0;
      f_preemptive = false }
  in
  let len = String.length text in
  let directive line =
    let start = w.starts.(0) and stop = w.stops.(0) in
    if spells text start stop "task" then tasks := parse_task f line w :: !tasks
    else if spells text start stop "edge" then begin
      if w.count <> 4 then fail line "edge: expected 'edge SRC DST SIZE'";
      push_edge edges line w
        (int_span line "message" text w.starts.(3) w.stops.(3))
    end
    else if spells text start stop "shared" then begin
      if Option.is_some !shared then fail line "duplicate shared line";
      shared := Some (parse_shared line w)
    end
    else if spells text start stop "node" then
      nodes := (line, parse_node f line w) :: !nodes
    else fail line "unknown directive %S" (word w 0)
  in
  let rec lines start line =
    let stop = split_line w start in
    if w.count > 0 then directive line;
    if stop < len then lines (stop + 1) (line + 1)
  in
  lines 0 1;
  { tasks = List.rev !tasks; edges; shared = !shared; nodes = List.rev !nodes }

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

(* ---------------- name and edge tables ---------------- *)

(* Open addressing with linear probing over a power-of-two number of
   slots, at least twice the entries; a slot holds an entry + 1, 0 when
   free.  Task names are found by probing with spans of the text, and
   edge keys in a flat int set, so resolving an edge allocates nothing. *)

let table_size entries =
  let rec grow c = if c >= 2 * entries then c else grow (2 * c) in
  grow 16

(* FNV-1a over text.[start, stop). *)
let rec hash_span text start stop h =
  if start = stop then h lxor (h lsr 29)
  else
    hash_span text (start + 1) stop
      ((h lxor Char.code (String.unsafe_get text start)) * 0x100000001b3)

let fnv_basis = 0x811c9dc5

(* The slot, probed from [i] on, that holds the task named
   text.[start, stop), or else the free slot that name would take. *)
let rec name_slot slots mask names text start stop i =
  let k = slots.(i) in
  if k = 0 || spells text start stop names.(k - 1) then i
  else name_slot slots mask names text start stop ((i + 1) land mask)

let hash_int k =
  let h = k * 0x1e3779b97f4a7c15 in
  h lxor (h lsr 32)

(* Add [key] (>= 0) to the set; false when it was already there. *)
let rec add_key slots mask key i =
  let k = slots.(i) in
  if k = 0 then begin
    slots.(i) <- key + 1;
    true
  end
  else k <> key + 1 && add_key slots mask key ((i + 1) land mask)

let parse text =
  let { tasks; edges; shared; nodes } = scan text in
  let decls = Array.of_list tasks in
  let n = Array.length decls in
  let names = Array.map (fun pt -> pt.pt_name) decls in
  let slots = Array.make (table_size n) 0 in
  let mask = Array.length slots - 1 in
  let slot text start stop =
    let h = hash_span text start stop fnv_basis in
    name_slot slots mask names text start stop (h land mask)
  in
  Array.iteri
    (fun i name ->
      let j = slot name 0 (String.length name) in
      if slots.(j) <> 0 then
        fail decls.(i).pt_line "duplicate task name %s" name;
      slots.(j) <- i + 1)
    names;
  (* Reject dangling endpoints, self-loops and duplicate edges here, where
     the source line is still known — Dag.create would only raise an
     unlocated Invalid_argument. *)
  let m = edges.n_edges in
  let src = Array.make m 0 and dst = Array.make m 0 and msg = Array.make m 0 in
  let keys = Array.make (table_size m) 0 in
  let keys_mask = Array.length keys - 1 in
  let resolve line start stop =
    let i = slots.(slot text start stop) - 1 in
    if i < 0 then fail line "edge: unknown task %s" (span text start stop);
    i
  in
  for k = 0 to m - 1 do
    let line = edge_field edges k 0 in
    let s = resolve line (edge_field edges k 1) (edge_field edges k 2) in
    let d = resolve line (edge_field edges k 3) (edge_field edges k 4) in
    if s = d then
      fail line "edge: self loop on task %s" (edge_src_name text edges k);
    let key = (s * n) + d in
    if not (add_key keys keys_mask key (hash_int key land keys_mask)) then
      fail line "duplicate edge %s -> %s" (edge_src_name text edges k)
        (edge_dst_name text edges k);
    src.(k) <- s;
    dst.(k) <- d;
    msg.(k) <- edge_field edges k 5
  done;
  let cycle_error ids =
    (* Map the Dag.Cycle payload back to names and the earliest source
       line of an edge on the cycle. *)
    let cycle_names = List.map (fun i -> names.(i)) ids in
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
    let line = ref max_int in
    for k = 0 to m - 1 do
      if List.mem (src.(k), dst.(k)) pairs then
        line := min !line (edge_field edges k 0)
    done;
    let line = if !line = max_int then 0 else !line in
    fail line "precedence cycle: %s"
      (String.concat " -> " (cycle_names @ [ List.nth cycle_names 0 ]))
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
      let pedges =
        List.init m (fun k -> (names.(src.(k)), names.(dst.(k)), msg.(k)))
      in
      match Rtlb.Periodic.unroll ~tasks:ptasks ~edges:pedges () with
      | app -> app
      | exception Invalid_argument m -> fail 0 "%s" m
      | exception Dag.Cycle _ -> fail 0 "precedence cycle in task graph"
    end
    else begin
      let tasks =
        Array.mapi
          (fun i pt ->
            try
              Rtlb.Task.make ~id:i ~name:pt.pt_name ~compute:pt.pt_compute
                ~release:pt.pt_release ~deadline:pt.pt_deadline ~proc:pt.pt_proc
                ~resources:(expand_demands pt) ~preemptive:pt.pt_preemptive ()
            with Invalid_argument m -> fail pt.pt_line "task %s: %s" pt.pt_name m)
          decls
      in
      match Rtlb.App.of_arrays ~tasks ~src ~dst ~msg with
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
  let { tasks; edges; shared; nodes } = scan text in
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
      List.init edges.n_edges (fun k ->
          {
            Rtlb.Validate.es_src = edge_src_name text edges k;
            es_dst = edge_dst_name text edges k;
            es_message = edge_field edges k 5;
            es_line = Some (edge_field edges k 0);
          });
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
