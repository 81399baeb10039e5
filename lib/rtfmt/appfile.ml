type t = { app : Rtlb.App.t; system : Rtlb.System.t option }

exception Parse_error of int * string

let fail line fmt = Printf.ksprintf (fun m -> raise (Parse_error (line, m))) fmt

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

(* ---------------- hash tables over text spans ---------------- *)

(* Open addressing with linear probing over a power-of-two number of
   slots, at least twice the entries; a slot holds an entry + 1, 0 when
   free.  Names are found by probing with spans of the text, so a
   lookup allocates nothing. *)

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

(* The slot, probed from [i] on, that holds the entry of [names]
   spelled text.[start, stop), or else the free slot it would take. *)
let rec name_slot slots mask names text start stop i =
  let k = slots.(i) in
  if k = 0 || spells text start stop names.(k - 1) then i
  else name_slot slots mask names text start stop ((i + 1) land mask)

(* An index over a growing column of names: the table doubles when
   half full, and the first name entered twice is kept in [dup]. *)
type name_table = {
  mutable slots : int array;
  mutable hashes : int array;
      (* per entry, its name's hash, kept so that growing re-reads no
         name; -1 for a repeated name, which has no slot *)
  mutable dup : int;
}

let name_table () = { slots = Array.make 16 0; hashes = Array.make 16 0; dup = -1 }

let name_hash text start stop = hash_span text start stop fnv_basis land max_int

(* The index of the name text.[start, stop) in [names], or -1. *)
let find_name tbl names text start stop =
  let slots = tbl.slots in
  let mask = Array.length slots - 1 in
  slots.(name_slot slots mask names text start stop
           (name_hash text start stop land mask))
  - 1

(* The first free slot from [i] on. *)
let rec free_slot slots mask i =
  if slots.(i) = 0 then i else free_slot slots mask ((i + 1) land mask)

(* Enter [names.(i)]; a repeated name keeps its first index. *)
let add_name tbl names i =
  if i = Array.length tbl.hashes then begin
    let grown = Array.make (2 * i) 0 in
    Array.blit tbl.hashes 0 grown 0 i;
    tbl.hashes <- grown
  end;
  if 2 * (i + 1) > Array.length tbl.slots then begin
    let slots = Array.make (2 * Array.length tbl.slots) 0 in
    let mask = Array.length slots - 1 in
    for k = 0 to i - 1 do
      let h = tbl.hashes.(k) in
      if h >= 0 then slots.(free_slot slots mask (h land mask)) <- k + 1
    done;
    tbl.slots <- slots
  end;
  let name = names.(i) in
  let h = name_hash name 0 (String.length name) in
  let mask = Array.length tbl.slots - 1 in
  let j = name_slot tbl.slots mask names name 0 (String.length name) (h land mask) in
  if tbl.slots.(j) = 0 then begin
    tbl.slots.(j) <- i + 1;
    tbl.hashes.(i) <- h
  end
  else begin
    tbl.hashes.(i) <- -1;
    if tbl.dup < 0 then tbl.dup <- i
  end

(* [a] with twice the room, its first [len] entries kept. *)
let grow a fill len =
  let b = Array.make (2 * len) fill in
  Array.blit a 0 b 0 len;
  b

(* Processor and resource names: one string per distinct name, with
   the one-unit demand list every task that needs only that name
   shares. *)
type interned = {
  index : name_table;
  mutable i_names : string array;
  mutable i_single : (string * int) list array;
  mutable i_count : int;
}

let interned () =
  { index = name_table (); i_names = Array.make 8 ""; i_single = Array.make 8 [];
    i_count = 0 }

(* The entry for the name text.[start, stop), added when new. *)
let intern t text start stop =
  let k = find_name t.index t.i_names text start stop in
  if k >= 0 then k
  else begin
    let k = t.i_count in
    if k = Array.length t.i_names then begin
      t.i_names <- grow t.i_names "" k;
      t.i_single <- grow t.i_single [] k
    end;
    let name = span text start stop in
    t.i_names.(k) <- name;
    t.i_single.(k) <- [ (name, 1) ];
    t.i_count <- k + 1;
    add_name t.index t.i_names k;
    k
  end

let intern_name t text start stop = t.i_names.(intern t text start stop)
let intern_string t s = intern_name t s 0 (String.length s)

(* ---------------- declarations ---------------- *)

(* Task declarations land in columns, one per field, sized by
   [declaration_counts]; the strict parse hands them to
   [App.of_columns]. *)
type decls = {
  mutable n : int;
  names : string array;
  procs : string array;
  demands : (string * int) list array;
      (* the interned [[(r, 1)]] of a res= naming one resource once, else
         the grouped units in first-occurrence order; counts may be bad *)
  compute : int array;
  release : int array;
  deadline : int array;
  period : int option array;  (* [Some] for a periodic task *)
  lines : int array;
  preemptive : bool array;
}

let decls cap =
  let ints () = Array.make cap 0 in
  { n = 0; names = Array.make cap ""; procs = Array.make cap "";
    demands = Array.make cap []; compute = ints (); release = ints ();
    deadline = ints (); period = Array.make cap None; lines = ints ();
    preemptive = Array.make cap false }

let line_of d i = d.lines.(i)

let task_keys = [| "compute"; "period"; "deadline"; "proc"; "release"; "res" |]

(* Whether text.[start, stop) holds no ',' and no 'x': a res= value
   naming one resource, once. *)
let rec one_name text start stop =
  start = stop
  || (match String.unsafe_get text start with ',' | 'x' -> false | _ -> true)
     && one_name text (start + 1) stop

let parse_task d names f line w =
  if w.count < 2 then fail line "task: missing name";
  let name = word w 1 in
  let f = fields f line w ~first:2 task_keys in
  let compute =
    if has f 0 then field_int line "compute" w f 0
    else fail line "task %s: missing compute=" name
  in
  let periodic = has f 1 in
  let period = if periodic then field_int line "period" w f 1 else 0 in
  let deadline =
    if has f 2 then field_int line "deadline" w f 2
    else if periodic then period
    else fail line "task %s: missing deadline=" name
  in
  if not (has f 3) then fail line "task %s: missing proc=" name;
  let proc = intern_name names w.text f.f_start.(3) f.f_stop.(3) in
  let release = if has f 4 then field_int line "release" w f 4 else 0 in
  let i = d.n in
  d.names.(i) <- name;
  d.procs.(i) <- proc;
  (if has f 5 then
     let start = f.f_start.(5) and stop = f.f_stop.(5) in
     if start = stop then ()
     else if one_name w.text start stop then
       d.demands.(i) <- names.i_single.(intern names w.text start stop)
     else
       d.demands.(i) <-
         List.map
           (fun (r, k) -> (intern_string names r, k))
           (group_demands (counted_list (span w.text start stop))));
  d.compute.(i) <- compute;
  d.release.(i) <- release;
  d.deadline.(i) <- deadline;
  d.period.(i) <- (if periodic then Some period else None);
  d.lines.(i) <- line;
  d.preemptive.(i) <- f.f_preemptive;
  d.n <- i + 1

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

(* ---------------- edges ---------------- *)

(* Edges: four columns (line, source, destination, size), sized by
   [declaration_counts].  An edge resolves its endpoints against the
   tasks declared so far when it is read, while its words are at hand;
   an endpoint not declared yet is -1, with its span kept in
   [unresolved] as (key, start, stop), latest first, [key] being [2 k]
   for the source of edge [k] and [2 k + 1] for its destination, and is
   looked up again once the whole file is read. *)
type edge_store = {
  e_line : int array;
  e_src : int array;
  e_dst : int array;
  e_msg : int array;
  mutable n_edges : int;
  mutable unresolved : (int * int * int) list;
}

let edge_store cap =
  { e_line = Array.make cap 0; e_src = Array.make cap 0; e_dst = Array.make cap 0;
    e_msg = Array.make cap 0; n_edges = 0; unresolved = [] }

let edge_line st k = st.e_line.(k)
let edge_src st k = st.e_src.(k)
let edge_dst st k = st.e_dst.(k)

(* The endpoint column of a key: sources for even keys. *)
let endpoints st key = if key land 1 = 0 then st.e_src else st.e_dst

let push_edge st line src dst size =
  let k = st.n_edges in
  st.e_line.(k) <- line;
  st.e_src.(k) <- src;
  st.e_dst.(k) <- dst;
  st.e_msg.(k) <- size;
  st.n_edges <- k + 1

(* Word [f] (1 source, 2 destination) of an edge line as that endpoint
   of the next edge. *)
let endpoint st tbl names (w : words) f =
  let start = w.starts.(f) and stop = w.stops.(f) in
  let i = find_name tbl names w.text start stop in
  if i < 0 then
    st.unresolved <- ((2 * st.n_edges) + f - 1, start, stop) :: st.unresolved;
  i

let read_edge st tbl names line w size =
  let src = endpoint st tbl names w 1 in
  let dst = endpoint st tbl names w 2 in
  push_edge st line src dst size

(* Look up the endpoints left unresolved, now that every task is known. *)
let resolve_rest st tbl names text =
  List.iter
    (fun (key, start, stop) ->
      (endpoints st key).(key lsr 1) <- find_name tbl names text start stop)
    st.unresolved

(* The name of endpoint [f] (1 source, 2 destination) of edge [k], as the
   file spells it. *)
let endpoint_names st names text =
  let spans = Hashtbl.create 16 in
  List.iter
    (fun (key, start, stop) -> Hashtbl.replace spans key (start, stop))
    st.unresolved;
  fun k f ->
    let key = (2 * k) + f - 1 in
    let i = (endpoints st key).(k) in
    if i >= 0 then names.(i)
    else
      let start, stop = Hashtbl.find spans key in
      span text start stop

type scanned = {
  decls : decls;
  table : name_table;
  edges : edge_store;
  shared : Rtlb.System.t option;
  nodes : (int * Rtlb.System.node_type) list;
}

(* The number of lines whose first byte other than space, tab and
   carriage return is 't', and of those where it is 'e'.  That byte
   starts the line's first word, so these are the task and edge
   declarations of a file that scans, and at least as many as a failing
   scan reads: they size the columns, which never grow. *)
let declaration_counts text =
  let len = String.length text in
  let tasks = ref 0 and edges = ref 0 in
  let i = ref 0 in
  while !i < len do
    while !i < len && class_at text !i = 1 do
      incr i
    done;
    (if !i < len then
       match String.unsafe_get text !i with
       | 't' -> incr tasks
       | 'e' -> incr edges
       | _ -> ());
    while !i < len && String.unsafe_get text !i <> '\n' do
      incr i
    done;
    incr i
  done;
  (!tasks, !edges)

(* Tokenize the whole file into declarations.  Only syntax-level problems
   raise here; semantic ones (duplicates, cycles, bad quantities, dangling
   edges) survive into the result so both the strict constructor path
   and the diagnostic path can decide how to report them. *)
let scan text =
  let tasks, edges = declaration_counts text in
  let d = decls tasks and names = interned ()
  and table = name_table ()
  and edges = edge_store edges in
  let shared = ref None and nodes = ref [] in
  let w = { text; starts = Array.make 16 0; stops = Array.make 16 0; count = 0 } in
  let f =
    { f_start = Array.make max_keys (-1); f_stop = Array.make max_keys 0;
      f_preemptive = false }
  in
  let len = String.length text in
  let directive line =
    let start = w.starts.(0) and stop = w.stops.(0) in
    if spells text start stop "task" then begin
      parse_task d names f line w;
      add_name table d.names (d.n - 1)
    end
    else if spells text start stop "edge" then begin
      if w.count <> 4 then fail line "edge: expected 'edge SRC DST SIZE'";
      read_edge edges table d.names line w
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
  resolve_rest edges table d.names text;
  { decls = d; table; edges; shared = !shared; nodes = List.rev !nodes }

let system_of line_of_conflict shared nodes =
  match (shared, nodes) with
  | Some _, (_ : (int * Rtlb.System.node_type) list) when nodes <> [] ->
      fail (line_of_conflict nodes) "both shared and node lines present"
  | Some s, _ -> Some s
  | None, [] -> None
  | None, nodes -> (
      try Some (Rtlb.System.dedicated (List.map snd nodes))
      with Invalid_argument m -> fail 0 "%s" m)

let rec check_units d i = function
  | [] -> ()
  | (_, k) :: rest ->
      if k < 1 then fail (line_of d i) "task %s: zero resource units" d.names.(i);
      check_units d i rest

(* Task [i]'s units per resource, failing at the first count below one
   in file order. *)
let checked_demands d i =
  let ds = d.demands.(i) in
  check_units d i ds;
  ds

(* The resources task [i] lists, each repeated for its units: the form
   Periodic.ptask expects. *)
let resources_of d i =
  List.concat_map (fun (r, k) -> List.init k (fun _ -> r)) (checked_demands d i)

(* ---------------- strict parse ---------------- *)

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

(* Raise for the first edge among the first [limit] that repeats an
   earlier one.  Dag's sorted rows find duplicates on the way; this
   scan only runs once something has failed, to report the first
   duplicate in file order, which outranks every later problem. *)
let check_duplicates edges names ~n limit =
  let keys = Array.make (table_size limit) 0 in
  let mask = Array.length keys - 1 in
  for k = 0 to limit - 1 do
    let key = (edge_src edges k * n) + edge_dst edges k in
    if not (add_key keys mask key (hash_int key land mask)) then
      fail (edge_line edges k) "duplicate edge %s -> %s"
        names.(edge_src edges k) names.(edge_dst edges k)
  done

let parse text =
  let { decls = d; table; edges; shared; nodes } = scan text in
  let n = d.n in
  let names = d.names in
  if table.dup >= 0 then
    fail (line_of d table.dup) "duplicate task name %s" names.(table.dup);
  (* the first edge, in file order, with an unknown endpoint or a self
     loop *)
  let m = edges.n_edges in
  let bad = ref m and k = ref 0 in
  while !k < m do
    let s = edge_src edges !k and t = edge_dst edges !k in
    if s < 0 || t < 0 || s = t then begin
      bad := !k;
      k := m
    end
    else incr k
  done;
  let duplicates limit = check_duplicates edges names ~n limit in
  if !bad < m then begin
    let k = !bad in
    duplicates k;
    let line = edge_line edges k in
    let endpoint_name = endpoint_names edges names text in
    if edge_src edges k < 0 then
      fail line "edge: unknown task %s" (endpoint_name k 1);
    if edge_dst edges k < 0 then
      fail line "edge: unknown task %s" (endpoint_name k 2);
    fail line "edge: self loop on task %s" names.(edge_src edges k)
  end;
  let src = edges.e_src and dst = edges.e_dst and msg = edges.e_msg in
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
        line := min !line (edge_line edges k)
    done;
    let line = if !line = max_int then 0 else !line in
    fail line "precedence cycle: %s"
      (String.concat " -> " (cycle_names @ [ List.nth cycle_names 0 ]))
  in
  let periodic = ref false and one_shot = ref (-1) in
  for i = n - 1 downto 0 do
    if d.period.(i) <> None then periodic := true else one_shot := i
  done;
  let app =
    if !periodic then begin
      duplicates m;
      (if !one_shot >= 0 then
         let i = !one_shot in
         fail (line_of d i)
           "task %s: mixing periodic and one-shot tasks is not supported"
           names.(i));
      let ptasks =
        List.init n (fun i ->
            try
              Rtlb.Periodic.ptask ~name:names.(i)
                ~period:(Option.get d.period.(i))
                ~offset:d.release.(i) ~compute:d.compute.(i)
                ~deadline:d.deadline.(i) ~proc:d.procs.(i)
                ~resources:(resources_of d i) ~preemptive:d.preemptive.(i) ()
            with Invalid_argument msg ->
              fail (line_of d i) "task %s: %s" names.(i) msg)
      in
      let pedges =
        List.init m (fun k -> (names.(src.(k)), names.(dst.(k)), msg.(k)))
      in
      match Rtlb.Periodic.unroll ~tasks:ptasks ~edges:pedges () with
      | app -> app
      | exception Invalid_argument msg -> fail 0 "%s" msg
      | exception Dag.Cycle _ -> fail 0 "precedence cycle in task graph"
    end
    else begin
      (* Each task's demands in Task.make's order (by name), checked
         with its messages; equal multi-resource lists are shared. *)
      let shared = Hashtbl.create 16 in
      for i = 0 to n - 1 do
        match
          let ds =
            match checked_demands d i with
            | ([] | [ _ ]) as ds -> ds
            | ds -> (
                let ds =
                  List.sort (fun (a, _) (b, _) -> String.compare a b) ds
                in
                match Hashtbl.find_opt shared ds with
                | Some same -> same
                | None ->
                    Hashtbl.add shared ds ds;
                    ds)
          in
          Rtlb.Task.check ~id:i ~compute:d.compute.(i) ~release:d.release.(i)
            ~deadline:d.deadline.(i) ~proc:d.procs.(i) ~demands:ds;
          d.demands.(i) <- ds
        with
        | () -> ()
        | exception Invalid_argument msg ->
            duplicates m;
            fail (line_of d i) "task %s: %s" names.(i) msg
        | exception (Parse_error _ as e) ->
            duplicates m;
            raise e
      done;
      let columns =
        {
          Rtlb.App.names = names;
          compute = d.compute;
          release = d.release;
          deadline = d.deadline;
          proc = d.procs;
          demands = d.demands;
          preemptive = d.preemptive;
        }
      in
      match Rtlb.App.of_columns columns ~src ~dst ~msg with
      | app -> app
      | exception Invalid_argument msg ->
          duplicates m;
          fail 0 "%s" msg
      | exception Dag.Cycle ids -> cycle_error ids
    end
  in
  let line_of_conflict nodes =
    match nodes with (l, _) :: _ -> l | [] -> 0
  in
  let system = system_of line_of_conflict shared nodes in
  { app; system }

(* The whole of a file, read to its end: a pipe or a terminal has no
   length to size the read by. *)
let read_file path =
  let ic = open_in path in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () ->
      In_channel.input_all ic)

let parse_file path = parse (read_file path)

(* ---------------- diagnostic (spec) path ---------------- *)

type spec = {
  spec_tasks : Rtlb.Validate.task_spec list;
  spec_edges : Rtlb.Validate.edge_spec list;
  spec_system : Rtlb.System.t option;
  spec_source : string;
}

let parse_spec text =
  let { decls = d; edges; shared; nodes; _ } = scan text in
  let line_of_conflict nodes =
    match nodes with (l, _) :: _ -> l | [] -> 0
  in
  let system = system_of line_of_conflict shared nodes in
  let endpoint_name = endpoint_names edges d.names text in
  {
    spec_tasks =
      List.init d.n (fun i ->
          {
            Rtlb.Validate.ts_name = d.names.(i);
            ts_compute = d.compute.(i);
            ts_release = d.release.(i);
            ts_deadline = d.deadline.(i);
            ts_proc = d.procs.(i);
            ts_demands = d.demands.(i);
            ts_preemptive = d.preemptive.(i);
            ts_period = d.period.(i);
            ts_line = Some (line_of d i);
          });
    spec_edges =
      List.init edges.n_edges (fun k ->
          {
            Rtlb.Validate.es_src = endpoint_name k 1;
            es_dst = endpoint_name k 2;
            es_message = edges.e_msg.(k);
            es_line = Some (edge_line edges k);
          });
    spec_system = system;
    spec_source = text;
  }

let parse_spec_file path = parse_spec (read_file path)

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

(* ---------------- writing ---------------- *)

(* The digits of a non-positive [v] into [b], last digit at [p],
   leftwards; returns the position of the first. *)
let rec put_digits b p v =
  Bytes.unsafe_set b p (Char.unsafe_chr (48 - (v mod 10)));
  if v <= -10 then put_digits b (p - 1) (v / 10) else p

(* [string_of_int i] appended through a scratch of 20 bytes, enough for
   any 63-bit integer. *)
let add_int buf scratch i =
  let p = put_digits scratch 19 (if i < 0 then i else -i) in
  let p =
    if i < 0 then begin
      Bytes.unsafe_set scratch (p - 1) '-';
      p - 1
    end
    else p
  in
  Buffer.add_subbytes buf scratch p (20 - p)

(* "r" for one unit, "2xr" for more, comma-separated. *)
let add_counted buf scratch pairs =
  List.iteri
    (fun k (r, units) ->
      if k > 0 then Buffer.add_char buf ',';
      if units <> 1 then begin
        add_int buf scratch units;
        Buffer.add_char buf 'x'
      end;
      Buffer.add_string buf r)
    pairs

let to_string ?system app =
  let buf = Buffer.create 512 and scratch = Bytes.create 20 in
  let add = Buffer.add_string buf and int = add_int buf scratch in
  let c = Rtlb.App.columns app in
  let name = Array.get c.Rtlb.App.names in
  for i = 0 to Rtlb.App.n_tasks app - 1 do
    add "task ";
    add (name i);
    add " compute=";
    int c.Rtlb.App.compute.(i);
    add " release=";
    int c.Rtlb.App.release.(i);
    add " deadline=";
    int c.Rtlb.App.deadline.(i);
    add " proc=";
    add c.Rtlb.App.proc.(i);
    (match c.Rtlb.App.demands.(i) with
    | [] -> ()
    | ds ->
        add " res=";
        add_counted buf scratch ds);
    if c.Rtlb.App.preemptive.(i) then add " preemptive";
    Buffer.add_char buf '\n'
  done;
  Dag.fold_edges (Rtlb.App.graph app) ~init:() ~f:(fun () ~src ~dst m ->
      add "edge ";
      add (name src);
      Buffer.add_char buf ' ';
      add (name dst);
      Buffer.add_char buf ' ';
      int m;
      Buffer.add_char buf '\n');
  (match system with
  | None -> ()
  | Some (Rtlb.System.Shared costs) ->
      add "shared";
      List.iter
        (fun (r, c) ->
          Buffer.add_char buf ' ';
          add r;
          Buffer.add_char buf '=';
          int c)
        costs;
      Buffer.add_char buf '\n'
  | Some (Rtlb.System.Dedicated nts) ->
      List.iter
        (fun (nt : Rtlb.System.node_type) ->
          add "node ";
          add nt.Rtlb.System.nt_name;
          add " proc=";
          add nt.Rtlb.System.nt_proc;
          (match nt.Rtlb.System.nt_provides with
          | [] -> ()
          | provides ->
              add " res=";
              add_counted buf scratch provides);
          add " cost=";
          int nt.Rtlb.System.nt_cost;
          Buffer.add_char buf '\n')
        nts);
  Buffer.contents buf
