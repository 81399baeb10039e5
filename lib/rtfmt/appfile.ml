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

(* Processor and resource names: one string per distinct name, with
   the one-element demand list every task that needs only that name
   shares. *)
type interned = {
  index : name_table;
  mutable i_names : string array;
  mutable i_single : string list array;
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
      let grow a fill =
        let b = Array.make (2 * k) fill in
        Array.blit a 0 b 0 k;
        b
      in
      t.i_names <- grow t.i_names "";
      t.i_single <- grow t.i_single []
    end;
    let name = span text start stop in
    t.i_names.(k) <- name;
    t.i_single.(k) <- [ name ];
    t.i_count <- k + 1;
    add_name t.index t.i_names k;
    k
  end

let intern_name t text start stop = t.i_names.(intern t text start stop)
let intern_string t s = intern_name t s 0 (String.length s)

(* ---------------- declarations ---------------- *)

(* Task declarations land in growable columns: the name, the interned
   processor, the demands, and [task_width] ints each (compute, release,
   deadline, period, line, flags) in one int array. *)
let task_width = 6
let preemptive_flag = 1
let periodic_flag = 2

type decls = {
  mutable n : int;
  mutable names : string array;
  mutable procs : string array;
  mutable single : string list array;
      (* the interned [[r]] of a res= naming one resource once, else [] *)
  mutable demands : (string * int) list array;
      (* grouped units of any other res=; counts may be bad *)
  mutable ints : int array;
}

let decls () =
  { n = 0; names = Array.make 16 ""; procs = Array.make 16 ""; single = Array.make 16 [];
    demands = Array.make 16 []; ints = Array.make (16 * task_width) 0 }

let grow_decls d =
  let cap = Array.length d.names in
  let grow a fill len =
    let b = Array.make (2 * len) fill in
    Array.blit a 0 b 0 len;
    b
  in
  d.names <- grow d.names "" cap;
  d.procs <- grow d.procs "" cap;
  d.single <- grow d.single [] cap;
  d.demands <- grow d.demands [] cap;
  d.ints <- grow d.ints 0 (cap * task_width)

let field_of d i f = d.ints.((i * task_width) + f)
let compute_of d i = field_of d i 0
let release_of d i = field_of d i 1
let deadline_of d i = field_of d i 2
let line_of d i = field_of d i 4
let preemptive_of d i = field_of d i 5 land preemptive_flag <> 0
let period_of d i =
  if field_of d i 5 land periodic_flag <> 0 then Some (field_of d i 3) else None

(* The grouped demands of task [i]. *)
let demands_of d i =
  match d.single.(i) with [ r ] -> [ (r, 1) ] | _ -> d.demands.(i)

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
  if i = Array.length d.names then grow_decls d;
  d.names.(i) <- name;
  d.procs.(i) <- proc;
  (if has f 5 then
     let start = f.f_start.(5) and stop = f.f_stop.(5) in
     if start = stop then ()
     else if one_name w.text start stop then
       d.single.(i) <- names.i_single.(intern names w.text start stop)
     else
       d.demands.(i) <-
         List.map
           (fun (r, k) -> (intern_string names r, k))
           (group_demands (counted_list (span w.text start stop))));
  let o = i * task_width in
  d.ints.(o) <- compute;
  d.ints.(o + 1) <- release;
  d.ints.(o + 2) <- deadline;
  d.ints.(o + 3) <- period;
  d.ints.(o + 4) <- line;
  d.ints.(o + 5) <-
    (if f.f_preemptive then preemptive_flag else 0)
    lor if periodic then periodic_flag else 0;
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

(* Edges: [edge_width] ints each (line, source, destination, size) in one
   int array that doubles when full.  An edge resolves its endpoints
   against the tasks declared so far when it is read, while its words
   are at hand; an endpoint not declared yet is -1, with its span kept
   in [unresolved] as (field, start, stop), latest first, field being
   the endpoint's index in [fields], and is looked up again once the
   whole file is read. *)
let edge_width = 4

type edge_store = {
  mutable fields : int array;
  mutable n_edges : int;
  mutable unresolved : (int * int * int) list;
}

let edge_field st k f = st.fields.((k * edge_width) + f)
let edge_line st k = edge_field st k 0
let edge_src st k = edge_field st k 1
let edge_dst st k = edge_field st k 2
let edge_size st k = edge_field st k 3

let push_edge st line src dst size =
  let o = st.n_edges * edge_width in
  if o = Array.length st.fields then begin
    let grown = Array.make (2 * o) 0 in
    Array.blit st.fields 0 grown 0 o;
    st.fields <- grown
  end;
  let a = st.fields in
  a.(o) <- line;
  a.(o + 1) <- src;
  a.(o + 2) <- dst;
  a.(o + 3) <- size;
  st.n_edges <- st.n_edges + 1

(* Word [f] of an edge line as endpoint [f] of the next edge. *)
let endpoint st tbl names (w : words) f =
  let start = w.starts.(f) and stop = w.stops.(f) in
  let i = find_name tbl names w.text start stop in
  if i < 0 then
    st.unresolved <-
      ((st.n_edges * edge_width) + f, start, stop) :: st.unresolved;
  i

let read_edge st tbl names line w size =
  let src = endpoint st tbl names w 1 in
  let dst = endpoint st tbl names w 2 in
  push_edge st line src dst size

(* Look up the endpoints left unresolved, now that every task is known. *)
let resolve_rest st tbl names text =
  List.iter
    (fun (field, start, stop) ->
      st.fields.(field) <- find_name tbl names text start stop)
    st.unresolved

(* The name of endpoint [f] (1 source, 2 destination) of edge [k], as the
   file spells it. *)
let endpoint_names st names text =
  let spans = Hashtbl.create 16 in
  List.iter
    (fun (field, start, stop) -> Hashtbl.replace spans field (start, stop))
    st.unresolved;
  fun k f ->
    let i = edge_field st k f in
    if i >= 0 then names.(i)
    else
      let start, stop = Hashtbl.find spans ((k * edge_width) + f) in
      span text start stop

type scanned = {
  decls : decls;
  table : name_table;
  edges : edge_store;
  shared : Rtlb.System.t option;
  nodes : (int * Rtlb.System.node_type) list;
}

(* Tokenize the whole file into declarations.  Only syntax-level problems
   raise here; semantic ones (duplicates, cycles, bad quantities, dangling
   edges) survive into the result so both the strict constructor path
   and the diagnostic path can decide how to report them. *)
let scan text =
  let d = decls () and names = interned ()
  and table = name_table ()
  and edges =
    { fields = Array.make (16 * edge_width) 0; n_edges = 0; unresolved = [] }
  in
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

(* The resources task [i] lists, each repeated for its units: the form
   Task.make expects. *)
let resources_of d i =
  match d.single.(i) with
  | [ _ ] as one -> one
  | _ ->
      List.concat_map
        (fun (r, k) ->
          if k < 1 then
            fail (line_of d i) "task %s: zero resource units" d.names.(i);
          List.init k (fun _ -> r))
        d.demands.(i)

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
  let src = Array.init m (edge_src edges)
  and dst = Array.init m (edge_dst edges)
  and msg = Array.init m (edge_size edges) in
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
    if period_of d i <> None then periodic := true else one_shot := i
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
                ~period:(Option.get (period_of d i)) ~offset:(release_of d i)
                ~compute:(compute_of d i) ~deadline:(deadline_of d i)
                ~proc:d.procs.(i) ~resources:(resources_of d i)
                ~preemptive:(preemptive_of d i) ()
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
      let tasks =
        Array.init n (fun i ->
            match
              Rtlb.Task.make ~id:i ~name:names.(i) ~compute:(compute_of d i)
                ~release:(release_of d i) ~deadline:(deadline_of d i)
                ~proc:d.procs.(i) ~resources:(resources_of d i)
                ~preemptive:(preemptive_of d i) ()
            with
            | task -> task
            | exception Invalid_argument msg ->
                duplicates m;
                fail (line_of d i) "task %s: %s" names.(i) msg
            | exception (Parse_error _ as e) ->
                duplicates m;
                raise e)
      in
      match Rtlb.App.of_arrays ~tasks ~src ~dst ~msg with
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
            ts_compute = compute_of d i;
            ts_release = release_of d i;
            ts_deadline = deadline_of d i;
            ts_proc = d.procs.(i);
            ts_demands = demands_of d i;
            ts_preemptive = preemptive_of d i;
            ts_period = period_of d i;
            ts_line = Some (line_of d i);
          });
    spec_edges =
      List.init edges.n_edges (fun k ->
          {
            Rtlb.Validate.es_src = endpoint_name k 1;
            es_dst = endpoint_name k 2;
            es_message = edge_size edges k;
            es_line = Some (edge_line edges k);
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
  Array.iter
    (fun (task : Rtlb.Task.t) ->
      add "task ";
      add task.Rtlb.Task.name;
      add " compute=";
      int task.Rtlb.Task.compute;
      add " release=";
      int task.Rtlb.Task.release;
      add " deadline=";
      int task.Rtlb.Task.deadline;
      add " proc=";
      add task.Rtlb.Task.proc;
      (match task.Rtlb.Task.demands with
      | [] -> ()
      | ds ->
          add " res=";
          add_counted buf scratch ds);
      if task.Rtlb.Task.preemptive then add " preemptive";
      Buffer.add_char buf '\n')
    (Rtlb.App.tasks app);
  let name i = (Rtlb.App.task app i).Rtlb.Task.name in
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
