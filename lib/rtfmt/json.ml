type t =
  | Null
  | Bool of bool
  | Int of int
  | Str of string
  | List of t list
  | Obj of (string * t) list

(* ---------------- the writer ---------------- *)

(* One first-order writer for every byte the module prints.  Bytes
   collect in [buf]; with a channel they go out whenever the buffer is
   full (about every 64 KB), without one they stay until the end.  The
   separators come from a small nesting state: [depth] open containers,
   whether the innermost one has no item yet, and whether a key was just
   written (its value takes no separator). *)
type writer = {
  mutable buf : Bytes.t;
  mutable len : int;
  oc : out_channel option;
  indent : bool;
  mutable depth : int;
  mutable fresh : bool;
  mutable keyed : bool;
}

(* Bytes [output] holds back before writing them to its channel. *)
let chunk = 65536

let writer ?oc ~indent size =
  { buf = Bytes.create size; len = 0; oc; indent; depth = 0; fresh = false;
    keyed = false }

let flush_writer w =
  match w.oc with
  | Some oc ->
      Stdlib.output oc w.buf 0 w.len;
      w.len <- 0
  | None -> ()

(* Room for [n] more bytes: flush to the channel, or grow. *)
let make_room w n =
  flush_writer w;
  if n > Bytes.length w.buf - w.len then begin
    let grown = Bytes.create (max (2 * Bytes.length w.buf) (w.len + n)) in
    Bytes.blit w.buf 0 grown 0 w.len;
    w.buf <- grown
  end

let[@inline] reserve w n = if w.len + n > Bytes.length w.buf then make_room w n

(* Copies of a few bytes, too short to pay for a call into the
   runtime's [memmove]. *)
let blit s start b p n =
  if n <= 16 then
    for k = 0 to n - 1 do
      Bytes.unsafe_set b (p + k) (String.unsafe_get s (start + k))
    done
  else Bytes.unsafe_blit_string s start b p n

let[@inline] add_char w c =
  reserve w 1;
  Bytes.unsafe_set w.buf w.len c;
  w.len <- w.len + 1

let add_sub w s start n =
  reserve w n;
  blit s start w.buf w.len n;
  w.len <- w.len + n

let add_string w s = add_sub w s 0 (String.length s)

(* A line break and its indentation are sliced from one shared string. *)
let newline_spaces = "\n" ^ String.make 128 ' '

let rec add_spaces w n =
  if n > 0 then begin
    let k = min n (String.length newline_spaces - 1) in
    add_sub w newline_spaces 1 k;
    add_spaces w (n - k)
  end

let newline w =
  let n = 1 + (2 * w.depth) in
  if n <= String.length newline_spaces then add_sub w newline_spaces 0 n
  else begin
    add_char w '\n';
    add_spaces w (2 * w.depth)
  end

(* The digits of a non-positive [v], last digit at [p], leftwards. *)
let rec put_digits b p v =
  Bytes.unsafe_set b p (Char.unsafe_chr (48 - (v mod 10)));
  if v <= -10 then put_digits b (p - 1) (v / 10)

let rec digit_count v k = if v > -10 then k else digit_count (v / 10) (k + 1)

(* [string_of_int i], digit by digit; the digits come from the
   non-positive [-|i|], so [min_int] needs no special case. *)
let add_int w i =
  let v = if i < 0 then i else -i in
  let n = digit_count v 1 + if i < 0 then 1 else 0 in
  reserve w n;
  if i < 0 then Bytes.unsafe_set w.buf w.len '-';
  put_digits w.buf (w.len + n - 1) v;
  w.len <- w.len + n

let needs_escape c = c = '"' || c = '\\' || Char.code c < 0x20

(* The first index from [i] on whose byte needs an escape, or [n]. *)
let rec plain_until s i n =
  if i = n || needs_escape (String.unsafe_get s i) then i
  else plain_until s (i + 1) n

let hex_digit k = String.unsafe_get "0123456789abcdef" k

let add_escaped w c =
  match c with
  | '"' -> add_string w "\\\""
  | '\\' -> add_string w "\\\\"
  | '\n' -> add_string w "\\n"
  | '\r' -> add_string w "\\r"
  | '\t' -> add_string w "\\t"
  | c ->
      add_string w "\\u00";
      add_char w (hex_digit (Char.code c lsr 4));
      add_char w (hex_digit (Char.code c land 15))

(* Each run of plain bytes is copied at once. *)
let rec add_runs w s i n =
  let j = plain_until s i n in
  add_sub w s i (j - i);
  if j < n then begin
    add_escaped w (String.unsafe_get s j);
    add_runs w s (j + 1) n
  end

(* [s] between quotes, then [tail] (a key's ": ", or nothing). *)
let add_quoted w s tail =
  let n = String.length s and t = String.length tail in
  if plain_until s 0 n = n then begin
    reserve w (n + t + 2);
    let b = w.buf and p = w.len in
    Bytes.unsafe_set b p '"';
    blit s 0 b (p + 1) n;
    Bytes.unsafe_set b (p + n + 1) '"';
    blit tail 0 b (p + n + 2) t;
    w.len <- p + n + t + 2
  end
  else begin
    add_char w '"';
    add_runs w s 0 n;
    add_char w '"';
    add_string w tail
  end

(* The separator before an item: none after a key or at the top, else a
   comma unless the container is fresh, then the item's line. *)
let item w =
  if w.keyed then w.keyed <- false
  else if w.depth > 0 then begin
    if w.fresh then w.fresh <- false else add_char w ',';
    if w.indent then newline w
  end

let w_open w c =
  item w;
  add_char w c;
  w.depth <- w.depth + 1;
  w.fresh <- true

(* An empty container closes on its own line: "[]", "{}". *)
let w_close w c =
  w.depth <- w.depth - 1;
  if w.fresh then w.fresh <- false else if w.indent then newline w;
  add_char w c

let w_key w k =
  item w;
  add_quoted w k ": ";
  w.keyed <- true

let w_int w i =
  item w;
  add_int w i

let w_str w s =
  item w;
  add_quoted w s ""

let w_literal w s =
  item w;
  add_string w s

(* The tree printer: a walk of [t] into the writer. *)
let rec put w = function
  | Null -> w_literal w "null"
  | Bool b -> w_literal w (if b then "true" else "false")
  | Int i -> w_int w i
  | Str s -> w_str w s
  | List items ->
      w_open w '[';
      put_items w items;
      w_close w ']'
  | Obj fields ->
      w_open w '{';
      put_fields w fields;
      w_close w '}'

and put_items w = function
  | [] -> ()
  | v :: rest ->
      put w v;
      put_items w rest

and put_fields w = function
  | [] -> ()
  | (k, v) :: rest ->
      w_key w k;
      put w v;
      put_fields w rest

let to_string ?(indent = true) t =
  let w = writer ~indent 256 in
  put w t;
  Bytes.sub_string w.buf 0 w.len

let output ?(indent = true) oc t =
  let w = writer ~oc ~indent chunk in
  put w t;
  flush_writer w

(* ---------------- parsing ---------------- *)

exception Parse_error of string

(* The parser reads bytes by index: no option per byte, and each run of
   plain string bytes is copied at once. *)
type cursor = { text : string; mutable pos : int }

let fail msg = raise (Parse_error msg)
let more c = c.pos < String.length c.text
let here c = String.unsafe_get c.text c.pos

let rec skip_ws c =
  if more c then
    match here c with
    | ' ' | '\t' | '\n' | '\r' ->
        c.pos <- c.pos + 1;
        skip_ws c
    | _ -> ()

let expect c ch =
  if not (more c) then
    fail (Printf.sprintf "expected %c, found end of input" ch)
  else if here c = ch then c.pos <- c.pos + 1
  else fail (Printf.sprintf "expected %c, found %c at %d" ch (here c) c.pos)

let rec spells_at text pos word j =
  j = String.length word
  || String.unsafe_get text (pos + j) = String.unsafe_get word j
     && spells_at text pos word (j + 1)

let literal c word value =
  if
    c.pos + String.length word <= String.length c.text
    && spells_at c.text c.pos word 0
  then begin
    c.pos <- c.pos + String.length word;
    value
  end
  else fail (Printf.sprintf "bad literal at %d" c.pos)

(* UTF-8 encoding of a Unicode scalar value (the \uXXXX decoder below
   combines surrogate pairs first, so supplementary planes land here as
   code points up to U+10FFFF). *)
let add_utf8 buf cp =
  if cp < 0x80 then Buffer.add_char buf (Char.chr cp)
  else if cp < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xC0 lor (cp lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end
  else if cp < 0x10000 then begin
    Buffer.add_char buf (Char.chr (0xE0 lor (cp lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xF0 lor (cp lsr 18)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 12) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end

let hex_value = function
  | '0' .. '9' as h -> Char.code h - 48
  | 'a' .. 'f' as h -> Char.code h - 87
  | 'A' .. 'F' as h -> Char.code h - 55
  | _ -> -1

(* The four hex digits after a [\u] already consumed. *)
let hex4 c =
  if c.pos + 4 > String.length c.text then fail "bad \\u escape";
  let v = ref 0 in
  for k = 0 to 3 do
    let h = hex_value (String.unsafe_get c.text (c.pos + k)) in
    if h < 0 then fail "bad \\u escape";
    v := (16 * !v) + h
  done;
  c.pos <- c.pos + 4;
  !v

(* The first index from [i] on holding a quote or a backslash, or the
   length of [text]. *)
let rec plain_end text i =
  if i = String.length text then i
  else
    match String.unsafe_get text i with
    | '"' | '\\' -> i
    | _ -> plain_end text (i + 1)

let unicode_escape c buf =
  let code = hex4 c in
  let code =
    if code >= 0xD800 && code <= 0xDBFF then begin
      (* High surrogate: RFC 8259 requires an escaped low surrogate right
         behind it. *)
      if
        c.pos + 2 <= String.length c.text
        && c.text.[c.pos] = '\\'
        && c.text.[c.pos + 1] = 'u'
      then begin
        c.pos <- c.pos + 2;
        let low = hex4 c in
        if low < 0xDC00 || low > 0xDFFF then
          fail "lone high surrogate in \\u escape"
        else 0x10000 + ((code - 0xD800) lsl 10) + (low - 0xDC00)
      end
      else fail "lone high surrogate in \\u escape"
    end
    else if code >= 0xDC00 && code <= 0xDFFF then
      fail "lone low surrogate in \\u escape"
    else code
  in
  add_utf8 buf code

(* The rest of a string body with escapes, into [buf]. *)
let rec string_rest c buf =
  if not (more c) then fail "unterminated string";
  match here c with
  | '"' ->
      c.pos <- c.pos + 1;
      Buffer.contents buf
  | '\\' ->
      c.pos <- c.pos + 1;
      let esc = if more c then here c else '\000' in
      (match esc with
      | 'n' -> Buffer.add_char buf '\n'
      | 'r' -> Buffer.add_char buf '\r'
      | 't' -> Buffer.add_char buf '\t'
      | '"' -> Buffer.add_char buf '"'
      | '\\' -> Buffer.add_char buf '\\'
      | 'u' -> ()
      | _ -> fail "bad escape");
      c.pos <- c.pos + 1;
      if esc = 'u' then unicode_escape c buf;
      string_rest c buf
  | _ ->
      let j = plain_end c.text c.pos in
      Buffer.add_substring buf c.text c.pos (j - c.pos);
      c.pos <- j;
      string_rest c buf

(* A string body after its opening quote: one copy when it holds no
   escape. *)
let parse_string_body c =
  let start = c.pos in
  let j = plain_end c.text start in
  if j < String.length c.text && String.unsafe_get c.text j = '"' then begin
    c.pos <- j + 1;
    String.sub c.text start (j - start)
  end
  else begin
    let buf = Buffer.create (j - start + 16) in
    Buffer.add_substring buf c.text start (j - start);
    c.pos <- j;
    string_rest c buf
  end

let rec digits_end text i =
  if i < String.length text && String.unsafe_get text i >= '0'
     && String.unsafe_get text i <= '9'
  then digits_end text (i + 1)
  else i

let rec digits_value text i stop acc =
  if i = stop then acc
  else digits_value text (i + 1) stop ((10 * acc) + Char.code text.[i] - 48)

(* Up to 18 digits cannot overflow and are read in place; anything else
   goes through [int_of_string_opt]. *)
let parse_number c =
  let start = c.pos in
  let first = if here c = '-' then start + 1 else start in
  let stop = digits_end c.text first in
  c.pos <- stop;
  if stop > first && stop - first <= 18 then begin
    let v = digits_value c.text first stop 0 in
    Int (if first > start then -v else v)
  end
  else
    let s = String.sub c.text start (stop - start) in
    match int_of_string_opt s with
    | Some v -> Int v
    | None -> fail ("bad number " ^ s)

let rec parse_value c =
  skip_ws c;
  if not (more c) then fail "empty input";
  match here c with
  | 'n' -> literal c "null" Null
  | 't' -> literal c "true" (Bool true)
  | 'f' -> literal c "false" (Bool false)
  | '"' ->
      c.pos <- c.pos + 1;
      Str (parse_string_body c)
  | '[' ->
      c.pos <- c.pos + 1;
      skip_ws c;
      if more c && here c = ']' then begin
        c.pos <- c.pos + 1;
        List []
      end
      else List (parse_items c [])
  | '{' ->
      c.pos <- c.pos + 1;
      skip_ws c;
      if more c && here c = '}' then begin
        c.pos <- c.pos + 1;
        Obj []
      end
      else Obj (parse_fields c [])
  | '-' | '0' .. '9' -> parse_number c
  | ch -> fail (Printf.sprintf "unexpected %c at %d" ch c.pos)

and parse_items c acc =
  let v = parse_value c in
  skip_ws c;
  match if more c then here c else '\000' with
  | ',' ->
      c.pos <- c.pos + 1;
      parse_items c (v :: acc)
  | ']' ->
      c.pos <- c.pos + 1;
      List.rev (v :: acc)
  | _ -> fail "expected , or ] in array"

and parse_fields c acc =
  skip_ws c;
  expect c '"';
  let name = parse_string_body c in
  skip_ws c;
  expect c ':';
  let v = parse_value c in
  skip_ws c;
  match if more c then here c else '\000' with
  | ',' ->
      c.pos <- c.pos + 1;
      parse_fields c ((name, v) :: acc)
  | '}' ->
      c.pos <- c.pos + 1;
      List.rev ((name, v) :: acc)
  | _ -> fail "expected , or } in object"

let parse text =
  let c = { text; pos = 0 } in
  let v = parse_value c in
  skip_ws c;
  if c.pos <> String.length text then fail "trailing garbage";
  v

let member name = function
  | Obj fields -> (
      match List.assoc_opt name fields with
      | Some v -> v
      | None -> raise Not_found)
  | _ -> raise Not_found

(* ---------------- sinks ---------------- *)

(* A document's shape is written once, as a walk into a sink: the
   writer prints it, the builder assembles it as a [t].  A builder keeps
   one frame per open container, its items in reverse. *)
type frame = {
  f_obj : bool;
  mutable f_key : string;  (* the key of an object's next value *)
  mutable f_fields : (string * t) list;
  mutable f_items : t list;
}

type builder = { mutable stack : frame list; mutable root : t }
type sink = Write of writer | Build of builder

let add_value b v =
  match b.stack with
  | [] -> b.root <- v
  | f :: _ ->
      if f.f_obj then f.f_fields <- (f.f_key, v) :: f.f_fields
      else f.f_items <- v :: f.f_items

let open_frame b obj =
  b.stack <- { f_obj = obj; f_key = ""; f_fields = []; f_items = [] } :: b.stack

let close_frame b =
  match b.stack with
  | f :: rest ->
      b.stack <- rest;
      add_value b
        (if f.f_obj then Obj (List.rev f.f_fields) else List (List.rev f.f_items))
  | [] -> invalid_arg "Json: close without open"

let obj_open = function Write w -> w_open w '{' | Build b -> open_frame b true
let obj_close = function Write w -> w_close w '}' | Build b -> close_frame b
let list_open = function Write w -> w_open w '[' | Build b -> open_frame b false
let list_close = function Write w -> w_close w ']' | Build b -> close_frame b

let key s k =
  match s with
  | Write w -> w_key w k
  | Build b -> ( match b.stack with f :: _ -> f.f_key <- k | [] -> ())

let int s i = match s with Write w -> w_int w i | Build b -> add_value b (Int i)
let str s x = match s with Write w -> w_str w x | Build b -> add_value b (Str x)

let bool s x =
  match s with
  | Write w -> w_literal w (if x then "true" else "false")
  | Build b -> add_value b (Bool x)

let build walk x =
  let b = { stack = []; root = Null } in
  walk (Build b) x;
  b.root

(* ---------------- encoders ---------------- *)

let of_schedule app schedule =
  List
    (Array.to_list schedule
    |> List.map (fun (e : Sched.Schedule.entry) ->
           let task = Rtlb.App.task app e.Sched.Schedule.e_task in
           Obj
             [
               ("task", Str task.Rtlb.Task.name);
               ("start", Int e.Sched.Schedule.e_start);
               ("finish", Int (Sched.Schedule.finish app e));
               ( "host",
                 Str
                   (match e.Sched.Schedule.e_host with
                   | Sched.Schedule.On_proc (p, k) -> Printf.sprintf "%s#%d" p k
                   | Sched.Schedule.On_node (n, k) -> Printf.sprintf "%s#%d" n k)
               );
               ( "resource_units",
                 List
                   (List.map
                      (fun (r, u) ->
                        Obj [ ("resource", Str r); ("unit", Int u) ])
                      e.Sched.Schedule.e_resource_units) );
             ]))

(* The walks below are the one definition of each document's shape. *)

let walk_stats s (st : Rtlb_obs.Stats.t) =
  obj_open s;
  key s "spans";
  list_open s;
  List.iter
    (fun (l : Rtlb_obs.Stats.span_line) ->
      obj_open s;
      key s "name";
      str s l.Rtlb_obs.Stats.sl_name;
      key s "count";
      int s l.Rtlb_obs.Stats.sl_count;
      key s "total_ns";
      int s (Int64.to_int l.Rtlb_obs.Stats.sl_total_ns);
      obj_close s)
    st.Rtlb_obs.Stats.spans;
  list_close s;
  key s "counters";
  obj_open s;
  List.iter
    (fun (n, v) ->
      key s n;
      int s v)
    st.Rtlb_obs.Stats.counters;
  obj_close s;
  key s "workers";
  list_open s;
  List.iter
    (fun (tid, chunks, items) ->
      obj_open s;
      key s "tid";
      int s tid;
      key s "chunks";
      int s chunks;
      key s "items";
      int s items;
      obj_close s)
    st.Rtlb_obs.Stats.workers;
  list_close s;
  obj_close s

let of_stats st = build walk_stats st

let rec task_names s app = function
  | [] -> ()
  | i :: rest ->
      str s (Rtlb.App.task app i).Rtlb.Task.name;
      task_names s app rest

let rec blocks s app = function
  | [] -> ()
  | block :: rest ->
      list_open s;
      task_names s app block;
      list_close s;
      blocks s app rest

let walk_bound s app (b : Rtlb.Lower_bound.bound) =
  obj_open s;
  key s "resource";
  str s b.Rtlb.Lower_bound.resource;
  key s "lb";
  int s b.Rtlb.Lower_bound.lb;
  key s "partition";
  list_open s;
  blocks s app b.Rtlb.Lower_bound.partition.Rtlb.Partition.blocks;
  list_close s;
  (match b.Rtlb.Lower_bound.witness with
  | None -> ()
  | Some w ->
      key s "witness";
      obj_open s;
      key s "t1";
      int s w.Rtlb.Lower_bound.w_t1;
      key s "t2";
      int s w.Rtlb.Lower_bound.w_t2;
      key s "theta";
      int s w.Rtlb.Lower_bound.w_theta;
      obj_close s);
  obj_close s

let walk_cost s = function
  | Rtlb.Cost.No_feasible_system e ->
      obj_open s;
      key s "model";
      str s "none";
      key s "error";
      str s e;
      obj_close s
  | Rtlb.Cost.Shared_cost { s_terms; s_cost } ->
      obj_open s;
      key s "model";
      str s "shared";
      key s "bound";
      int s s_cost;
      key s "terms";
      list_open s;
      List.iter
        (fun (r, c, lb) ->
          obj_open s;
          key s "resource";
          str s r;
          key s "unit_cost";
          int s c;
          key s "lb";
          int s lb;
          obj_close s)
        s_terms;
      list_close s;
      obj_close s
  | Rtlb.Cost.Dedicated_cost d ->
      obj_open s;
      key s "model";
      str s "dedicated";
      key s "bound";
      int s d.Rtlb.Cost.d_cost;
      key s "lp_relaxation";
      str s (Rat.to_string d.Rtlb.Cost.d_relaxed_cost);
      key s "nodes";
      obj_open s;
      List.iter
        (fun (n, x) ->
          key s n;
          int s x)
        d.Rtlb.Cost.d_counts;
      obj_close s;
      obj_close s

let walk_analysis ?stats s (a : Rtlb.Analysis.t) =
  let app = a.Rtlb.Analysis.app in
  let est = a.Rtlb.Analysis.windows.Rtlb.Est_lct.est
  and lct = a.Rtlb.Analysis.windows.Rtlb.Est_lct.lct in
  obj_open s;
  key s "tasks";
  int s (Rtlb.App.n_tasks app);
  key s "windows";
  list_open s;
  for i = 0 to Rtlb.App.n_tasks app - 1 do
    obj_open s;
    key s "task";
    str s (Rtlb.App.task app i).Rtlb.Task.name;
    key s "est";
    int s est.(i);
    key s "lct";
    int s lct.(i);
    obj_close s
  done;
  list_close s;
  key s "bounds";
  list_open s;
  List.iter (walk_bound s app) a.Rtlb.Analysis.bounds;
  list_close s;
  key s "cost";
  walk_cost s a.Rtlb.Analysis.cost;
  key s "feasible_windows";
  bool s (Result.is_ok (Rtlb.Est_lct.feasible_windows app a.Rtlb.Analysis.windows));
  key s "partial";
  bool s (Rtlb.Analysis.is_partial a);
  (* Coverage only when partial: its value is timing-dependent, and
     omitting it keeps complete outputs byte-deterministic. *)
  if Rtlb.Analysis.is_partial a then begin
    key s "coverage_percent";
    int s (int_of_float (Float.round (100.0 *. Rtlb.Analysis.coverage a)))
  end;
  (* Observability summary, only when the caller traced the run. *)
  (match stats with
  | None -> ()
  | Some st ->
      key s "stats";
      walk_stats s st);
  obj_close s

let of_analysis ?stats a = build (walk_analysis ?stats) a

let output_analysis ?stats oc a =
  let w = writer ~oc ~indent:true chunk in
  walk_analysis ?stats (Write w) a;
  flush_writer w

(* What-if output shared by `rtlb whatif --json` and the serve daemon's
   [whatif] op: per-resource bound deltas against the cached base
   analysis plus the full edited analysis (whose own ["partial"] flag
   carries budget expiry), so a served reply and the one-shot CLI are
   byte-comparable. *)
let of_whatif ~(base : Rtlb.Analysis.t) ~(edited : Rtlb.Analysis.t) =
  let lb_list (a : Rtlb.Analysis.t) =
    List.map
      (fun (b : Rtlb.Lower_bound.bound) ->
        (b.Rtlb.Lower_bound.resource, b.Rtlb.Lower_bound.lb))
      a.Rtlb.Analysis.bounds
  in
  let deltas =
    List.map2
      (fun (r, lb) (_, lb') ->
        Obj
          [
            ("resource", Str r);
            ("base_lb", Int lb);
            ("lb", Int lb');
            ("delta", Int (lb' - lb));
          ])
      (lb_list base) (lb_list edited)
  in
  Obj
    [
      ("deltas", List deltas);
      ("partial", Bool (Rtlb.Analysis.is_partial edited));
      ("edited", of_analysis edited);
    ]
