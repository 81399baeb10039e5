type t =
  | Null
  | Bool of bool
  | Int of int
  | Str of string
  | List of t list
  | Obj of (string * t) list

(* ---------------- printing ---------------- *)

let needs_escape c = c = '"' || c = '\\' || Char.code c < 0x20

(* Most strings (task and resource names, field keys) need no escape:
   those are returned as they are, without a copy. *)
let escape s =
  if not (String.exists needs_escape s) then s
  else begin
    let buf = Buffer.create (String.length s + 2) in
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\r' -> Buffer.add_string buf "\\r"
        | '\t' -> Buffer.add_string buf "\\t"
        | c when Char.code c < 0x20 ->
            Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s;
    Buffer.contents buf
  end

(* Indentation is sliced from one shared string of spaces. *)
let spaces = String.make 64 ' '

let rec add_spaces buf n =
  if n > 0 then begin
    let k = min n (String.length spaces) in
    Buffer.add_substring buf spaces 0 k;
    add_spaces buf (n - k)
  end

(* The one printer: [t] into [buf], handing [buf] to [flush] whenever it
   holds [limit] bytes or more between two values. *)
let print ~indent ~limit ~flush buf t =
  let pad depth = if indent then add_spaces buf (2 * depth) in
  let nl () = if indent then Buffer.add_char buf '\n' in
  let rec go depth = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (string_of_bool b)
    | Int i -> Buffer.add_string buf (string_of_int i)
    | Str s ->
        Buffer.add_char buf '"';
        Buffer.add_string buf (escape s);
        Buffer.add_char buf '"'
    | List [] -> Buffer.add_string buf "[]"
    | List items ->
        Buffer.add_char buf '[';
        nl ();
        List.iteri
          (fun k item ->
            if k > 0 then begin
              Buffer.add_char buf ',';
              nl ()
            end;
            if Buffer.length buf >= limit then flush buf;
            pad (depth + 1);
            go (depth + 1) item)
          items;
        nl ();
        pad depth;
        Buffer.add_char buf ']'
    | Obj [] -> Buffer.add_string buf "{}"
    | Obj fields ->
        Buffer.add_char buf '{';
        nl ();
        List.iteri
          (fun k (name, value) ->
            if k > 0 then begin
              Buffer.add_char buf ',';
              nl ()
            end;
            if Buffer.length buf >= limit then flush buf;
            pad (depth + 1);
            Buffer.add_char buf '"';
            Buffer.add_string buf (escape name);
            Buffer.add_string buf "\": ";
            go (depth + 1) value)
          fields;
        nl ();
        pad depth;
        Buffer.add_char buf '}'
  in
  go 0 t

let to_string ?(indent = true) t =
  let buf = Buffer.create 256 in
  print ~indent ~limit:max_int ~flush:ignore buf t;
  Buffer.contents buf

(* Bytes [output] holds back before writing them to its channel. *)
let chunk = 65536

let output ?(indent = true) oc t =
  let buf = Buffer.create (2 * chunk) in
  let flush buf =
    Buffer.output_buffer oc buf;
    Buffer.clear buf
  in
  print ~indent ~limit:chunk ~flush buf t;
  flush buf

(* ---------------- parsing ---------------- *)

exception Parse_error of string

type cursor = { text : string; mutable pos : int }

let fail msg = raise (Parse_error msg)

let peek c = if c.pos < String.length c.text then Some c.text.[c.pos] else None

let advance c = c.pos <- c.pos + 1

let rec skip_ws c =
  match peek c with
  | Some (' ' | '\t' | '\n' | '\r') ->
      advance c;
      skip_ws c
  | _ -> ()

let expect c ch =
  match peek c with
  | Some x when x = ch -> advance c
  | Some x -> fail (Printf.sprintf "expected %c, found %c at %d" ch x c.pos)
  | None -> fail (Printf.sprintf "expected %c, found end of input" ch)

let literal c word value =
  let n = String.length word in
  if
    c.pos + n <= String.length c.text
    && String.sub c.text c.pos n = word
  then begin
    c.pos <- c.pos + n;
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

let is_hex_digit = function
  | '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> true
  | _ -> false

let parse_string_body c =
  let buf = Buffer.create 16 in
  (* The four hex digits after a [\u] already consumed by the caller. *)
  let hex4 () =
    if c.pos + 4 > String.length c.text then fail "bad \\u escape";
    let hex = String.sub c.text c.pos 4 in
    if not (String.for_all is_hex_digit hex) then fail "bad \\u escape";
    c.pos <- c.pos + 4;
    int_of_string ("0x" ^ hex)
  in
  let rec go () =
    match peek c with
    | None -> fail "unterminated string"
    | Some '"' -> advance c
    | Some '\\' -> (
        advance c;
        match peek c with
        | Some 'n' -> advance c; Buffer.add_char buf '\n'; go ()
        | Some 'r' -> advance c; Buffer.add_char buf '\r'; go ()
        | Some 't' -> advance c; Buffer.add_char buf '\t'; go ()
        | Some '"' -> advance c; Buffer.add_char buf '"'; go ()
        | Some '\\' -> advance c; Buffer.add_char buf '\\'; go ()
        | Some 'u' ->
            advance c;
            let code = hex4 () in
            let code =
              if code >= 0xD800 && code <= 0xDBFF then begin
                (* High surrogate: RFC 8259 requires an escaped low
                   surrogate right behind it. *)
                if
                  c.pos + 2 <= String.length c.text
                  && c.text.[c.pos] = '\\'
                  && c.text.[c.pos + 1] = 'u'
                then begin
                  c.pos <- c.pos + 2;
                  let low = hex4 () in
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
            add_utf8 buf code;
            go ()
        | _ -> fail "bad escape")
    | Some ch ->
        advance c;
        Buffer.add_char buf ch;
        go ()
  in
  go ();
  Buffer.contents buf

let rec parse_value c =
  skip_ws c;
  match peek c with
  | None -> fail "empty input"
  | Some 'n' -> literal c "null" Null
  | Some 't' -> literal c "true" (Bool true)
  | Some 'f' -> literal c "false" (Bool false)
  | Some '"' ->
      advance c;
      Str (parse_string_body c)
  | Some '[' ->
      advance c;
      skip_ws c;
      if peek c = Some ']' then begin
        advance c;
        List []
      end
      else begin
        let rec items acc =
          let v = parse_value c in
          skip_ws c;
          match peek c with
          | Some ',' ->
              advance c;
              items (v :: acc)
          | Some ']' ->
              advance c;
              List.rev (v :: acc)
          | _ -> fail "expected , or ] in array"
        in
        List (items [])
      end
  | Some '{' ->
      advance c;
      skip_ws c;
      if peek c = Some '}' then begin
        advance c;
        Obj []
      end
      else begin
        let field () =
          skip_ws c;
          expect c '"';
          let name = parse_string_body c in
          skip_ws c;
          expect c ':';
          let v = parse_value c in
          (name, v)
        in
        let rec fields acc =
          let f = field () in
          skip_ws c;
          match peek c with
          | Some ',' ->
              advance c;
              fields (f :: acc)
          | Some '}' ->
              advance c;
              List.rev (f :: acc)
          | _ -> fail "expected , or } in object"
        in
        Obj (fields [])
      end
  | Some ('-' | '0' .. '9') ->
      let start = c.pos in
      if peek c = Some '-' then advance c;
      let rec digits () =
        match peek c with
        | Some '0' .. '9' ->
            advance c;
            digits ()
        | _ -> ()
      in
      digits ();
      let s = String.sub c.text start (c.pos - start) in
      (match int_of_string_opt s with
      | Some v -> Int v
      | None -> fail ("bad number " ^ s))
  | Some ch -> fail (Printf.sprintf "unexpected %c at %d" ch c.pos)

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

let of_stats (s : Rtlb_obs.Stats.t) =
  Obj
    [
      ( "spans",
        List
          (List.map
             (fun (l : Rtlb_obs.Stats.span_line) ->
               Obj
                 [
                   ("name", Str l.Rtlb_obs.Stats.sl_name);
                   ("count", Int l.Rtlb_obs.Stats.sl_count);
                   ( "total_ns",
                     Int (Int64.to_int l.Rtlb_obs.Stats.sl_total_ns) );
                 ])
             s.Rtlb_obs.Stats.spans) );
      ( "counters",
        Obj
          (List.map (fun (n, v) -> (n, Int v)) s.Rtlb_obs.Stats.counters) );
      ( "workers",
        List
          (List.map
             (fun (tid, chunks, items) ->
               Obj
                 [
                   ("tid", Int tid);
                   ("chunks", Int chunks);
                   ("items", Int items);
                 ])
             s.Rtlb_obs.Stats.workers) );
    ]

let of_analysis ?stats (a : Rtlb.Analysis.t) =
  let windows =
    List
      (Array.to_list (Rtlb.App.tasks a.Rtlb.Analysis.app)
      |> List.map (fun (task : Rtlb.Task.t) ->
             let i = task.Rtlb.Task.id in
             Obj
               [
                 ("task", Str task.Rtlb.Task.name);
                 ("est", Int a.Rtlb.Analysis.windows.Rtlb.Est_lct.est.(i));
                 ("lct", Int a.Rtlb.Analysis.windows.Rtlb.Est_lct.lct.(i));
               ]))
  in
  let name i = (Rtlb.App.task a.Rtlb.Analysis.app i).Rtlb.Task.name in
  let bounds =
    List
      (List.map
         (fun (b : Rtlb.Lower_bound.bound) ->
           Obj
             ([
                ("resource", Str b.Rtlb.Lower_bound.resource);
                ("lb", Int b.Rtlb.Lower_bound.lb);
                ( "partition",
                  List
                    (List.map
                       (fun block -> List (List.map (fun i -> Str (name i)) block))
                       b.Rtlb.Lower_bound.partition.Rtlb.Partition.blocks) );
              ]
             @
             match b.Rtlb.Lower_bound.witness with
             | None -> []
             | Some w ->
                 [
                   ( "witness",
                     Obj
                       [
                         ("t1", Int w.Rtlb.Lower_bound.w_t1);
                         ("t2", Int w.Rtlb.Lower_bound.w_t2);
                         ("theta", Int w.Rtlb.Lower_bound.w_theta);
                       ] );
                 ]))
         a.Rtlb.Analysis.bounds)
  in
  let cost =
    match a.Rtlb.Analysis.cost with
    | Rtlb.Cost.No_feasible_system e ->
        Obj [ ("model", Str "none"); ("error", Str e) ]
    | Rtlb.Cost.Shared_cost { s_terms; s_cost } ->
        Obj
          [
            ("model", Str "shared");
            ("bound", Int s_cost);
            ( "terms",
              List
                (List.map
                   (fun (r, c, lb) ->
                     Obj [ ("resource", Str r); ("unit_cost", Int c); ("lb", Int lb) ])
                   s_terms) );
          ]
    | Rtlb.Cost.Dedicated_cost d ->
        Obj
          [
            ("model", Str "dedicated");
            ("bound", Int d.Rtlb.Cost.d_cost);
            ("lp_relaxation", Str (Rat.to_string d.Rtlb.Cost.d_relaxed_cost));
            ( "nodes",
              Obj (List.map (fun (n, x) -> (n, Int x)) d.Rtlb.Cost.d_counts) );
          ]
  in
  Obj
    ([
       ("tasks", Int (Rtlb.App.n_tasks a.Rtlb.Analysis.app));
       ("windows", windows);
       ("bounds", bounds);
       ("cost", cost);
       ( "feasible_windows",
         Bool
           (match
              Rtlb.Est_lct.feasible_windows a.Rtlb.Analysis.app
                a.Rtlb.Analysis.windows
            with
           | Ok () -> true
           | Error _ -> false) );
       ("partial", Bool (Rtlb.Analysis.is_partial a));
     ]
    @
    (* Coverage only when partial: its value is timing-dependent, and
       omitting it keeps complete outputs byte-deterministic. *)
    (if Rtlb.Analysis.is_partial a then
       [
         ( "coverage_percent",
           Int
             (int_of_float
                (Float.round (100.0 *. Rtlb.Analysis.coverage a))) );
       ]
     else [])
    @
    (* Observability summary, only when the caller traced the run. *)
    match stats with None -> [] | Some s -> [ ("stats", of_stats s) ])

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
