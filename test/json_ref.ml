(* The JSON printer as it was before the escape fast path and the shared
   indentation string: the reference the current Rtfmt.Json.to_string is
   checked against byte for byte (test_json).  Kept verbatim.

   The parser at the end, which peeked one [char option] per byte and
   built every string body a byte at a time, is kept verbatim too (it
   raises the library's [Parse_error], opened above): the reference the
   index-based Rtfmt.Json.parse is checked against, value for value and
   error message for error message. *)

open Rtfmt.Json

let escape s =
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

let to_string ?(indent = true) t =
  let buf = Buffer.create 256 in
  let pad depth = if indent then Buffer.add_string buf (String.make (2 * depth) ' ') in
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
  go 0 t;
  Buffer.contents buf

(* ---------------- parsing ---------------- *)

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
