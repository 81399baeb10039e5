(* The JSON printer as it was before the escape fast path and the shared
   indentation string: the reference the current Rtfmt.Json.to_string is
   checked against byte for byte (test_json).  Kept verbatim. *)

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
