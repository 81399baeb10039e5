(* The result line and the metadata around it, as JSON. *)

type v =
  | F of float
  | I of int
  | S of string
  | B of bool
  | L of v list
  | O of (string * v) list

let rec to_string = function
  | F f when Float.is_finite f -> Printf.sprintf "%.17g" f
  | F _ -> "null"
  | I i -> string_of_int i
  | S s -> Rtfmt.Json.to_string (Rtfmt.Json.Str s)
  | B b -> string_of_bool b
  | L l -> "[" ^ String.concat "," (List.map to_string l) ^ "]"
  | O fields ->
      "{"
      ^ String.concat ","
          (List.map
             (fun (k, v) -> Rtfmt.Json.to_string (Rtfmt.Json.Str k) ^ ":" ^ to_string v)
             fields)
      ^ "}"

type metric = { name : string; value : float; unit_ : string }

let metric name unit_ value = { name; value; unit_ }

let metrics_json ms =
  O (List.map (fun m -> (m.name, O [ ("value", F m.value); ("unit", S m.unit_) ])) ms)

let result_line ~correct ~attempted ~failed ms =
  to_string
    (O
       [
         ("correct", B correct);
         ("attempted", I attempted);
         ("failed", I failed);
         ("metrics", metrics_json ms);
       ])
