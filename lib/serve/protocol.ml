(* JSON-lines request/reply protocol for the bound-query daemon.

   One request per line, one reply per line; replies carry the
   request's "id" verbatim so clients may pipeline out of order.  Every
   failure is a structured error object with a stable S3xx code —
   the service-level counterpart of the E100–E106 validation codes
   (docs/ROBUSTNESS.md documents the full table). *)

module Json = Rtfmt.Json

type op = Analyze | Whatif | Sensitivity | Check | Ping | Stats | Health

let op_name = function
  | Analyze -> "analyze"
  | Whatif -> "whatif"
  | Sensitivity -> "sensitivity"
  | Check -> "check"
  | Ping -> "ping"
  | Stats -> "stats"
  | Health -> "health"

let op_of_name = function
  | "analyze" -> Some Analyze
  | "whatif" -> Some Whatif
  | "sensitivity" -> Some Sensitivity
  | "check" -> Some Check
  | "ping" -> Some Ping
  | "stats" -> Some Stats
  | "health" -> Some Health
  | _ -> None

type code =
  | Bad_frame
  | Bad_request
  | Invalid_app
  | Overloaded
  | Deadline_expired
  | Internal
  | Draining
  | Quota_exceeded
  | Circuit_open

let code_id = function
  | Bad_frame -> "S300"
  | Bad_request -> "S301"
  | Invalid_app -> "S302"
  | Overloaded -> "S303"
  | Deadline_expired -> "S304"
  | Internal -> "S305"
  | Draining -> "S306"
  | Quota_exceeded -> "S307"
  | Circuit_open -> "S308"

let code_name = function
  | Bad_frame -> "bad_frame"
  | Bad_request -> "bad_request"
  | Invalid_app -> "invalid_app"
  | Overloaded -> "overloaded"
  | Deadline_expired -> "deadline_expired"
  | Internal -> "internal"
  | Draining -> "draining"
  | Quota_exceeded -> "quota_exceeded"
  | Circuit_open -> "circuit_open"

let all_codes =
  [
    Bad_frame; Bad_request; Invalid_app; Overloaded; Deadline_expired;
    Internal; Draining; Quota_exceeded; Circuit_open;
  ]

let code_of_id id = List.find_opt (fun c -> code_id c = id) all_codes

exception Reject of code * string

type priority = High | Low

let priority_name = function High -> "high" | Low -> "low"

type request = {
  id : Json.t;  (** Echoed verbatim in the reply; [Null] when absent. *)
  op : op;
  app : string;  (** Application file text (the {!Rtfmt.Appfile} format). *)
  deadline_ms : int option;
  tenant : string option;  (** Quota key; anonymous when absent. *)
  priority : priority option;  (** [None]: the server decides. *)
  edits : Rtlb.Incremental.edit list;  (** [whatif] only. *)
  factors : float list;  (** [sensitivity] only. *)
}

(* ---- request parsing -------------------------------------------- *)

let fail fmt = Printf.ksprintf (fun m -> raise (Reject (Bad_request, m))) fmt

let parse_edit j =
  match j with
  | Json.Obj fields ->
      let task =
        match List.assoc_opt "task" fields with
        | Some (Json.Int t) when t >= 0 -> t
        | Some _ -> fail "edit field \"task\" must be a non-negative integer"
        | None -> fail "edit is missing required field \"task\""
      in
      let value name =
        match List.assoc_opt name fields with
        | Some (Json.Int v) -> Some v
        | Some _ -> fail "edit field %S must be an integer" name
        | None -> None
      in
      List.iter
        (fun (k, _) ->
          match k with
          | "task" | "release" | "deadline" | "compute" -> ()
          | other -> fail "unknown edit field %S" other)
        fields;
      let edits =
        List.filter_map Fun.id
          [
            Option.map
              (fun release -> Rtlb.Incremental.Set_release { task; release })
              (value "release");
            Option.map
              (fun deadline -> Rtlb.Incremental.Set_deadline { task; deadline })
              (value "deadline");
            Option.map
              (fun compute -> Rtlb.Incremental.Set_compute { task; compute })
              (value "compute");
          ]
      in
      if edits = [] then
        fail "edit for task %d needs one of \"release\", \"deadline\", \"compute\""
          task;
      edits
  | _ -> fail "\"edits\" elements must be objects"

let parse_factor j =
  let of_string s =
    match float_of_string_opt s with
    | Some f when Float.is_finite f && f > 0.0 -> f
    | _ -> fail "factor %S is not a positive finite number" s
  in
  match j with
  | Json.Str s -> of_string s
  | Json.Int i when i > 0 -> float_of_int i
  | Json.Int i -> fail "factor %d is not positive" i
  | _ -> fail "\"factors\" elements must be numbers or numeric strings"

let request_of_json j =
  try
    let fields =
      match j with
      | Json.Obj fields -> fields
      | _ -> fail "request frame must be a JSON object"
    in
    List.iter
      (fun (k, _) ->
        match k with
        | "id" | "op" | "app" | "engine" | "deadline_ms" | "tenant"
        | "priority" | "edits" | "factors" ->
            ()
        | other -> fail "unknown request field %S" other)
      fields;
    let id = Option.value ~default:Json.Null (List.assoc_opt "id" fields) in
    let op =
      match List.assoc_opt "op" fields with
      | Some (Json.Str name) -> (
          match op_of_name name with
          | Some op -> op
          | None -> fail "unknown op %S" name)
      | Some _ -> fail "\"op\" must be a string"
      | None -> fail "request is missing required field \"op\""
    in
    let app =
      match (op, List.assoc_opt "app" fields) with
      | (Ping | Stats | Health), None -> ""
      | (Ping | Stats | Health), Some _ ->
          fail "op %S takes no \"app\"" (op_name op)
      | _, Some (Json.Str text) -> text
      | _, Some _ -> fail "\"app\" must be a string (application file text)"
      | _, None -> fail "op %S requires field \"app\"" (op_name op)
    in
    (* deprecated: every request runs the one engine; the two names an
       older client may send are accepted and ignored *)
    (match List.assoc_opt "engine" fields with
    | Some (Json.Str ("record" | "soa")) | None -> ()
    | Some (Json.Str other) ->
        fail "unknown engine %S (expected \"record\" or \"soa\")" other
    | Some _ -> fail "\"engine\" must be a string");
    let deadline_ms =
      match List.assoc_opt "deadline_ms" fields with
      | Some (Json.Int ms) when ms >= 0 -> Some ms
      | Some _ -> fail "\"deadline_ms\" must be a non-negative integer"
      | None -> None
    in
    let tenant =
      match List.assoc_opt "tenant" fields with
      | Some (Json.Str "") -> fail "\"tenant\" must not be empty"
      | Some (Json.Str name) -> Some name
      | Some _ -> fail "\"tenant\" must be a string"
      | None -> None
    in
    let priority =
      match List.assoc_opt "priority" fields with
      | Some (Json.Str "high") -> Some High
      | Some (Json.Str "low") -> Some Low
      | Some (Json.Str other) ->
          fail "unknown priority %S (expected \"high\" or \"low\")" other
      | Some _ -> fail "\"priority\" must be a string"
      | None -> None
    in
    let edits =
      match (op, List.assoc_opt "edits" fields) with
      | Whatif, Some (Json.List l) when l <> [] ->
          List.concat_map parse_edit l
      | Whatif, Some (Json.List []) -> fail "\"edits\" must not be empty"
      | Whatif, Some _ -> fail "\"edits\" must be a list of edit objects"
      | Whatif, None -> fail "op \"whatif\" requires field \"edits\""
      | _, Some _ -> fail "op %S takes no \"edits\"" (op_name op)
      | _, None -> []
    in
    let factors =
      match (op, List.assoc_opt "factors" fields) with
      | Sensitivity, Some (Json.List l) when l <> [] ->
          List.map parse_factor l
      | Sensitivity, Some (Json.List []) -> fail "\"factors\" must not be empty"
      | Sensitivity, Some _ -> fail "\"factors\" must be a list"
      | Sensitivity, None -> fail "op \"sensitivity\" requires field \"factors\""
      | _, Some _ -> fail "op %S takes no \"factors\"" (op_name op)
      | _, None -> []
    in
    Ok { id; op; app; deadline_ms; tenant; priority; edits; factors }
  with Reject (_, msg) -> Error msg

(* ---- replies ----------------------------------------------------- *)

let error_reply ~id code ?retry_after_ms msg =
  Json.Obj
    [
      ("id", id);
      ("ok", Json.Bool false);
      ( "error",
        Json.Obj
          ([
             ("code", Json.Str (code_id code));
             ("name", Json.Str (code_name code));
             ("message", Json.Str msg);
           ]
          @
          match retry_after_ms with
          | Some ms -> [ ("retry_after_ms", Json.Int ms) ]
          | None -> []) );
    ]

let ok_reply ~id ~op ?(degraded = false) result =
  Json.Obj
    ([ ("id", id); ("ok", Json.Bool true); ("op", Json.Str (op_name op)) ]
    @ (if degraded then [ ("degraded", Json.Bool true) ] else [])
    @ [ ("result", result) ])

let json_of_sample (s : Rtlb.Sensitivity.sample) =
  Json.Obj
    [
      ("factor", Json.Str (Printf.sprintf "%.12g" s.Rtlb.Sensitivity.s_factor));
      ("feasible", Json.Bool s.Rtlb.Sensitivity.s_feasible);
      ( "bounds",
        Json.List
          (List.map
             (fun (r, lb) ->
               Json.Obj [ ("resource", Json.Str r); ("lb", Json.Int lb) ])
             s.Rtlb.Sensitivity.s_bounds) );
      ( "shared_cost",
        match s.Rtlb.Sensitivity.s_shared_cost with
        | Some c -> Json.Int c
        | None -> Json.Null );
      ("partial", Json.Bool s.Rtlb.Sensitivity.s_partial);
    ]

let json_of_diag (d : Rtlb.Validate.diag) =
  Json.Obj
    [
      ("code", Json.Str d.Rtlb.Validate.d_code);
      ( "severity",
        Json.Str
          (match d.Rtlb.Validate.d_severity with
          | Rtlb.Validate.Error -> "error"
          | Rtlb.Validate.Warning -> "warning") );
      ("subject", Json.Str d.Rtlb.Validate.d_subject);
      ("message", Json.Str d.Rtlb.Validate.d_message);
      ( "line",
        match d.Rtlb.Validate.d_line with
        | Some l -> Json.Int l
        | None -> Json.Null );
    ]

let to_line j = Json.to_string ~indent:false j
