type severity = Error | Warning

type diag = {
  d_code : string;
  d_severity : severity;
  d_subject : string;
  d_message : string;
  d_line : int option;
}

let errors diags = List.filter (fun d -> d.d_severity = Error) diags
let has_errors diags = List.exists (fun d -> d.d_severity = Error) diags

let to_string ?file d =
  let body = Printf.sprintf "%s %s: %s" d.d_code d.d_subject d.d_message in
  match (file, d.d_line) with
  | Some f, Some l -> Printf.sprintf "%s:%d: %s" f l body
  | Some f, None -> Printf.sprintf "%s: %s" f body
  | None, Some l -> Printf.sprintf "line %d: %s" l body
  | None, None -> body

let pp_diag ppf d = Format.pp_print_string ppf (to_string d)

(* Diagnostics are accumulated in pass order, then stably sorted by
   source line so the output reads like compiler errors; diagnostics
   without a line sink to the end. *)
let by_line diags =
  List.stable_sort
    (fun a b ->
      let key d = match d.d_line with Some l -> l | None -> max_int in
      compare (key a) (key b))
    diags

(* The E102/W203 window diagnostics of an instance the analysis can
   take, from the windows of the packed sweep. *)
let window_diagnostics ~line_of ~system app =
  let { Windows.est; lct } = Analysis.windows system app in
  let cols = App.columns app in
  let acc = ref [] in
  Array.iteri
    (fun i name ->
      let e = est.(i) and l = lct.(i) and c = cols.App.compute.(i) in
      if e + c > l then
        acc :=
          {
            d_code = "E102";
            d_severity = Error;
            d_subject = "task " ^ name;
            d_message =
              Printf.sprintf
                "EST/LCT window [%d, %d] cannot hold compute %d \
                 (infeasible on every system of this model)"
                e l c;
            d_line = line_of i;
          }
          :: !acc
      else if c > 0 && e + c = l then
        acc :=
          {
            d_code = "W203";
            d_severity = Warning;
            d_subject = "task " ^ name;
            d_message =
              Printf.sprintf
                "zero slack: EST/LCT window [%d, %d] exactly holds \
                 compute %d"
                e l c;
            d_line = line_of i;
          }
          :: !acc)
    cols.App.names;
  by_line (List.rev !acc)

let application_error code e =
  {
    d_code = code;
    d_severity = Error;
    d_subject = "application";
    d_message = e;
    d_line = None;
  }

let check_windows ?(line_of = fun _ -> None) ~system app =
  match System.validate_for system app with
  | Error e -> [ application_error "E103" e ]
  | Ok () -> (
      match App.check_range app with
      | Error e -> [ application_error "E104" e ]
      | Ok () -> window_diagnostics ~line_of ~system app)
