(* The record oracle: the four-step analysis composed from the per-task
   record modules — the Est_lct merge search, the exhaustive
   Lower_bound scan and Cost — exactly as Analysis.run ran it before the
   packed engine became its body.  Every engine and entry point
   (Analysis.run, Incremental handles of both engines, serve replies) is
   checked against this one reference, so no property compares the
   packed engine with itself.

   [run] is the former Analysis.run body, verbatim but for the module
   path of the result record. *)

open Rtlb

let run ?pool ?deadline_ns ?tracer system app =
  let tr = Option.value tracer ~default:Rtlb_obs.Tracer.null in
  Rtlb_obs.Tracer.with_span tr "analyze" (fun () ->
      (match System.validate_for system app with
      | Ok () -> ()
      | Error e -> invalid_arg ("Analysis.run: " ^ e));
      let windows =
        Rtlb_obs.Tracer.with_span tr "est_lct" (fun () ->
            Est_lct.compute system app)
      in
      let est = windows.Est_lct.est and lct = windows.Est_lct.lct in
      let bounds, completeness =
        Rtlb_obs.Tracer.with_span tr "lower_bounds" (fun () ->
            Lower_bound.all_within ?pool ?deadline_ns ?tracer ~est ~lct app)
      in
      let cost =
        Rtlb_obs.Tracer.with_span tr "cost" (fun () ->
            Cost.compute system app bounds)
      in
      { Analysis.app; system; windows; bounds; cost; completeness })

let bound_equal (a : Lower_bound.bound) (b : Lower_bound.bound) =
  a.Lower_bound.resource = b.Lower_bound.resource
  && a.Lower_bound.lb = b.Lower_bound.lb
  && a.Lower_bound.witness = b.Lower_bound.witness
  && a.Lower_bound.partition = b.Lower_bound.partition

(* Everything except merge sets and traces, which the packed engine
   leaves empty. *)
let values_identical (a : Analysis.t) (b : Analysis.t) =
  a.Analysis.windows.Est_lct.est = b.Analysis.windows.Est_lct.est
  && a.Analysis.windows.Est_lct.lct = b.Analysis.windows.Est_lct.lct
  && List.length a.Analysis.bounds = List.length b.Analysis.bounds
  && List.for_all2 bound_equal a.Analysis.bounds b.Analysis.bounds
  && a.Analysis.cost = b.Analysis.cost
  && a.Analysis.completeness = b.Analysis.completeness
