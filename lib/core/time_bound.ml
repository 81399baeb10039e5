type t = {
  tb_omega : int;
  tb_bounds : (string * int) list;
  tb_binding : string list;
}

let with_omega app omega =
  App.map_tasks app ~f:(fun task -> Task.with_deadline task omega)

(* Bounds of the app when everything must finish by [omega]; None when the
   windows are already infeasible. *)
let bounds_at system app omega =
  let scaled = with_omega app omega in
  let windows = Est_lct.compute system scaled in
  match Windows.feasible scaled (Est_lct.windows windows) with
  | Error _ -> None
  | Ok () ->
      Some
        (Lower_bound.all ~est:windows.Est_lct.est ~lct:windows.Est_lct.lct
           scaled)

let fits ~capacity bounds =
  List.for_all
    (fun (b : Lower_bound.bound) ->
      b.Lower_bound.lb <= capacity b.Lower_bound.resource)
    bounds

let minimum_completion_time system app ~capacity =
  let used = App.resource_set app in
  if
    List.exists
      (fun r -> capacity r <= 0 && App.total_work app r > 0)
      used
  then None
  else begin
    (* The earliest conceivable target: everything below is window-
       infeasible or capacity-violating anyway. *)
    let floor_ =
      Array.fold_left
        (fun acc (task : Task.t) ->
          max acc (task.Task.release + task.Task.compute))
        1 (App.tasks app)
    in
    let passes omega =
      match bounds_at system app omega with
      | None -> false
      | Some bounds -> fits ~capacity bounds
    in
    (* Exponential climb to a passing omega, then binary search. *)
    let rec climb omega =
      if passes omega then omega
      else climb (max (omega + 1) (omega * 2))
    in
    let hi = climb floor_ in
    let rec bisect lo hi =
      (* invariant: passes hi, not passes (lo) or lo = floor_ - 1 *)
      if lo + 1 >= hi then hi
      else
        let mid = (lo + hi) / 2 in
        if passes mid then bisect lo mid else bisect mid hi
    in
    let omega =
      if passes floor_ then floor_ else bisect (floor_ - 1) hi
    in
    (* Walk down through any finite-point non-monotonicity. *)
    let rec settle omega =
      if omega > floor_ && passes (omega - 1) then settle (omega - 1)
      else omega
    in
    let omega = settle omega in
    let bounds = Option.get (bounds_at system app omega) in
    let binding =
      if omega = floor_ then []
      else
        match bounds_at system app (omega - 1) with
        | None -> []
        | Some previous ->
            List.filter_map
              (fun (b : Lower_bound.bound) ->
                if b.Lower_bound.lb > capacity b.Lower_bound.resource then
                  Some b.Lower_bound.resource
                else None)
              previous
    in
    Some
      {
        tb_omega = omega;
        tb_bounds =
          List.map
            (fun (b : Lower_bound.bound) ->
              (b.Lower_bound.resource, b.Lower_bound.lb))
            bounds;
        tb_binding = binding;
      }
  end
