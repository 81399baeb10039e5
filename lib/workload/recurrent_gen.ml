type deadline_model = Implicit | Constrained of float | Arbitrary of float

type config = {
  seed : int;
  tasks : int;
  shape : Gen.shape;
  vertices : int;
  wcet_range : int * int;
  period_stretch : float;
  deadline_model : deadline_model;
  snap_periods : bool;
}

let default =
  {
    seed = 1;
    tasks = 3;
    shape = Gen.Layered { layers = 3; density = 0.5 };
    vertices = 8;
    wcet_range = (1, 9);
    period_stretch = 2.0;
    deadline_model = Implicit;
    snap_periods = true;
  }

(* Round up to the next grid value 2^k or 3*2^k, so any set of snapped
   periods has lcm at most [3 * max period] and unrolled hyperperiods
   stay small — the property tests and the differential harness depend
   on bounded horizons. *)
let snap p =
  if p <= 1 then 1
  else begin
    let best = ref max_int in
    let consider g = if g >= p && g < !best then best := g in
    let g = ref 1 in
    while !g < p && !g <= max_int / 2 do
      g := !g * 2
    done;
    consider !g;
    let g = ref 3 in
    while !g < p && !g <= max_int / 2 do
      g := !g * 2
    done;
    consider !g;
    !best
  end

let deadline_of model ~period ~max_wcet =
  match model with
  | Implicit -> period
  | Constrained f ->
      let d = int_of_float (ceil (f *. float_of_int period)) in
      min period (max max_wcet (max 1 d))
  | Arbitrary f ->
      let d = int_of_float (ceil (f *. float_of_int period)) in
      max (period + 1) d

let dtask_of_config ~name base =
  let app = Gen.generate base in
  let n = Rtlb.App.n_tasks app in
  let vertices =
    Array.init n (fun i ->
        {
          Recurrent.Model.v_name = Printf.sprintf "v%d" i;
          v_wcet = (Rtlb.App.columns app).Rtlb.App.compute.(i);
        })
  in
  let edges =
    List.concat
      (List.init n (fun i ->
           List.map (fun j -> (i, j)) (Rtlb.App.succs app i)))
  in
  let vol = Array.fold_left (fun acc v -> acc + v.Recurrent.Model.v_wcet) 0 vertices in
  let max_wcet =
    Array.fold_left (fun acc v -> max acc v.Recurrent.Model.v_wcet) 1 vertices
  in
  (name, vertices, edges, vol, max_wcet)

let generate config =
  if config.tasks <= 0 then
    invalid_arg "Recurrent_gen.generate: need at least one task";
  let tasks =
    List.init config.tasks (fun i ->
        let base =
          {
            Gen.seed = config.seed + (7919 * i);
            n_tasks = max 1 config.vertices;
            shape = config.shape;
            compute_range = config.wcet_range;
            ccr = 0.0;
            laxity = 16.0;
            proc_types = [ ("P", 1.0) ];
            resource_types = [];
            preemptive_fraction = 0.0;
            release_spread = 0.0;
          }
        in
        let name, vertices, edges, vol, max_wcet =
          dtask_of_config ~name:(Printf.sprintf "tau%d" i) base
        in
        let period =
          let p =
            int_of_float (ceil (config.period_stretch *. float_of_int vol))
          in
          let p = max p max_wcet in
          if config.snap_periods then snap p else max 1 p
        in
        let deadline =
          deadline_of config.deadline_model ~period ~max_wcet
        in
        Recurrent.Model.dtask ~name ~period ~deadline ~vertices ~edges ())
  in
  Recurrent.Model.make ~tasks
