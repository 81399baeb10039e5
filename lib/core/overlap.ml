let alpha x = max x 0
let mu x = if x > 0 then 1 else 0

let psi ~preemptive ~est ~lct ~compute ~t1 ~t2 =
  if t1 >= t2 then invalid_arg "Overlap.psi: empty interval";
  if mu (lct - t1) * mu (t2 - est) = 0 then 0
  else
    let head = alpha (compute - (t1 - est)) in
    let tail = alpha (compute - (lct - t2)) in
    let split =
      if preemptive then alpha (compute - (lct - t2) - (t1 - est))
      else t2 - t1
    in
    min (min compute head) (min tail split)

let of_task ~est ~lct app i ~t1 ~t2 =
  let c = App.columns app in
  psi ~preemptive:c.App.preemptive.(i) ~est:est.(i) ~lct:lct.(i)
    ~compute:c.App.compute.(i) ~t1 ~t2

(* Exhaustive minimisation used as the test oracle.  A non-preemptive task
   occupies one window [s, s+C]; a preemptive one can be split arbitrarily,
   and for a single query interval the minimising split packs work at the
   two ends of [E, L], so it suffices to try every (head, tail) partition
   of C between [E, t1] and [t2, L]. *)
let brute_force ~preemptive ~est ~lct ~compute ~t1 ~t2 =
  if t1 >= t2 then invalid_arg "Overlap.brute_force: empty interval";
  let clip a b = max 0 (min b t2 - max a t1) in
  if compute = 0 then 0
  else if not preemptive then begin
    let best = ref max_int in
    for s = est to lct - compute do
      best := min !best (clip s (s + compute))
    done;
    if !best = max_int then 0 else !best
  end
  else if est + compute > lct then 0
  else begin
    (* Split C into a head run at the very start of the window and a tail
       run at its very end; [head + tail = C <= lct - est] guarantees the
       two runs do not overlap.  End-packing is optimal against a single
       query interval, so minimising over all splits is exact. *)
    let best = ref max_int in
    for head = 0 to compute do
      let tail = compute - head in
      let occ = clip est (est + head) + clip (lct - tail) lct in
      best := min !best occ
    done;
    !best
  end
