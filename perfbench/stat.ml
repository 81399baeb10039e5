(* Order statistics over timing samples.

   A percentile is reported with the sample count it was taken over and
   the number of samples strictly beyond it: a tail percentile means
   something only when at least [min_beyond] samples lie past it, so the
   p99 of a run needs at least 1000 samples. *)

let min_beyond = 10

type pct = {
  value : float;
  n : int;  (** Samples the percentile was taken over. *)
  beyond : int;  (** Samples strictly beyond its rank. *)
}

let sorted xs =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  a

(* Nearest rank: the smallest sample with at least [p] percent of all
   samples at or below it. *)
let rank n p = max 1 (min n (int_of_float (Float.ceil (p /. 100.0 *. float_of_int n))))

let percentile xs p =
  let n = Array.length xs in
  if n = 0 then { value = Float.nan; n = 0; beyond = 0 }
  else
    let r = rank n p in
    { value = (sorted xs).(r - 1); n; beyond = n - r }

let supported pct = pct.beyond >= min_beyond

(* The middle sample, or the mean of the two middle samples. *)
let median xs =
  let n = Array.length xs in
  if n = 0 then Float.nan
  else
    let s = sorted xs in
    if n mod 2 = 1 then s.(n / 2) else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.0

(* The highest whole percentile up to [p] that has at least [min_beyond]
   samples beyond it, with its level; the median when even the median
   has fewer (a run of a few slow operations). *)
let tail xs p =
  let rec go q =
    if q <= 50.0 then (50.0, { (percentile xs 50.0) with value = median xs })
    else
      let pc = percentile xs q in
      if supported pc then (q, pc) else go (q -. 1.0)
  in
  go p
