type policy = Deadline | Lct | Least_slack | Longest_work_first

let all = [ Deadline; Lct; Least_slack; Longest_work_first ]

let name = function
  | Deadline -> "deadline (EDF)"
  | Lct -> "analysis LCT"
  | Least_slack -> "least slack"
  | Longest_work_first -> "longest work first"

let make policy system app =
  let cols = Rtlb.App.columns app in
  match policy with
  | Deadline -> fun i -> cols.Rtlb.App.deadline.(i)
  | Longest_work_first -> fun i -> -cols.Rtlb.App.compute.(i)
  | Lct ->
      let w = Rtlb.Est_lct.compute system app in
      fun i -> w.Rtlb.Est_lct.lct.(i)
  | Least_slack ->
      let w = Rtlb.Est_lct.compute system app in
      fun i ->
        w.Rtlb.Est_lct.lct.(i) - w.Rtlb.Est_lct.est.(i)
        - cols.Rtlb.App.compute.(i)
