(* Compressed sparse rows: the neighbours of [v] are [adj.(p)] for [p] in
   [off.(v) .. off.(v + 1) - 1], ascending, with [weight.(p)] beside them. *)
type csr = { off : int array; adj : int array; weight : int array }

type t = {
  n : int;
  succ : csr;  (* (dst, weight), sorted by dst *)
  pred : csr;  (* (src, weight), sorted by src *)
  topo : int array;
}

exception Cycle of int list

(* Drops from [left], repeatedly, every vertex with no successor in
   [left] (Kahn's algorithm backwards), so that every vertex still in
   [left] has a successor there. *)
let trim_to_cycles ~succ ~pred left =
  let n = Array.length left in
  let out = Array.make n 0 and queue = Array.make n 0 and tail = ref 0 in
  for v = 0 to n - 1 do
    if left.(v) then begin
      for p = succ.off.(v) to succ.off.(v + 1) - 1 do
        if left.(succ.adj.(p)) then out.(v) <- out.(v) + 1
      done;
      if out.(v) = 0 then begin
        queue.(!tail) <- v;
        incr tail
      end
    end
  done;
  let head = ref 0 in
  while !head < !tail do
    let v = queue.(!head) in
    incr head;
    left.(v) <- false;
    for p = pred.off.(v) to pred.off.(v + 1) - 1 do
      let u = pred.adj.(p) in
      if left.(u) then begin
        out.(u) <- out.(u) - 1;
        if out.(u) = 0 then begin
          queue.(!tail) <- u;
          incr tail
        end
      end
    done
  done

(* Kahn's algorithm with the queue in one int array: every vertex enters
   it once, so on success the array is the order.  On failure, walks the
   leftover vertices to report one concrete cycle. *)
let topological_sort n succ pred =
  let indegree = Array.init n (fun v -> pred.off.(v + 1) - pred.off.(v)) in
  let queue = Array.make n 0 in
  let tail = ref 0 in
  Array.iteri
    (fun v d ->
      if d = 0 then begin
        queue.(!tail) <- v;
        incr tail
      end)
    indegree;
  let head = ref 0 in
  while !head < !tail do
    let v = queue.(!head) in
    incr head;
    for p = succ.off.(v) to succ.off.(v + 1) - 1 do
      let w = succ.adj.(p) in
      indegree.(w) <- indegree.(w) - 1;
      if indegree.(w) = 0 then begin
        queue.(!tail) <- w;
        incr tail
      end
    done
  done;
  if !tail = n then queue
  else begin
    (* Walk from the lowest vertex that lies on a cycle or leads into
       one, taking the lowest such successor each step, until a vertex
       repeats: every step has a successor to take, so the walk closes
       a cycle. *)
    let left = Array.map (fun d -> d > 0) indegree in
    trim_to_cycles ~succ ~pred left;
    let start = ref 0 in
    while not left.(!start) do
      incr start
    done;
    let seen = Array.make n (-1) in
    let rec first_left p =
      if left.(succ.adj.(p)) then succ.adj.(p) else first_left (p + 1)
    in
    let rec walk v step path =
      if seen.(v) >= 0 then
        (* the loop from v's first visit, v once *)
        List.filteri (fun i _ -> i >= seen.(v)) (List.rev path)
      else begin
        seen.(v) <- step;
        walk (first_left succ.off.(v)) (step + 1) (v :: path)
      end
    in
    raise (Cycle (walk !start 0 []))
  end

(* Row offsets from per-row counts held at [off.(v + 1)]. *)
let prefix_sums off =
  for v = 1 to Array.length off - 1 do
    off.(v) <- off.(v) + off.(v - 1)
  done

let of_arrays ~n ~src ~dst ~weight =
  if n < 0 then invalid_arg "Dag.create: negative size";
  let m = Array.length src in
  if Array.length dst <> m || Array.length weight <> m then
    invalid_arg "Dag.of_arrays: arrays of different lengths";
  let succ_off = Array.make (n + 1) 0 and pred_off = Array.make (n + 1) 0 in
  for k = 0 to m - 1 do
    let s = src.(k) and d = dst.(k) in
    if s < 0 || s >= n || d < 0 || d >= n then
      invalid_arg (Printf.sprintf "Dag.create: edge (%d,%d) out of range" s d);
    if s = d then invalid_arg (Printf.sprintf "Dag.create: self loop on %d" s);
    succ_off.(s + 1) <- succ_off.(s + 1) + 1;
    pred_off.(d + 1) <- pred_off.(d + 1) + 1
  done;
  prefix_sums succ_off;
  prefix_sums pred_off;
  let succ = { off = succ_off; adj = Array.make m 0; weight = Array.make m 0 }
  and pred = { off = pred_off; adj = Array.make m 0; weight = Array.make m 0 } in
  (* Two stable counting-sort passes: [place from into] appends every
     entry of [from], row by row, to the row of its neighbour in [into],
     so each row of [into] comes out in ascending order of [from]'s rows. *)
  let next = Array.make (n + 1) 0 in
  let place from into =
    Array.blit into.off 0 next 0 n;
    for v = 0 to n - 1 do
      for p = from.off.(v) to from.off.(v + 1) - 1 do
        let u = from.adj.(p) in
        let q = next.(u) in
        into.adj.(q) <- v;
        into.weight.(q) <- from.weight.(p);
        next.(u) <- q + 1
      done
    done
  in
  (* Predecessor rows in input order first, then successor rows sorted by
     destination from them. *)
  Array.blit pred_off 0 next 0 n;
  for k = 0 to m - 1 do
    let d = dst.(k) in
    let q = next.(d) in
    pred.adj.(q) <- src.(k);
    pred.weight.(q) <- weight.(k);
    next.(d) <- q + 1
  done;
  place pred succ;
  (* A duplicated edge leaves two equal neighbours side by side in its
     source's sorted successor row. *)
  for s = 0 to n - 1 do
    for p = succ_off.(s) + 1 to succ_off.(s + 1) - 1 do
      if succ.adj.(p) = succ.adj.(p - 1) then
        invalid_arg
          (Printf.sprintf "Dag.create: duplicate edge (%d,%d)" s succ.adj.(p))
    done
  done;
  (* Predecessor rows sorted by source. *)
  place succ pred;
  let topo = topological_sort n succ pred in
  { n; succ; pred; topo }

let create ~n ~edges =
  let edges = Array.of_list edges in
  of_arrays ~n
    ~src:(Array.map (fun (s, _, _) -> s) edges)
    ~dst:(Array.map (fun (_, d, _) -> d) edges)
    ~weight:(Array.map (fun (_, _, w) -> w) edges)

let n_vertices t = t.n
let n_edges t = Array.length t.succ.adj
let succ_csr t = t.succ
let pred_csr t = t.pred

let row_pairs c v =
  let rec go p acc =
    if p < c.off.(v) then acc else go (p - 1) ((c.adj.(p), c.weight.(p)) :: acc)
  in
  go (c.off.(v + 1) - 1) []

let row_ids c v =
  let rec go p acc = if p < c.off.(v) then acc else go (p - 1) (c.adj.(p) :: acc) in
  go (c.off.(v + 1) - 1) []

let succs t v = row_pairs t.succ v
let preds t v = row_pairs t.pred v
let succ_ids t v = row_ids t.succ v
let pred_ids t v = row_ids t.pred v

let edge_weight t ~src ~dst =
  let c = t.succ in
  let lo = ref c.off.(src) and hi = ref (c.off.(src + 1) - 1) in
  let found = ref None in
  while !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let d = c.adj.(mid) in
    if d = dst then begin
      found := Some c.weight.(mid);
      lo := !hi + 1
    end
    else if d < dst then lo := mid + 1
    else hi := mid - 1
  done;
  !found

let empty_rows c =
  let rec go v acc =
    if v < 0 then acc
    else go (v - 1) (if c.off.(v + 1) = c.off.(v) then v :: acc else acc)
  in
  go (Array.length c.off - 2) []

let sources t = empty_rows t.pred
let sinks t = empty_rows t.succ
let topological_order t = Array.copy t.topo

let reverse_topological_order t =
  let n = t.n in
  Array.init n (fun i -> t.topo.(n - 1 - i))

let reachable t v =
  let mark = Array.make t.n false in
  let c = t.succ in
  let rec go u =
    if not mark.(u) then begin
      mark.(u) <- true;
      for p = c.off.(u) to c.off.(u + 1) - 1 do
        go c.adj.(p)
      done
    end
  in
  go v;
  mark

let transitive_closure t =
  let closure = Array.init t.n (fun _ -> Array.make t.n false) in
  let c = t.succ in
  (* Process in reverse topological order so successors are complete. *)
  Array.iter
    (fun v ->
      for p = c.off.(v) to c.off.(v + 1) - 1 do
        let w = c.adj.(p) in
        closure.(v).(w) <- true;
        for x = 0 to t.n - 1 do
          if closure.(w).(x) then closure.(v).(x) <- true
        done
      done)
    (reverse_topological_order t);
  closure

let longest_generic t ~vertex_weight ~edge_counts =
  let dist = Array.make t.n 0 in
  let c = t.pred in
  Array.iter
    (fun v ->
      let best = ref 0 in
      for p = c.off.(v) to c.off.(v + 1) - 1 do
        let through = dist.(c.adj.(p)) + if edge_counts then c.weight.(p) else 0 in
        best := Stdlib.max !best through
      done;
      dist.(v) <- !best + vertex_weight v)
    t.topo;
  dist

let longest_path_lengths t ~vertex_weight =
  longest_generic t ~vertex_weight ~edge_counts:false

let longest_path_with_edges t ~vertex_weight =
  longest_generic t ~vertex_weight ~edge_counts:true

let critical_path_length t ~vertex_weight =
  let dist = longest_path_lengths t ~vertex_weight in
  Array.fold_left Stdlib.max 0 dist

let fold_edges t ~init ~f =
  let acc = ref init in
  let c = t.succ in
  for src = 0 to t.n - 1 do
    for p = c.off.(src) to c.off.(src + 1) - 1 do
      acc := f !acc ~src ~dst:c.adj.(p) c.weight.(p)
    done
  done;
  !acc

let map_weights t ~f =
  let edges =
    fold_edges t ~init:[] ~f:(fun acc ~src ~dst w ->
        (src, dst, f ~src ~dst w) :: acc)
  in
  create ~n:t.n ~edges

let to_dot ?(name = "dag") ?label t =
  let buf = Buffer.create 256 in
  let label = Option.value label ~default:string_of_int in
  Buffer.add_string buf (Printf.sprintf "digraph %s {\n" name);
  for v = 0 to t.n - 1 do
    Buffer.add_string buf (Printf.sprintf "  n%d [label=\"%s\"];\n" v (label v))
  done;
  fold_edges t ~init:() ~f:(fun () ~src ~dst w ->
      Buffer.add_string buf
        (Printf.sprintf "  n%d -> n%d [label=\"%d\"];\n" src dst w));
  Buffer.add_string buf "}\n";
  Buffer.contents buf
