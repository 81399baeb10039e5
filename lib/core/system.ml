type node_type = {
  nt_name : string;
  nt_proc : string;
  nt_provides : (string * int) list;
  nt_cost : int;
}

type t = Shared of (string * int) list | Dedicated of node_type list

let check_assoc what l =
  let names = List.map fst l in
  if List.length (List.sort_uniq String.compare names) <> List.length names
  then invalid_arg (Printf.sprintf "System: duplicate %s" what);
  List.iter
    (fun (n, c) ->
      if c < 0 then
        invalid_arg (Printf.sprintf "System: negative count/cost for %s" n))
    l

let shared ~costs =
  check_assoc "resource cost" costs;
  Shared (List.sort (fun (a, _) (b, _) -> String.compare a b) costs)

let shared_uniform ~resources =
  shared ~costs:(List.map (fun r -> (r, 1)) resources)

let node_type ~name ~proc ?(provides = []) ?(cost = 1) () =
  if name = "" || proc = "" then invalid_arg "System.node_type: empty name";
  if cost < 0 then invalid_arg "System.node_type: negative cost";
  check_assoc "node resource" provides;
  List.iter
    (fun (r, c) ->
      if c < 1 then
        invalid_arg (Printf.sprintf "System.node_type: zero units of %s" r))
    provides;
  {
    nt_name = name;
    nt_proc = proc;
    nt_provides = List.sort (fun (a, _) (b, _) -> String.compare a b) provides;
    nt_cost = cost;
  }

let dedicated nts =
  if nts = [] then invalid_arg "System.dedicated: empty catalogue";
  let names = List.map (fun nt -> nt.nt_name) nts in
  if List.length (List.sort_uniq String.compare names) <> List.length names
  then invalid_arg "System.dedicated: duplicate node-type names";
  Dedicated nts

let resource_cost t r =
  match t with
  | Dedicated _ ->
      invalid_arg "System.resource_cost: dedicated systems cost per node"
  | Shared costs -> (
      match List.assoc_opt r costs with
      | Some c -> c
      | None ->
          invalid_arg
            (Printf.sprintf "System.resource_cost: unknown resource %s" r))

let node_types = function Shared _ -> [] | Dedicated nts -> nts

let node_provides nt r =
  let from_resources =
    match List.assoc_opt r nt.nt_provides with Some c -> c | None -> 0
  in
  if String.equal r nt.nt_proc then from_resources + 1 else from_resources

let can_host nt ~proc ~demands =
  String.equal nt.nt_proc proc
  && List.for_all
       (fun (r, k) ->
         match List.assoc_opt r nt.nt_provides with
         | Some available -> available >= k
         | None -> false)
       demands

let node_can_host nt (task : Task.t) =
  can_host nt ~proc:task.Task.proc ~demands:task.Task.demands

(* [node_can_host nt] for task [i] of [c]. *)
let hosts nt (c : App.columns) i =
  can_host nt ~proc:c.App.proc.(i) ~demands:c.App.demands.(i)

let eligible_nodes t task =
  match t with
  | Shared _ -> []
  | Dedicated nts -> List.filter (fun nt -> node_can_host nt task) nts

let merge_pools t app ~center candidates =
  let c = App.columns app in
  let same_proc =
    List.filter
      (fun j -> j <> center && String.equal c.App.proc.(j) c.App.proc.(center))
      candidates
  in
  match t with
  | Shared _ -> if same_proc = [] then [] else [ same_proc ]
  | Dedicated nts ->
      List.filter_map
        (fun nt ->
          if not (hosts nt c center) then None
          else
            let pool = List.filter (hosts nt c) same_proc in
            if pool = [] then None else Some pool)
        nts
      |> List.sort_uniq compare

let mergeable t app ids =
  match ids with
  | [] | [ _ ] -> true
  | first :: rest -> (
      let c = App.columns app in
      let proc_of i = c.App.proc.(i) in
      let same_proc =
        List.for_all (fun i -> String.equal (proc_of i) (proc_of first)) rest
      in
      same_proc
      &&
      match t with
      | Shared _ -> true
      | Dedicated nts ->
          (* merged tasks run sequentially, so the node must cover each
             task's demand individually (the pointwise maximum, not the
             sum) *)
          List.exists
            (fun nt ->
              String.equal nt.nt_proc (proc_of first)
              && List.for_all (hosts nt c) ids)
            nts)

let validate_for t app =
  match t with
  | Shared _ -> Ok ()
  | Dedicated _ ->
      let nts = node_types t and c = App.columns app in
      let missing = ref [] in
      for i = App.n_tasks app - 1 downto 0 do
        if not (List.exists (fun nt -> hosts nt c i) nts) then
          missing := c.App.names.(i) :: !missing
      done;
      if !missing = [] then Ok ()
      else
        Error
          (Printf.sprintf "no node type can host task(s): %s"
             (String.concat ", " !missing))

let pp ppf = function
  | Shared costs ->
      Format.fprintf ppf "@[<v>shared model:";
      List.iter
        (fun (r, c) -> Format.fprintf ppf "@,  CostR(%s) = %d" r c)
        costs;
      Format.fprintf ppf "@]"
  | Dedicated nts ->
      Format.fprintf ppf "@[<v>dedicated model:";
      List.iter
        (fun nt ->
          Format.fprintf ppf "@,  %s: proc %s%s, CostN = %d" nt.nt_name
            nt.nt_proc
            (String.concat ""
               (List.map
                  (fun (r, c) ->
                    if c = 1 then " +" ^ r
                    else Printf.sprintf " +%dx%s" c r)
                  nt.nt_provides))
            nt.nt_cost)
        nts;
      Format.fprintf ppf "@]"
