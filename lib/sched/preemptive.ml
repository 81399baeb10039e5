type slice = {
  p_task : int;
  p_start : int;
  p_finish : int;
  p_proc : string * int;
}

type schedule = slice list array

let validate_input app procs =
  Array.iter
    (fun (task : Rtlb.Task.t) ->
      if task.Rtlb.Task.resources <> [] then
        invalid_arg
          ("Preemptive.run: task uses shared resources: " ^ task.Rtlb.Task.name);
      match List.assoc_opt task.Rtlb.Task.proc procs with
      | Some c when c > 0 -> ()
      | _ ->
          invalid_arg
            ("Preemptive.run: no processors of type " ^ task.Rtlb.Task.proc))
    (Rtlb.App.tasks app)

(* Completion time of a task = end of its last slice. *)
let finish_of slices =
  List.fold_left (fun acc s -> max acc s.p_finish) 0 slices

let arrival app finishes i =
  List.fold_left
    (fun acc p ->
      max acc (finishes.(p) + Rtlb.App.message app ~src:p ~dst:i))
    (Rtlb.App.columns app).Rtlb.App.release.(i)
    (Rtlb.App.preds app i)

let run app ~procs =
  validate_input app procs;
  let n = Rtlb.App.n_tasks app in
  let cols = Rtlb.App.columns app in
  let remaining = Array.copy cols.Rtlb.App.compute in
  let slices = Array.make n [] in
  let finishes = Array.make n max_int in
  (* Track completion properly: a task is complete when remaining = 0.
     Zero-compute (milestone) tasks complete the instant their inputs are
     all available; settle the initial chains in topological order. *)
  let complete i = remaining.(i) = 0 in
  Array.iter
    (fun i ->
      if
        remaining.(i) = 0
        && List.for_all
             (fun p -> finishes.(p) < max_int)
             (Rtlb.App.preds app i)
      then finishes.(i) <- arrival app finishes i)
    (Dag.topological_order (Rtlb.App.graph app));
  let horizon = Rtlb.App.horizon app in
  (* Non-preemptive tasks hold their processor between quanta. *)
  let pinned = Array.make n None in
  let missed = ref None in
  let t = ref 0 in
  let done_count () =
    Array.fold_left (fun acc r -> acc + if r = 0 then 1 else 0) 0 remaining
  in
  while !missed = None && done_count () < n && !t < horizon do
    let now = !t in
    (* Free units per processor type at this quantum. *)
    let free = Hashtbl.create 4 in
    List.iter (fun (p, c) -> Hashtbl.replace free p (List.init c Fun.id)) procs;
    let take p preferred =
      match Hashtbl.find_opt free p with
      | None | Some [] -> None
      | Some units -> (
          match preferred with
          | Some u when List.mem u units ->
              Hashtbl.replace free p (List.filter (( <> ) u) units);
              Some u
          | Some _ -> None (* pinned unit busy: cannot happen *)
          | None ->
              let u = List.hd units in
              Hashtbl.replace free p (List.tl units);
              Some u)
    in
    (* Pinned (running non-preemptive) tasks go first, on their unit. *)
    let running_now = ref [] in
    Array.iteri
      (fun i pin ->
        match pin with
        | Some (p, u) when not (complete i) ->
            (match take p (Some u) with
            | Some u -> running_now := (i, (p, u)) :: !running_now
            | None -> assert false)
        | _ -> ())
      pinned;
    (* Ready preemptible work by EDF. *)
    let ready =
      List.init n Fun.id
      |> List.filter (fun i ->
             (not (complete i))
             && pinned.(i) = None
             && List.for_all
                  (fun p -> complete p && finishes.(p) < max_int)
                  (Rtlb.App.preds app i)
             && arrival app finishes i <= now)
      |> List.sort (fun a b ->
             let deadline = cols.Rtlb.App.deadline in
             compare (deadline.(a), a) (deadline.(b), b))
    in
    List.iter
      (fun i ->
        let proc = cols.Rtlb.App.proc.(i) in
        match take proc None with
        | None -> ()
        | Some u ->
            running_now := (i, (proc, u)) :: !running_now;
            if not cols.Rtlb.App.preemptive.(i) then
              pinned.(i) <- Some (proc, u))
      ready;
    (* Execute one quantum. *)
    List.iter
      (fun (i, proc) ->
        remaining.(i) <- remaining.(i) - 1;
        (* extend the last slice when contiguous on the same unit *)
        (slices.(i) <-
          (match slices.(i) with
          | { p_finish; p_proc; _ } :: _ as all
            when p_finish = now && p_proc = proc -> (
              match all with
              | head :: rest -> { head with p_finish = now + 1 } :: rest
              | [] -> assert false)
          | other ->
              { p_task = i; p_start = now; p_finish = now + 1; p_proc = proc }
              :: other));
        if remaining.(i) = 0 then begin
          finishes.(i) <- now + 1;
          pinned.(i) <- None;
          if now + 1 > cols.Rtlb.App.deadline.(i) then
            missed := Some i;
          (* newly enabled zero-compute successors complete instantly *)
          Array.iter
            (fun j ->
              if
                remaining.(j) = 0
                && finishes.(j) = max_int
                && List.for_all
                     (fun p -> complete p && finishes.(p) < max_int)
                     (Rtlb.App.preds app j)
              then finishes.(j) <- arrival app finishes j)
            (Dag.topological_order (Rtlb.App.graph app))
        end)
      !running_now;
    (* Deadline misses for tasks still incomplete past their deadline. *)
    Array.iteri
      (fun i r ->
        if r > 0 && now + 1 > cols.Rtlb.App.deadline.(i) then
          if !missed = None then missed := Some i)
      remaining;
    incr t
  done;
  match !missed with
  | Some i -> Error i
  | None ->
      if done_count () < n then
        (* ran out of horizon: some task cannot make its deadline *)
        Error
          (Option.get
             (List.find_opt
                (fun i -> remaining.(i) > 0)
                (List.init n Fun.id)))
      else Ok (Array.map List.rev slices)

let check app ~procs schedule =
  let problems = ref [] in
  let err fmt = Printf.ksprintf (fun m -> problems := m :: !problems) fmt in
  let n = Rtlb.App.n_tasks app in
  if Array.length schedule <> n then err "wrong number of tasks"
  else begin
    let finishes = Array.map finish_of schedule in
    Array.iteri
      (fun i task_slices ->
        let task = Rtlb.App.task app i in
        let total =
          List.fold_left (fun acc s -> acc + s.p_finish - s.p_start) 0 task_slices
        in
        if total <> task.Rtlb.Task.compute then
          err "%s executed %d of %d units" task.Rtlb.Task.name total
            task.Rtlb.Task.compute;
        let arrive = arrival app finishes i in
        List.iter
          (fun s ->
            if s.p_task <> i then err "slice of task %d filed under %d" s.p_task i;
            if s.p_start < arrive then
              err "%s runs at %d before arrival %d" task.Rtlb.Task.name
                s.p_start arrive;
            if s.p_finish > task.Rtlb.Task.deadline then
              err "%s runs past deadline %d" task.Rtlb.Task.name
                task.Rtlb.Task.deadline;
            let p, u = s.p_proc in
            if not (String.equal p task.Rtlb.Task.proc) then
              err "%s on wrong processor type %s" task.Rtlb.Task.name p;
            match List.assoc_opt p procs with
            | Some c when u >= 0 && u < c -> ()
            | _ -> err "%s on nonexistent unit %s#%d" task.Rtlb.Task.name p u)
          task_slices;
        if (not task.Rtlb.Task.preemptive) && task.Rtlb.Task.compute > 0 then
          if List.length task_slices <> 1 then
            err "non-preemptive %s split into %d slices" task.Rtlb.Task.name
              (List.length task_slices))
      schedule;
    (* No double-booking: pairwise slice overlap on same unit, and no task
       self-overlap across units. *)
    let all = Array.to_list schedule |> List.concat in
    let overlap a b = max a.p_start b.p_start < min a.p_finish b.p_finish in
    List.iteri
      (fun k a ->
        List.iteri
          (fun k' b ->
            if k < k' && overlap a b then begin
              if a.p_proc = b.p_proc then
                err "unit %s#%d double-booked at %d" (fst a.p_proc)
                  (snd a.p_proc)
                  (max a.p_start b.p_start);
              if a.p_task = b.p_task then
                err "task %d runs on two units at once" a.p_task
            end)
          all)
      all
  end;
  if !problems = [] then Ok () else Error (List.rev !problems)

let feasible app ~procs =
  match run app ~procs with
  | Error _ -> false
  | Ok s -> check app ~procs s = Ok ()

let total_slices schedule =
  Array.fold_left (fun acc l -> acc + List.length l) 0 schedule
