let host_label = function
  | Schedule.On_proc (p, k) -> Printf.sprintf "%s#%d" p k
  | Schedule.On_node (n, k) -> Printf.sprintf "%s#%d" n k

(* Rows: (label, occupant per time unit).  Occupant is the short task
   name or "" when idle. *)
let rows_of app platform schedule ~show_resources =
  let horizon = max 1 (Schedule.makespan app schedule) in
  let names = (Rtlb.App.columns app).Rtlb.App.names in
  let hosts =
    match platform with
    | Platform.Shared_platform { procs; _ } ->
        List.concat_map
          (fun (p, count) ->
            List.init count (fun k -> Schedule.On_proc (p, k)))
          procs
    | Platform.Dedicated_platform nodes ->
        List.concat_map
          (fun ((nt : Rtlb.System.node_type), count) ->
            List.init count (fun k ->
                Schedule.On_node (nt.Rtlb.System.nt_name, k)))
          nodes
  in
  let host_rows =
    List.map
      (fun host ->
        let cells = Array.make horizon "" in
        Array.iter
          (fun (e : Schedule.entry) ->
            if Schedule.host_equal e.Schedule.e_host host then
              let name = names.(e.Schedule.e_task) in
              for t = e.Schedule.e_start to Schedule.finish app e - 1 do
                cells.(t) <- name
              done)
          schedule;
        (host_label host, cells))
      hosts
  in
  let resource_rows =
    if not show_resources then []
    else
      match platform with
      | Platform.Dedicated_platform _ -> []
      | Platform.Shared_platform { resources; _ } ->
          List.concat_map
            (fun (r, count) ->
              List.init count (fun u ->
                  let cells = Array.make horizon "" in
                  Array.iter
                    (fun (e : Schedule.entry) ->
                      if
                        List.exists
                          (fun (r', u') -> String.equal r r' && u = u')
                          e.Schedule.e_resource_units
                      then
                        let name = names.(e.Schedule.e_task) in
                        for t = e.Schedule.e_start to Schedule.finish app e - 1 do
                          cells.(t) <- name
                        done)
                    schedule;
                  (Printf.sprintf "%s#%d" r u, cells)))
            resources
  in
  (horizon, host_rows @ resource_rows)

let render_rows ?(width = 100) (horizon, rows) =
  let per_column = (horizon + width - 1) / width in
  let columns = (horizon + per_column - 1) / per_column in
  let cell_width =
    List.fold_left
      (fun acc (_, cells) ->
        Array.fold_left (fun acc c -> max acc (String.length c)) acc cells)
      1 rows
  in
  let label_width =
    List.fold_left (fun acc (l, _) -> max acc (String.length l)) 0 rows
  in
  let buf = Buffer.create 1024 in
  let pad w s = s ^ String.make (max 0 (w - String.length s)) ' ' in
  (* Time ruler every 5 columns. *)
  Buffer.add_string buf (pad label_width "");
  Buffer.add_string buf "  ";
  for c = 0 to columns - 1 do
    let label =
      if c mod 5 = 0 then string_of_int (c * per_column) else ""
    in
    Buffer.add_string buf (pad (cell_width + 1) label)
  done;
  Buffer.add_char buf '\n';
  List.iter
    (fun (label, cells) ->
      Buffer.add_string buf (pad label_width label);
      Buffer.add_string buf " |";
      for c = 0 to columns - 1 do
        (* With scaling, show the occupant of the first busy unit in the
           column. *)
        let occupant = ref "" in
        for t = c * per_column to min horizon (c * per_column + per_column) - 1 do
          if !occupant = "" && cells.(t) <> "" then occupant := cells.(t)
        done;
        let s = if !occupant = "" then "." else !occupant in
        Buffer.add_string buf (pad cell_width s);
        Buffer.add_char buf (if c = columns - 1 then '|' else ' ')
      done;
      Buffer.add_char buf '\n')
    rows;
  if per_column > 1 then
    Buffer.add_string buf
      (Printf.sprintf "(one column = %d time units)\n" per_column);
  Buffer.contents buf


let render ?width ?show_resources app platform schedule =
  let horizon, rows =
    rows_of app platform schedule
      ~show_resources:(Option.value ~default:false show_resources)
  in
  render_rows ?width (horizon, rows)

let render_preemptive ?width app ~procs schedule =
  let horizon =
    max 1
      (Array.fold_left
         (fun acc slices ->
           List.fold_left
             (fun acc (s : Preemptive.slice) -> max acc s.Preemptive.p_finish)
             acc slices)
         0 schedule)
  in
  let rows =
    List.concat_map
      (fun (p, count) ->
        List.init count (fun u ->
            let cells = Array.make horizon "" in
            Array.iteri
              (fun i slices ->
                List.iter
                  (fun (s : Preemptive.slice) ->
                    if s.Preemptive.p_proc = (p, u) then
                      for t = s.Preemptive.p_start to s.Preemptive.p_finish - 1 do
                        cells.(t) <- (Rtlb.App.columns app).Rtlb.App.names.(i)
                      done)
                  slices)
              schedule;
            (Printf.sprintf "%s#%d" p u, cells)))
      procs
  in
  render_rows ?width (horizon, rows)


(* Colour per task, deterministic from the id: evenly spaced hues with
   fixed saturation/lightness keep adjacent tasks distinguishable. *)
let svg_colour i =
  let hue = i * 67 mod 360 in
  Printf.sprintf "hsl(%d, 62%%, 62%%)" hue

let render_svg ?(show_resources = false) app platform schedule =
  let horizon, rows = rows_of app platform schedule ~show_resources in
  ignore rows;
  let lane_height = 26 and lane_gap = 6 and left = 90 in
  let px_per_tick = max 6 (min 28 (900 / max 1 horizon)) in
  let lanes =
    (let base =
       match platform with
       | Platform.Shared_platform { procs; _ } ->
           List.concat_map
             (fun (p, count) ->
               List.init count (fun k -> `Host (Schedule.On_proc (p, k))))
             procs
       | Platform.Dedicated_platform nodes ->
           List.concat_map
             (fun ((nt : Rtlb.System.node_type), count) ->
               List.init count (fun k ->
                   `Host (Schedule.On_node (nt.Rtlb.System.nt_name, k))))
             nodes
     in
     let resource_lanes =
       if not show_resources then []
       else
         match platform with
         | Platform.Dedicated_platform _ -> []
         | Platform.Shared_platform { resources; _ } ->
             List.concat_map
               (fun (r, count) -> List.init count (fun u -> `Unit (r, u)))
               resources
     in
     base @ resource_lanes)
  in
  let width = left + (horizon * px_per_tick) + 20 in
  let height = (List.length lanes * (lane_height + lane_gap)) + 40 in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    (Printf.sprintf
       "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"%d\" height=\"%d\" \
        font-family=\"monospace\" font-size=\"11\">\n"
       width height);
  let lane_y idx = 10 + (idx * (lane_height + lane_gap)) in
  (* lanes and labels *)
  List.iteri
    (fun idx lane ->
      let label =
        match lane with
        | `Host h -> host_label h
        | `Unit (r, u) -> Printf.sprintf "%s#%d" r u
      in
      Buffer.add_string buf
        (Printf.sprintf
           "<text x=\"4\" y=\"%d\">%s</text><rect x=\"%d\" y=\"%d\" \
            width=\"%d\" height=\"%d\" fill=\"#f2f2f2\"/>\n"
           (lane_y idx + 17) label left (lane_y idx)
           (horizon * px_per_tick) lane_height))
    lanes;
  (* task boxes *)
  Array.iter
    (fun (e : Schedule.entry) ->
      let task = Rtlb.App.task app e.Schedule.e_task in
      if task.Rtlb.Task.compute > 0 then begin
        let finish = Schedule.finish app e in
        let late = finish > task.Rtlb.Task.deadline in
        let fill =
          if late then "hsl(0, 85%, 55%)" else svg_colour e.Schedule.e_task
        in
        let draw idx =
          Buffer.add_string buf
            (Printf.sprintf
               "<rect x=\"%d\" y=\"%d\" width=\"%d\" height=\"%d\" \
                fill=\"%s\" stroke=\"#333\"/><text x=\"%d\" y=\"%d\">%s</text>\n"
               (left + (e.Schedule.e_start * px_per_tick))
               (lane_y idx)
               ((finish - e.Schedule.e_start) * px_per_tick)
               lane_height fill
               (left + (e.Schedule.e_start * px_per_tick) + 3)
               (lane_y idx + 17) task.Rtlb.Task.name)
        in
        List.iteri
          (fun idx lane ->
            match lane with
            | `Host h when Schedule.host_equal h e.Schedule.e_host -> draw idx
            | `Unit (r, u)
              when List.exists
                     (fun (r', u') -> String.equal r r' && u = u')
                     e.Schedule.e_resource_units ->
                draw idx
            | _ -> ())
          lanes
      end)
    schedule;
  (* axis *)
  let axis_y = height - 18 in
  Buffer.add_string buf
    (Printf.sprintf
       "<line x1=\"%d\" y1=\"%d\" x2=\"%d\" y2=\"%d\" stroke=\"#333\"/>\n"
       left axis_y (left + (horizon * px_per_tick)) axis_y);
  let step = max 1 (horizon / 10) in
  let t = ref 0 in
  while !t <= horizon do
    Buffer.add_string buf
      (Printf.sprintf "<text x=\"%d\" y=\"%d\">%d</text>\n"
         (left + (!t * px_per_tick))
         (axis_y + 14) !t);
    t := !t + step
  done;
  Buffer.add_string buf "</svg>\n";
  Buffer.contents buf
