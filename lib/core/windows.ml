type t = { est : int array; lct : int array }

let feasible app w =
  let c = App.columns app in
  let bad = ref [] in
  for i = Array.length w.est - 1 downto 0 do
    if w.est.(i) + c.App.compute.(i) > w.lct.(i) then
      bad := c.App.names.(i) :: !bad
  done;
  if !bad = [] then Ok ()
  else
    Error
      (Printf.sprintf "window too small for task(s): %s"
         (String.concat ", " !bad))
