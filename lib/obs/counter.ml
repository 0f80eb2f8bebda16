type t = { name : string; cell : int Atomic.t }

let lock = Mutex.create ()

let registry : (string, t) Hashtbl.t = Hashtbl.create 32

let with_lock f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

let make name =
  with_lock (fun () ->
      match Hashtbl.find_opt registry name with
      | Some c -> c
      | None ->
        let c = { name; cell = Atomic.make 0 } in
        Hashtbl.add registry name c;
        c)

let name c = c.name

let incr ?(by = 1) c = ignore (Atomic.fetch_and_add c.cell by)

let value c = Atomic.get c.cell

let dump () =
  with_lock (fun () ->
      Hashtbl.fold (fun name c acc -> (name, Atomic.get c.cell) :: acc) registry [])
  |> List.sort compare

let reset_all () =
  with_lock (fun () ->
      Hashtbl.iter (fun _ c -> Atomic.set c.cell 0) registry)

module Gauge = struct
  type g = { g_name : string; g_cell : float Atomic.t }

  let g_registry : (string, g) Hashtbl.t = Hashtbl.create 16

  let make g_name =
    with_lock (fun () ->
        match Hashtbl.find_opt g_registry g_name with
        | Some g -> g
        | None ->
          let g = { g_name; g_cell = Atomic.make 0.0 } in
          Hashtbl.add g_registry g_name g;
          g)

  let set g v = Atomic.set g.g_cell v

  let value g = Atomic.get g.g_cell

  let dump () =
    with_lock (fun () ->
        Hashtbl.fold
          (fun name g acc -> (name, Atomic.get g.g_cell) :: acc)
          g_registry [])
    |> List.sort compare

  let reset_all () =
    with_lock (fun () ->
        Hashtbl.iter (fun _ g -> Atomic.set g.g_cell 0.0) g_registry)
end
