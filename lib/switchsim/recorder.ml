type t = { ports : int; slots : Simulator.transfer list array }

(* slots newest first, each decision's list stored once per slot it covers *)
type log = { l_ports : int; mutable l_slots : Simulator.transfer list list }

let log ~ports =
  if ports <= 0 then invalid_arg "Recorder.log: ports must be positive";
  { l_ports = ports; l_slots = [] }

let add log transfers ~slots =
  if slots < 1 then invalid_arg "Recorder.add: slots must be >= 1";
  for _ = 1 to slots do
    log.l_slots <- transfers :: log.l_slots
  done

let contents log =
  { ports = log.l_ports; slots = Array.of_list (List.rev log.l_slots) }

let replay ?net t demands =
  let sim = Simulator.create ?net ~ports:t.ports demands in
  Array.iter (fun transfers -> Simulator.step sim transfers) t.slots;
  sim

let to_csv t =
  let b = Buffer.create 4096 in
  Buffer.add_string b
    (Printf.sprintf "# ports=%d slots=%d\n" t.ports (Array.length t.slots));
  Buffer.add_string b "slot,src,dst,coflow\n";
  Array.iteri
    (fun slot transfers ->
      List.iter
        (fun { Simulator.src; dst; coflow; fabric } ->
          (* single-fabric rows keep the legacy 4-column shape; a nonzero
             fabric rides along as a fifth column *)
          if fabric = 0 then
            Buffer.add_string b
              (Printf.sprintf "%d,%d,%d,%d\n" (slot + 1) src dst coflow)
          else
            Buffer.add_string b
              (Printf.sprintf "%d,%d,%d,%d,%d\n" (slot + 1) src dst coflow
                 fabric))
        (List.rev transfers))
    t.slots;
  Buffer.contents b

let of_csv text =
  (* numbered before blank lines are dropped, so errors name file lines *)
  let lines =
    String.split_on_char '\n' text
    |> List.map String.trim
    |> List.mapi (fun i l -> (i + 1, l))
    |> List.filter (fun (_, l) -> l <> "")
  in
  match lines with
  | (_, meta) :: (_, header) :: rows ->
    let ports, nslots =
      try Scanf.sscanf meta "# ports=%d slots=%d" (fun p s -> (p, s))
      with Scanf.Scan_failure _ | Failure _ | End_of_file ->
        failwith "Recorder.of_csv: bad metadata line"
    in
    if header <> "slot,src,dst,coflow" then
      failwith "Recorder.of_csv: bad header";
    if nslots < 0 || ports <= 0 then failwith "Recorder.of_csv: bad geometry";
    if nslots > Sys.max_array_length then
      failwith
        (Printf.sprintf "Recorder.of_csv: slots=%d is more than an array holds"
           nslots);
    let slots = Array.make nslots [] in
    List.iter
      (fun (lineno, row) ->
        let bad () =
          failwith
            (Printf.sprintf "Recorder.of_csv: bad row %d: %S" lineno row)
        in
        let cols, fabric =
          match String.split_on_char ',' row with
          | [ _; _; _; _ ] as cols -> (cols, Some 0)
          | [ slot; src; dst; coflow; fabric ] ->
            ([ slot; src; dst; coflow ], int_of_string_opt fabric)
          | _ -> bad ()
        in
        match (cols, fabric) with
        | [ slot; src; dst; coflow ], Some f -> (
          match
            ( int_of_string_opt slot,
              int_of_string_opt src,
              int_of_string_opt dst,
              int_of_string_opt coflow )
          with
          | Some s, Some i, Some j, Some k when s >= 1 && s <= nslots && f >= 0
            ->
            slots.(s - 1) <-
              { Simulator.src = i; dst = j; coflow = k; fabric = f }
              :: slots.(s - 1)
          | _ -> bad ())
        | _ -> bad ())
      rows;
    { ports; slots = Array.map List.rev slots }
  | _ -> failwith "Recorder.of_csv: missing metadata or header"

let save path t =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_csv t))

let load path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let len = in_channel_length ic in
      of_csv (really_input_string ic len))
