open Matrix

let magic = "coflow-trace v1"

let to_string inst =
  let b = Buffer.create 4096 in
  Buffer.add_string b magic;
  Buffer.add_char b '\n';
  Buffer.add_string b
    (Printf.sprintf "%d %d\n" (Instance.ports inst)
       (Instance.num_coflows inst));
  Array.iter
    (fun c ->
      Buffer.add_string b
        (Printf.sprintf "%d %d %.17g %d\n" c.Instance.id c.Instance.release
           c.Instance.weight
           (Mat.nonzero_count c.Instance.demand));
      Mat.iter_nonzero
        (fun i j v -> Buffer.add_string b (Printf.sprintf "%d %d %d\n" i j v))
        c.Instance.demand)
    (Instance.coflows inst);
  Buffer.contents b

let of_string s =
  (* numbered before blank lines are dropped, so errors name file lines *)
  let lines =
    String.split_on_char '\n' s
    |> List.map String.trim
    |> List.mapi (fun i l -> (i + 1, l))
    |> List.filter (fun (_, l) -> l <> "")
  in
  let fail lineno msg =
    failwith (Printf.sprintf "Trace.of_string: line %d: %s" lineno msg)
  in
  match lines with
  | [] -> failwith "Trace.of_string: empty input"
  | (_, header) :: rest ->
    if header <> magic then
      failwith
        (Printf.sprintf "Trace.of_string: bad header %S (expected %S)" header
           magic);
    let tokens lineno l =
      match String.split_on_char ' ' l |> List.filter (fun t -> t <> "") with
      | [] -> fail lineno "empty line"
      | ts -> ts
    in
    let parse_int lineno s =
      match int_of_string_opt s with
      | Some v -> v
      | None -> fail lineno (Printf.sprintf "expected integer, got %S" s)
    in
    let parse_float lineno s =
      match float_of_string_opt s with
      | Some v -> v
      | None -> fail lineno (Printf.sprintf "expected float, got %S" s)
    in
    (match rest with
    | [] -> failwith "Trace.of_string: missing dimensions line"
    | (dl, dims) :: body ->
      let ports, ncoflows =
        match tokens dl dims with
        | [ p; n ] -> (parse_int dl p, parse_int dl n)
        | _ -> fail dl "expected '<ports> <num_coflows>'"
      in
      if ports <= 0 then fail dl "ports must be positive";
      if ncoflows < 0 then fail dl "negative coflow count";
      let seen_ids = Hashtbl.create 16 in
      let lineno = ref dl in
      let body = ref body in
      let next () =
        match !body with
        | [] -> fail !lineno "unexpected end of file"
        | (n, l) :: tl ->
          lineno := n;
          body := tl;
          l
      in
      let coflows = ref [] in
      (* [Instance.make]'s running sums, so the coflow that pushes them
         past [max_int] is named on its own line *)
      let units = ref 0 and last = ref 0 in
      for _ = 1 to ncoflows do
        let l = next () in
        let header = !lineno in
        match tokens !lineno l with
        | [ id; release; weight; nnz ] ->
          let id = parse_int !lineno id in
          let release = parse_int !lineno release in
          let weight = parse_float !lineno weight in
          let nnz = parse_int !lineno nnz in
          if Hashtbl.mem seen_ids id then
            fail !lineno (Printf.sprintf "duplicate coflow id %d" id);
          Hashtbl.add seen_ids id ();
          if release < 0 then fail !lineno "negative release date";
          if Float.is_nan weight || weight <= 0.0 then
            fail !lineno
              (Printf.sprintf "weight must be positive and finite, got %g"
                 weight);
          if nnz < 0 then fail !lineno "negative flow count";
          let d = Mat.make ports in
          for _ = 1 to nnz do
            let fl = next () in
            match tokens !lineno fl with
            | [ i; j; v ] ->
              let i = parse_int !lineno i
              and j = parse_int !lineno j
              and v = parse_int !lineno v in
              if i < 0 || i >= ports || j < 0 || j >= ports then
                fail !lineno
                  (Printf.sprintf "port out of range: (%d, %d) with %d ports"
                     i j ports);
              if v <= 0 then
                fail !lineno (Printf.sprintf "flow size must be positive, got %d" v);
              if Mat.get d i j > 0 then
                fail !lineno (Printf.sprintf "duplicate flow (%d, %d)" i j);
              (try Mat.set d i j v
               with Invalid_argument msg -> fail !lineno msg)
            | _ -> fail !lineno "expected '<i> <j> <size>'"
          done;
          let total = Mat.total d in
          last := max !last release;
          if total > max_int - !units || !last > max_int - !units - total
          then
            fail header
              (Printf.sprintf
                 "coflow %d pushes the total units, or the latest release \
                  plus them, past max_int"
                 id);
          units := !units + total;
          coflows :=
            { Instance.id; release; weight; demand = d } :: !coflows
        | _ -> fail !lineno "expected '<id> <release> <weight> <nnz>'"
      done;
      (match !body with (n, _) :: _ -> fail n "trailing content" | [] -> ());
      Instance.make ~ports (List.rev !coflows))

let save path inst =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string inst))

let load path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let len = in_channel_length ic in
      of_string (really_input_string ic len))
