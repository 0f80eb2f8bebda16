(* Text-format models for the LP tests. *)

open Lp

let pp_term buf first coeff name =
  if coeff >= 0.0 && not first then Buffer.add_string buf " + "
  else if coeff < 0.0 then Buffer.add_string buf (if first then "-" else " - ");
  let mag = Float.abs coeff in
  if mag <> 1.0 then Buffer.add_string buf (Printf.sprintf "%.12g " mag);
  Buffer.add_string buf name

let pp_expr buf model expr =
  if expr = [] then Buffer.add_string buf "0 x_unused"
  else
    List.iteri
      (fun i (c, v) ->
        pp_term buf (i = 0) c (Model.var_name model v))
      expr

let to_string model =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "\\ %s (written by coflow-sched lp_io)\n"
       (Model.name model));
  let dir, obj, constant = Model.objective model in
  Buffer.add_string buf
    (match dir with `Minimize -> "Minimize\n" | `Maximize -> "Maximize\n");
  Buffer.add_string buf " obj: ";
  pp_expr buf model obj;
  if constant <> 0.0 then
    Buffer.add_string buf (Printf.sprintf " + %.12g const_one" constant);
  Buffer.add_string buf "\nSubject To\n";
  for r = 0 to Model.num_constraints model - 1 do
    let expr, sense, rhs = Model.constraint_row model r in
    Buffer.add_string buf (Printf.sprintf " c%d: " r);
    pp_expr buf model expr;
    let op =
      match sense with Model.Le -> "<=" | Model.Ge -> ">=" | Model.Eq -> "="
    in
    Buffer.add_string buf (Printf.sprintf " %s %.12g\n" op rhs)
  done;
  if constant <> 0.0 then
    (* encode the objective constant as a variable fixed to 1 *)
    Buffer.add_string buf " c_const: const_one = 1\n";
  Buffer.add_string buf "End\n";
  Buffer.contents buf

(* ---------- parsing ---------- *)

type token = Word of string | Num of float | Op of string | Colon

let tokenize_line line =
  let n = String.length line in
  let tokens = ref [] in
  let i = ref 0 in
  let is_word_char ch =
    (ch >= 'a' && ch <= 'z')
    || (ch >= 'A' && ch <= 'Z')
    || (ch >= '0' && ch <= '9')
    || ch = '_' || ch = '(' || ch = ')' || ch = '['
    || ch = ']' || ch = '.' || ch = '#'
  in
  while !i < n do
    let ch = line.[!i] in
    if ch = ' ' || ch = '\t' || ch = '\r' then incr i
    else if ch = '\\' then i := n (* comment *)
    else if ch = ':' then begin
      tokens := Colon :: !tokens;
      incr i
    end
    else if ch = '+' || ch = '-' then begin
      tokens := Op (String.make 1 ch) :: !tokens;
      incr i
    end
    else if ch = '<' || ch = '>' || ch = '=' then begin
      let j = if !i + 1 < n && line.[!i + 1] = '=' then !i + 2 else !i + 1 in
      let op = String.sub line !i (j - !i) in
      let op = match op with "<" -> "<=" | ">" -> ">=" | o -> o in
      tokens := Op op :: !tokens;
      i := j
    end
    else if (ch >= '0' && ch <= '9') || ch = '.' then begin
      let j = ref !i in
      while
        !j < n
        && ((line.[!j] >= '0' && line.[!j] <= '9')
           || line.[!j] = '.' || line.[!j] = 'e' || line.[!j] = 'E'
           || (!j > !i
              && (line.[!j] = '+' || line.[!j] = '-')
              && (line.[!j - 1] = 'e' || line.[!j - 1] = 'E')))
      do
        incr j
      done;
      let s = String.sub line !i (!j - !i) in
      (* a token like "3x" is a coefficient immediately followed by a word;
         only consume the numeric prefix *)
      (match float_of_string_opt s with
      | Some v -> tokens := Num v :: !tokens
      | None -> failwith (Printf.sprintf "bad number %S" s));
      i := !j
    end
    else if is_word_char ch then begin
      let j = ref !i in
      while !j < n && is_word_char line.[!j] do
        incr j
      done;
      tokens := Word (String.sub line !i (!j - !i)) :: !tokens;
      i := !j
    end
    else failwith (Printf.sprintf "unexpected character %C" ch)
  done;
  List.rev !tokens

type section = S_none | S_objective of [ `Minimize | `Maximize ] | S_rows
  | S_bounds | S_end

let of_string text =
  let model = Model.create ~name:"lp_io" () in
  let vars = Hashtbl.create 64 in
  let var name =
    match Hashtbl.find_opt vars name with
    | Some v -> v
    | None ->
      let v = Model.add_var ~name model in
      Hashtbl.add vars name v;
      v
  in
  (* parse a linear expression followed optionally by (op, rhs) *)
  let parse_expr lineno tokens =
    let expr = ref [] in
    let rec go sign coeff = function
      | Op "+" :: rest -> go 1.0 None rest
      | Op "-" :: rest -> go (-1.0) None rest
      | Num v :: rest ->
        (match coeff with
        | Some _ -> failwith (Printf.sprintf "line %d: two numbers in a row" lineno)
        | None -> go sign (Some v) rest)
      | Word w :: rest ->
        let c = sign *. Option.value coeff ~default:1.0 in
        expr := (c, var w) :: !expr;
        go 1.0 None rest
      | Op op :: Num rhs :: [] when op = "<=" || op = ">=" || op = "=" ->
        (match coeff with
        | Some _ -> failwith (Printf.sprintf "line %d: dangling coefficient" lineno)
        | None -> ());
        (List.rev !expr, Some (op, rhs))
      | Op op :: Op "-" :: Num rhs :: [] when op = "<=" || op = ">=" || op = "=" ->
        (List.rev !expr, Some (op, -.rhs))
      | [] ->
        (match coeff with
        | Some _ -> failwith (Printf.sprintf "line %d: dangling coefficient" lineno)
        | None -> ());
        (List.rev !expr, None)
      | _ -> failwith (Printf.sprintf "line %d: cannot parse expression" lineno)
    in
    go 1.0 None tokens
  in
  let strip_label = function
    | Word _ :: Colon :: rest -> rest
    | tokens -> tokens
  in
  let section = ref S_none in
  let pending_obj = ref [] in
  let lines = String.split_on_char '\n' text in
  List.iteri
    (fun idx line ->
      let lineno = idx + 1 in
      (* the model rejects non-finite numbers (a literal such as 1e400 reads
         as infinity) with Invalid_argument; report it with the line *)
      try
        match tokenize_line line with
        | exception Failure m -> failwith (Printf.sprintf "line %d: %s" lineno m)
        | [] -> ()
        | [ Word w ] when String.lowercase_ascii w = "minimize" ->
          section := S_objective `Minimize
        | [ Word w ] when String.lowercase_ascii w = "maximize" ->
          section := S_objective `Maximize
        | [ Word s; Word t ]
          when String.lowercase_ascii s = "subject"
               && String.lowercase_ascii t = "to" ->
          section := S_rows
        | [ Word w ] when String.lowercase_ascii w = "bounds" ->
          section := S_bounds
        | [ Word w ] when String.lowercase_ascii w = "end" -> section := S_end
        | tokens -> (
          match !section with
          | S_none -> failwith (Printf.sprintf "line %d: content before a section" lineno)
          | S_end -> failwith (Printf.sprintf "line %d: content after End" lineno)
          | S_objective dir ->
            let expr, tail = parse_expr lineno (strip_label tokens) in
            if tail <> None then
              failwith (Printf.sprintf "line %d: comparison in objective" lineno);
            pending_obj := !pending_obj @ expr;
            (match dir with
            | `Minimize -> Model.minimize model !pending_obj
            | `Maximize -> Model.maximize model !pending_obj)
          | S_rows -> (
            let expr, tail = parse_expr lineno (strip_label tokens) in
            match tail with
            | Some (op, rhs) ->
              let sense =
                match op with
                | "<=" -> Model.Le
                | ">=" -> Model.Ge
                | _ -> Model.Eq
              in
              ignore (Model.add_constraint model expr sense rhs)
            | None ->
              failwith (Printf.sprintf "line %d: constraint without comparison" lineno))
          | S_bounds -> (
            match tokens with
            | [ Word _; Op ">="; Num 0.0 ] -> () (* the default; accept *)
            | _ ->
              failwith
                (Printf.sprintf
                   "line %d: only 'x >= 0' bounds are supported" lineno)))
      with Invalid_argument msg ->
        failwith (Printf.sprintf "line %d: %s" lineno msg))
    lines;
  model

let save path model =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string model))

let load path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let len = in_channel_length ic in
      of_string (really_input_string ic len))
