(* Generate a synthetic coflow trace file.

   Usage: trace_gen OUT [--kind fb|uniform|mapreduce] [--ports N]
                    [--coflows N] [--seed N] [--mean-gap N] [--stats] *)

open Cmdliner
open Workload

let kinds = [ ("fb", `Fb); ("uniform", `Uniform); ("mapreduce", `Mapreduce) ]

let ( let* ) = Result.bind

let generate out kind ports coflows seed mean_gap stats =
  let st = Random.State.make [| seed |] in
  (* the generators reject impossible shapes (e.g. --ports 0) and OUT may
     be unwritable: both are reported, not raised *)
  let* inst =
    try
      let inst =
        match kind with
        | `Fb ->
          if mean_gap > 0 then
            Fb_like.generate_with_arrivals ~mean_gap ~ports ~coflows st
          else Fb_like.generate ~ports ~coflows st
        | `Uniform -> Synthetic.uniform ~ports ~coflows st
        | `Mapreduce ->
          Synthetic.mapreduce_instance ~arrival_spacing:mean_gap ~ports
            ~coflows st
      in
      Trace.save out inst;
      Ok inst
    with Invalid_argument msg | Sys_error msg -> Error msg
  in
  Format.printf "wrote %s: %a@." out Instance.pp_summary inst;
  if stats then begin
    Format.printf "@.%a@." Stats.pp (Stats.summarize inst);
    Format.printf "@.width histogram (M0 <= bound: count):@.";
    List.iter
      (fun (bound, count) ->
        if bound = max_int then Format.printf "  rest: %d@." count
        else Format.printf "  <= %4d: %d@." bound count)
      (Stats.width_histogram inst)
  end;
  Ok 0

let out_arg = Arg.(required & pos 0 (some string) None & info [] ~docv:"OUT")

let kind_arg =
  Arg.(
    value & opt (enum kinds) `Fb
    & info [ "kind" ] ~docv:"KIND"
        ~doc:(Printf.sprintf "Workload family, %s" (doc_alts_enum kinds)))

let ports_arg = Arg.(value & opt int 24 & info [ "ports" ] ~docv:"N")

let coflows_arg = Arg.(value & opt int 100 & info [ "coflows" ] ~docv:"N")

let seed_arg = Arg.(value & opt int 1 & info [ "seed" ] ~docv:"N")

let gap_arg = Arg.(value & opt int 0 & info [ "mean-gap" ] ~docv:"N")

let stats_arg = Arg.(value & flag & info [ "stats" ])

let cmd =
  let doc = "Generate a synthetic coflow trace" in
  Cmd.v
    (Cmd.info "coflow-trace-gen" ~doc)
    Term.(
      const generate $ out_arg $ kind_arg $ ports_arg $ coflows_arg $ seed_arg
      $ gap_arg $ stats_arg)

let () = exit (Cmd.eval_result' cmd)
