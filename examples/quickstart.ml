(* Quickstart: the 2x2 MapReduce coflow from Figure 1 of the paper, end to
   end — build the demand matrix, inspect its load, decompose it with
   Algorithm 1, and execute it on the switch simulator.

   Run with:  dune exec examples/quickstart.exe *)

open Matrix
open Workload
open Core

let () =
  (* A shuffle stage with 2 mappers and 2 reducers: mapper i must send
     d(i,j) units to reducer j. *)
  let demand = Mat.of_arrays [| [| 1; 2 |]; [| 2; 1 |] |] in
  Format.printf "Figure 1 coflow:@.%a@." Mat.pp demand;

  (* rho(D) is the bottleneck load: no schedule can clear D alone faster. *)
  Format.printf "load rho(D) = %d slots@.@." (Coflow.load demand);

  (* Algorithm 1: augment to a doubly-balanced matrix, peel off perfect
     matchings.  The schedule has exactly rho(D) slots. *)
  let schedule = Bvn.schedule demand in
  Format.printf "Birkhoff-von Neumann schedule (%d matchings, %d slots):@."
    (Bvn.matchings_used schedule)
    (Bvn.duration schedule);
  List.iter
    (fun (matching, q) ->
      Format.printf "  {%s} for %d slot(s)@."
        (String.concat ", "
           (List.map
              (fun (i, j) -> Printf.sprintf "%d->%d" i j)
              (Bvn.pairs matching)))
        q)
    schedule;

  (* Execute against the switch simulator, which enforces the matching
     constraints every slot and measures the true completion time. *)
  let inst =
    Instance.make ~ports:2
      [ { Instance.id = 0; release = 0; weight = 1.0; demand } ]
  in
  let result = Scheduler.run ~case:Scheduler.Base inst [| 0 |] in
  Format.printf "@.simulated completion time: %d slot(s)@."
    result.Scheduler.completion.(0);
  assert (result.Scheduler.completion.(0) = Coflow.load demand);

  (* Now two competing coflows: the LP-based deterministic algorithm from
     the paper (order by LP, group by cumulative load, schedule by BvN). *)
  let rival = Mat.of_arrays [| [| 0; 0 |]; [| 0; 3 |] |] in
  let inst2 =
    Instance.make ~ports:2
      [ { Instance.id = 0; release = 0; weight = 1.0; demand };
        { Instance.id = 1; release = 0; weight = 5.0; demand = rival };
      ]
  in
  let lp = Lp_relax.solve_interval inst2 in
  let order = Ordering.by_lp lp in
  let result2 = Scheduler.run ~case:Scheduler.Group_backfill inst2 order in
  Format.printf
    "@.two coflows, weights 1 and 5:@.  LP lower bound = %.2f@.  completions \
     = C0:%d C1:%d@.  total weighted completion time = %.0f@."
    lp.Lp_relax.lower_bound result2.Scheduler.completion.(0)
    result2.Scheduler.completion.(1) result2.Scheduler.twct
