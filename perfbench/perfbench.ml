(* perfbench — runs one benchmark workload and prints its metrics.

     perfbench --workload NAME --seed N --seconds S --trace 0|1 [--lanes L]

   Workloads: factor-large, soak-storm, serve-mixed, sim-paper. With
   --trace 0 the run measures the end-to-end metrics untraced; with
   --trace 1 it runs once with a live Obs sink, reports the per-layer
   metrics and writes perfbench/out/<workload>.trace.json (Chrome trace
   format) under the working directory.

   The last line of standard output is
     PERFBENCH {"correct": ..., "attempted": ..., "failed": ...,
                "metrics": {...}, "extra": {...}}
   which run.py turns into the benchmark's result line. Exit codes:
   0 — every output checked correct; 2 — usage error; 3 — a wrong
   output, a silent corruption or an invalid run (listed on stderr). *)

open Common

let usage () =
  prerr_endline
    "usage: perfbench --workload factor-large|soak-storm|serve-mixed|sim-paper \
     --seed N --seconds S --trace 0|1 [--lanes L]";
  exit 2

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 10. in
  let trace = ref 0 in
  let lanes = ref (Domain.recommended_domain_count ()) in
  let specs =
    [
      ("--workload", Arg.Set_string workload, "NAME");
      ("--seed", Arg.Set_int seed, "N");
      ("--seconds", Arg.Set_float seconds, "S");
      ("--trace", Arg.Set_int trace, "0|1");
      ("--lanes", Arg.Set_int lanes, "L");
    ]
  in
  (try Arg.parse_argv Sys.argv specs (fun _ -> usage ()) ""
   with Arg.Bad _ | Arg.Help _ -> usage ());
  if !seconds <= 0. || !lanes < 1 || (!trace <> 0 && !trace <> 1) then usage ();
  let seed = !seed and seconds = !seconds and lanes = !lanes in
  let traced = !trace = 1 in
  (* The library's default pool is the benchmark's one pool: Ft's
     residual GEMM runs on it whatever pool Ft is given, so a second
     pool would only add idle domains to every
     stop-the-world collection. It is sized here, never inherited, at
     one lane: on a host of few shared cores a fork/join over every
     core waits on whichever core another tenant holds, and its run
     times spread past any bound; where tiles are small or every
     server worker owns a core, fan-out gains nothing anyway. The
     traced factor-large run measures an nproc-lane pool beside it. *)
  Unix.putenv Parallel.Pool.env_var "1";
  Unix.putenv Parallel.Pool.racecheck_env_var "0";
  let trace_path = Filename.concat "perfbench/out" (!workload ^ ".trace.json") in
  let r =
    match (!workload, traced) with
    | "factor-large", false -> Wl_factor.run ~seed ~seconds
    | "factor-large", true -> Wl_factor.run_traced ~seed ~lanes ~trace_path
    | "soak-storm", false -> Wl_soak.run ~seed ~seconds
    | "soak-storm", true -> Wl_soak.run_traced ~seed ~seconds ~trace_path
    | "serve-mixed", false -> Wl_serve.run ~seed ~seconds ~lanes
    | "serve-mixed", true ->
        Wl_serve.run_traced ~seed ~seconds ~lanes ~trace_path
    | "sim-paper", false -> Wl_sim.run ~seed ~seconds
    | "sim-paper", true -> Wl_sim.run_traced ~seed ~seconds ~trace_path
    | _ -> usage ()
  in
  let wrong = List.rev !wrong in
  List.iter (fun w -> prerr_endline ("perfbench: WRONG: " ^ w)) wrong;
  let correct = wrong = [] in
  let obj kvs =
    "{"
    ^ String.concat ", "
        (List.map (fun (k, v) -> Obs.Json.quote k ^ ": " ^ Obs.Json.number v) kvs)
    ^ "}"
  in
  Printf.printf
    "PERFBENCH {\"correct\": %b, \"attempted\": %d, \"failed\": %d, \
     \"metrics\": %s, \"extra\": %s}\n"
    correct r.attempted r.failed (obj r.metrics) (obj r.extra);
  exit (if correct then 0 else 3)
