(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation section on the simulated testbeds, then the extension
   experiments and the protected-PCG overhead on the real kernels.

     dune exec bench/main.exe                 # everything
     dune exec bench/main.exe -- --only fig14_15 table7
     dune exec bench/main.exe -- --json out.json --only table7
     dune exec bench/main.exe -- --list

   The output of every virtual-time experiment is pinned byte for byte
   by test/fixtures/paper_tables.txt, which `dune runtest` diffs. *)

open Cmdliner

let experiments =
  [
    ("table1", "Table I — verification counts", Bench_tables.table1);
    ("table2_6", "Tables II-VI — analytic overhead model", Bench_tables.table2_6);
    ("table7", "Table VII — capability, TARDIS 20480^2", Bench_tables.table7);
    ("table8", "Table VIII — capability, BULLDOZER64 30720^2", Bench_tables.table8);
    ("fig8_9", "Figures 8/9 — Optimization 1", Bench_figs.fig8_9);
    ("fig10_11", "Figures 10/11 — Optimization 2", Bench_figs.fig10_11);
    ("fig12_13", "Figures 12/13 — Optimization 3", Bench_figs.fig12_13);
    ("fig14_15", "Figures 14/15 — overhead comparison", Bench_figs.fig14_15);
    ("fig16_17", "Figures 16/17 — performance", Bench_figs.fig16_17);
    ("ablations", "Ablations — redundancy, d, K-tuner, sweep, placement",
     Bench_ablations.run);
    ("coverage", "Coverage — fault Monte-Carlo + checkpoint comparison",
     Bench_coverage.run);
    ("sensitivity", "Sensitivity — thresholds vs conditioning & magnitude",
     Bench_sensitivity.run);
    ("lu", "FT-LU and FT-QR extensions — capability + overhead at paper scale",
     Bench_lu.run);
    ("hardware", "Hardware — modern GPU + parameter sensitivity",
     Bench_hardware.run);
    ("resilience", "Resilience — device-fault overhead of the failure-aware \
                    scheduler", Bench_resilience.run);
    ("balance", "Balance — static vs adaptive CPU/GPU split under the GPU \
                 storm", Bench_balance.run);
    ("solver", "Solver — protected PCG overhead vs unprotected CG",
     Bench_solver.run);
  ]

let run_experiment (id, _, f) =
  Bench_util.current_experiment := id;
  (* One span per experiment: a trace of a full bench run shows which
     tables/figures dominate wall time. *)
  Obs.span !Bench_util.obs ~op:id ~phase:"experiment" f;
  Bench_util.current_experiment := ""

let write path contents =
  let oc = open_out path in
  output_string oc contents;
  close_out oc;
  Format.printf "@.wrote %s@." path

let run es ~json ~trace_out ~metrics_out =
  Bench_util.json_requested := json <> None;
  if trace_out <> None || metrics_out <> None then
    Bench_util.obs := Obs.create ();
  List.iter run_experiment es;
  Option.iter (fun path -> write path (Bench_util.json ())) json;
  Option.iter (fun path -> write path (Obs.chrome_trace !Bench_util.obs)) trace_out;
  Option.iter
    (fun path ->
      write path
        (Obs.metrics_json
           [
             {
               Obs.experiment = "bench";
               name = "all";
               size = 0;
               metrics = Obs.metric_list !Bench_util.obs;
             };
           ]))
    metrics_out

let main list only selected json trace_out metrics_out device_faults =
  Option.iter (fun r -> Bench_resilience.rates := [ r ]) device_faults;
  let run es = `Ok (run es ~json ~trace_out ~metrics_out) in
  match (list, only, selected) with
  | true, false, [] ->
      List.iter
        (fun (id, desc, _) -> Format.printf "%-10s %s@." id desc)
        experiments;
      `Ok ()
  | false, true, _ :: _ -> run selected
  | false, false, [] ->
      Format.printf
        "Reproducing the evaluation of 'Online Algorithm-Based Fault \
         Tolerance for Cholesky Decomposition on Heterogeneous Systems with \
         GPUs' (IPDPS'16).@.All times are virtual (discrete-event simulation \
         of the paper's testbeds) except the 'solver' section.@.";
      run experiments
  | _ -> `Error (true, "give --list, --only ID..., or no arguments")

let list_arg =
  Arg.(value & flag & info [ "list" ] ~doc:"List the experiment IDs and exit.")

let only_arg =
  Arg.(
    value & flag
    & info [ "only" ]
        ~doc:"Run only the experiments named by the $(i,ID) arguments.")

(* Parsed as an enum, so an unknown ID is a usage error before any
   experiment runs. *)
let ids_arg =
  let ids = List.map (fun ((id, _, _) as e) -> (id, e)) experiments in
  Arg.(value & pos_all (enum ids) [] & info [] ~docv:"ID")

let path_arg name doc =
  Arg.(value & opt (some string) None & info [ name ] ~docv:"PATH" ~doc)

let json_arg = path_arg "json" "Write every recorded result row to $(docv) as JSON."

let trace_out_arg =
  path_arg "trace-out"
    "Write a Chrome trace with one span per experiment to $(docv)."

let metrics_out_arg =
  path_arg "metrics-out" "Write the per-experiment span totals to $(docv) as JSON."

let device_faults_arg =
  let rate =
    Arg.conv
      ( (fun s ->
          match float_of_string_opt s with
          | Some r when r >= 0. && r <= 1. -> Ok r
          | _ -> Error (`Msg "rate must be a float in [0,1]")),
        Format.pp_print_float )
  in
  Arg.(
    value
    & opt (some rate) None
    & info [ "device-faults" ] ~docv:"RATE"
        ~doc:
          "Probe only this GPU storm intensity in the $(b,resilience) \
           experiment instead of its sweep.")

let () =
  let term =
    Term.(
      ret
        (const main $ list_arg $ only_arg $ ids_arg $ json_arg $ trace_out_arg
       $ metrics_out_arg $ device_faults_arg))
  in
  let doc = "reproduce the paper's tables and figures" in
  exit (Cmd.eval (Cmd.v (Cmd.info "main.exe" ~doc) term))
