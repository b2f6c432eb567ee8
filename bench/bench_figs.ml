(* Reproduction of the paper's figures (8–17): overhead and performance
   sweeps over matrix size on both testbed models. Each figure is
   printed as the series the paper plots. *)

module C = Cholesky
open Bench_util

let enhanced = Abft.Scheme.enhanced ()

let print_sweep title columns (machine : Hetsim.Machine.t) =
  header (Printf.sprintf "%s (%s)" title machine.Hetsim.Machine.name);
  Format.printf "%-8s" "n";
  List.iter (fun (label, _) -> Format.printf "%16s" label) columns;
  Format.printf "@.";
  List.iter
    (fun n ->
      Format.printf "%-8d" n;
      List.iter (fun (_, cell) -> Format.printf "%16s" (cell n)) columns;
      Format.printf "@.")
    (sizes machine)

let pct v = Printf.sprintf "%.2f%%" v

(* Figures 8 & 9 — Optimization 1: overhead before/after concurrent
   checksum recalculation. *)
let fig8_9 () =
  List.iter
    (fun ((machine : Hetsim.Machine.t), _) ->
      let cell opt1 n =
        let r = run ~opt1 machine enhanced n in
        pct (overhead_pct ~opt1 machine n r.C.Schedule.makespan)
      in
      print_sweep "Figures 8/9 — Optimization 1 (concurrent recalculation)"
        [ ("before opt1", cell false); ("after opt1", cell true) ]
        machine)
    machines;
  paper "saves ~2 points on tardis (weak Fermi concurrency), ~10 on bulldozer64 (Hyper-Q)"

(* Figures 10 & 11 — Optimization 2: overhead with checksum updating
   inline on the GPU vs offloaded (CPU on tardis, GPU stream on
   bulldozer64, per the placement decision). *)
let fig10_11 () =
  List.iter
    (fun ((machine : Hetsim.Machine.t), _) ->
      let cell opt2 n =
        let r = run ~opt2 machine enhanced n in
        pct (overhead_pct ~opt2 machine n r.C.Schedule.makespan)
      in
      print_sweep "Figures 10/11 — Optimization 2 (checksum-update placement)"
        [ ("before opt2", cell C.Config.Gpu_inline);
          ("after opt2", cell C.Config.Auto) ]
        machine)
    machines;
  paper "saves ~5%% of the overhead on tardis (CPU), ~8%% on bulldozer64 (GPU stream)"

(* Figures 12 & 13 — Optimization 3: overhead at K = 1, 3, 5. *)
let fig12_13 () =
  List.iter
    (fun ((machine : Hetsim.Machine.t), _) ->
      let column k =
        ( Printf.sprintf "K=%d" k,
          fun n ->
            let r = run machine (Abft.Scheme.enhanced ~k ()) n in
            pct (overhead_pct machine n r.C.Schedule.makespan) )
      in
      print_sweep "Figures 12/13 — Optimization 3 (verification interval K)"
        (List.map column [ 1; 3; 5 ])
        machine)
    machines;
  paper "overhead drops significantly as K grows"

(* Figures 14 & 15 — overhead comparison across the three ABFT schemes
   (all optimizations on). *)
let fig14_15 () =
  List.iter
    (fun ((machine : Hetsim.Machine.t), _) ->
      let cell scheme n =
        let r = run machine scheme n in
        pct (overhead_pct machine n r.C.Schedule.makespan)
      in
      print_sweep "Figures 14/15 — overhead comparison"
        [
          ("offline", cell Abft.Scheme.Offline);
          ("online", cell Abft.Scheme.Online);
          ("enhanced", cell enhanced);
        ]
        machine)
    machines;
  paper "enhanced <6%% on tardis, <4%% on bulldozer64; slightly above offline/online; ~constant at large n"

(* Figures 16 & 17 — performance (GFLOPS) of MAGMA, CULA and the three
   ABFT schemes. *)
let fig16_17 () =
  List.iter
    (fun ((machine : Hetsim.Machine.t), _) ->
      let gf g = Printf.sprintf "%.0f" g in
      let cell scheme n = gf (run machine scheme n).C.Schedule.gflops in
      print_sweep "Figures 16/17 — performance (GFLOPS)"
        [
          ("magma", cell Abft.Scheme.No_ft);
          ("cula", fun n -> gf (C.Cula_model.run machine ~n).C.Cula_model.gflops);
          ("offline", cell Abft.Scheme.Offline);
          ("online", cell Abft.Scheme.Online);
          ("enhanced", cell enhanced);
        ]
        machine)
    machines;
  paper "MAGMA fastest; all three ABFT variants close behind; every ABFT variant beats CULA"
