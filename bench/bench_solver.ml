(* Solver — overhead of the fault-tolerant PCG harness.

   Measures iterations-to-convergence and wall time of the protected
   solver (periodic true-residual verification + verified checkpoints)
   against the unprotected CG baseline (verify_interval = 0) at several
   verification cadences, on clean runs and under a seeded In_solver
   storm. Clean runs quantify the pure cost of protection — the extra
   matrix-vector product per verification and the checkpoint copies —
   while the faulted runs show what the same cadence buys: the
   unprotected solver silently returns whatever the corrupted recurrence
   converged to, the protected one detects and recovers.

   Each protected solve runs back to back with an unprotected one,
   alternating which goes first, and a cell's overhead is the median of
   those paired ratios (as perfbench's ft_overhead_ratio takes it): the
   host's slow spells then land on both sides of a pair instead of
   deciding which cadence looks cheapest. *)

open Matrix

(* Conditioned so PCG takes a few hundred iterations with a
   block-Jacobi preconditioner — enough for every cadence to verify
   many times mid-run — while staying comfortably inside the default
   2n iteration budget. *)
let n = 384
let block = 8
let verify_intervals = [ 4; 16; 64 ]
let seeds = [ 1; 2; 3 ]

(* Paired runs per clean cell; a storm cell pairs one run per seed. *)
let pairs = 5

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let median xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let k = Array.length a in
  if k mod 2 = 1 then a.(k / 2) else (a.((k / 2) - 1) +. a.(k / 2)) /. 2.

let mean xs = List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

(* One measured cell: [label] is the table row, [name] the JSON row,
   and each run is (report, protected wall, paired unprotected wall). *)
type cell = {
  label : string;
  name : string;
  runs : (Solvers.Cg.report * float * float) list;
}

let run () =
  Bench_util.header
    (Printf.sprintf
       "Solver — protected PCG overhead vs unprotected CG (n = %d, \
        block-Jacobi)"
       n);
  let a = Spd.random_spd_cond ~seed:7 ~cond:1e3 n in
  let b = Array.init n (fun i -> 1. +. (float_of_int (i mod 7) /. 7.)) in
  let precond = Solvers.Cg.block_jacobi ~block a in
  let solve ?plan cfg () = time (fun () -> Solvers.Cg.solve ?plan ~precond cfg a b) in
  (* verify_interval = 0 disables the whole harness *)
  let unprotected = solve (Solvers.Cg.config ~verify_interval:0 ()) in
  let paired i protected =
    if i mod 2 = 0 then
      let _, base = unprotected () in
      let r, wall = protected () in
      (r, wall, base)
    else
      let r, wall = protected () in
      let _, base = unprotected () in
      (r, wall, base)
  in
  let cfg vi =
    Solvers.Cg.config ~verify_interval:vi ~checkpoint_interval:(2 * vi) ()
  in
  let clean =
    List.map
      (fun vi ->
        {
          label = Printf.sprintf "protected k=%d" vi;
          name = Printf.sprintf "protected-k%d" vi;
          runs = List.init pairs (fun i -> paired i (solve (cfg vi)));
        })
      verify_intervals
  in
  (* The same cadences under a storm: the protected solver must keep
     converging to a verified answer; the per-cadence iteration counts
     show how detection latency (longer cadence = staler checkpoints
     and later detections) translates into recovery work. *)
  let storm =
    List.map
      (fun vi ->
        {
          label = Printf.sprintf "storm k=%d" vi;
          name = Printf.sprintf "storm-k%d" vi;
          runs =
            List.mapi
              (fun i seed ->
                let plan =
                  Fault.random_solver_plan ~seed ~n ~iters:12 ~count:6 ()
                in
                paired i (solve ~plan (cfg vi)))
              seeds;
        })
      verify_intervals
  in
  let stat runs f =
    mean
      (List.map
         (fun ((r : Solvers.Cg.report), _, _) ->
           float_of_int (f r.Solvers.Cg.stats))
         runs)
  in
  let iterations s = s.Solvers.Cg.iterations in
  let converged runs =
    List.for_all
      (fun ((r : Solvers.Cg.report), _, _) ->
        r.Solvers.Cg.outcome = Solvers.Cg.Converged)
      runs
  in
  let yes ok = if ok then "yes" else "NO" in
  let flag ok = if ok then 1. else 0. in
  let base_runs = List.concat_map (fun c -> c.runs) clean in
  let base_wall = median (List.map (fun (_, _, w) -> w) base_runs) in
  Format.printf "%-22s%12s%12s%12s%14s@." "configuration" "iters" "wall"
    "overhead" "converged";
  (* the unprotected solve is deterministic: every pair converges alike *)
  let base_iters, base_converged =
    let r, _ = unprotected () in
    ( float_of_int (iterations r.Solvers.Cg.stats),
      r.Solvers.Cg.outcome = Solvers.Cg.Converged )
  in
  Format.printf "%-22s%12.1f%10.2f ms%12s%14s@." "unprotected" base_iters
    (base_wall *. 1000.) "—" (yes base_converged);
  Bench_util.record ~name:"unprotected" ~size:n
    [
      ("iterations", base_iters);
      ("wall_s", base_wall);
      ("overhead_pct", 0.);
      ("verified", 0.);
      ("converged", flag base_converged);
    ];
  let report ?(extra = fun _ -> []) c =
    let wall = median (List.map (fun (_, w, _) -> w) c.runs) in
    let overhead_pct =
      (median (List.map (fun (_, w, base) -> w /. base) c.runs) -. 1.) *. 100.
    in
    let iters = stat c.runs iterations in
    let ok = converged c.runs in
    Format.printf "%-22s%12.1f%10.2f ms%11.1f%%%14s@." c.label iters (wall *. 1000.) overhead_pct (yes ok);
    Bench_util.record ~name:c.name ~size:n
      ([
         ("iterations", iters);
         ("wall_s", wall);
         ("overhead_pct", overhead_pct);
         ("verified", 1.);
         ("converged", flag ok);
       ]
      @ extra c)
  in
  List.iter report clean;
  Bench_util.note
    "faulted leg: 6 In_solver bit flips, iterations 1..12, seeds %s"
    (String.concat "," (List.map string_of_int seeds));
  List.iter
    (report ~extra:(fun c ->
         [
           ("detections", stat c.runs (fun s -> s.Solvers.Cg.detections));
           ("reconstructions", stat c.runs (fun s -> s.Solvers.Cg.reconstructions));
           ("rollbacks", stat c.runs (fun s -> s.Solvers.Cg.rollbacks));
           ("restarts", stat c.runs (fun s -> s.Solvers.Cg.restarts));
         ]))
    storm;
  Bench_util.note
    "wall is the median protected solve; overhead is the median of %d \
     paired protected/unprotected ratios per clean cell (one per seed \
     under the storm)"
    pairs
