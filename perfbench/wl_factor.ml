(* factor-large: a closed loop with one stream factoring one seeded
   512×512 SPD matrix (tile 128), alternating No_ft and Enhanced k=1
   on the default pool of one lane. Kernels and Ft's residual GEMM do
   nearly all the work. *)

open Matrix
open Common
module C = Cholesky
module Pool = Parallel.Pool

(* 512, not larger: at 1024 a factorization takes about a second, its
   matrices (8 MB each) sit in the last-level cache other tenants of a
   shared host use, and its fastest-of moved by a third from run to
   run. At 512 one takes about a seventh of a second, and every window
   of a run holds a dozen of them. *)
let n = 512
let block = 128

let config scheme =
  C.Config.make ~machine:Hetsim.Machine.testbench ~block ~scheme ()

let no_ft = config Abft.Scheme.No_ft
let enhanced = config (Abft.Scheme.enhanced ~k:1 ())

type env = { a : Mat.t; pool : Pool.t }

(* One factorization per scheme at a quarter of the order: domains
   spawned, code paged in. *)
let warm_up ~seed pool =
  let w = Spd.random_spd ~seed:(seed + 1) (n / 4) in
  List.iter
    (fun cfg -> ignore (C.Ft.factor ~pool cfg w : C.Ft.report))
    [ no_ft; enhanced ]

(* The seeded input, generated from a collected heap. *)
let input ~seed =
  Gc.full_major ();
  timed (fun () -> Spd.random_spd ~seed n)

(* Set-up is the pool start, paid once, and the seeded input. *)
let setup ~seed =
  let pool, pool_s = timed Pool.default in
  let a, input_s = input ~seed in
  warm_up ~seed pool;
  ({ a; pool }, pool_s, input_s)

(* Each timed call starts from a collected heap, so no call pays for
   the garbage of the one before. *)
let factor ?obs ?(pool = fun env -> env.pool) ~seed env cfg =
  Gc.full_major ();
  let r, s = timed (fun () -> C.Ft.factor ~pool:(pool env) ?obs cfg env.a) in
  (r, s, check_factor ~seed ~what:"factor-large" env.a r)

let flops = float_of_int n ** 3. /. 3.

(* The run is a loop of cycles, each of which generates the input
   afresh and factors it once per scheme, which goes first alternating,
   so drift hits both alike. Set-up is timed in every cycle too. *)
type cycle = { i : int; input_s : float; e : float; nf : float }

(* A cycle takes about a third of a second: twelve windows of about
   two seconds, each of five or more cycles. Each of the host's cores
   slows in spells of a few seconds, so short windows find a calm one
   in every run: with six, the p99 spread a fifth between runs. *)
let cycle_windows = 12

let run ~seed ~seconds =
  let env, pool_s, input_s = setup ~seed in
  let deadline = now () +. seconds in
  let cycles = ref [] in
  let attempted = ref 0 and failed = ref 0 in
  let one env cfg =
    let _, s, ok = factor ~seed env cfg in
    incr attempted;
    if not ok then incr failed;
    s
  in
  let i = ref 0 in
  while !i < 2 * cycle_windows || now () < deadline do
    let a, input_s = input ~seed in
    let env = { env with a } in
    let e, nf =
      if !i mod 2 = 0 then
        let nf = one env no_ft in
        (one env enhanced, nf)
      else
        let e = one env enhanced in
        (e, one env no_ft)
    in
    cycles := { i = !i; input_s; e; nf } :: !cycles;
    incr i
  done;
  let cs = !cycles in
  let ws = group ~windows:cycle_windows ~index:(fun c -> c.i) cs in
  let enh w = List.map (fun c -> c.e) w in
  (* the tails take both schemes (within a few percent of each other),
     so a window holds enough samples for a p90 *)
  let walls w = List.concat_map (fun c -> [ c.e; c.nf ]) w in
  let tail q = fastest_time (fun w -> quantile q (walls w)) ws in
  let p50 = fastest_time (fun w -> median (enh w)) ws in
  {
    attempted = !attempted;
    failed = !failed;
    metrics =
      [
        ( "setup_s",
          pool_s +. List.fold_left (fun m c -> Float.min m c.input_s) input_s cs );
        ("peak_rss_mb", peak_rss_mb ());
        ("latency_p50_ms", ms p50);
        ("latency_p90_ms", ms (tail 0.9));
        ("latency_p99_ms", ms (tail 0.99));
        ( "ops_per_s",
          fastest_rate
            (fun w -> ratio (float_of_int (List.length (walls w))) (sum (walls w)))
            ws );
        ("gflops", gflops ~flops p50);
        ("ft_overhead_ratio", median (List.map (fun c -> c.e /. c.nf) cs));
      ];
    extra =
      [
        ("failed_frac", ratio (float_of_int !failed) (float_of_int !attempted));
        ("cycles", float_of_int !i);
        ("run.latency_p50_ms", ms (median (List.map (fun c -> c.e) cs)));
      ];
  }

let run_traced ~seed ~lanes ~trace_path =
  let env, _, _ = setup ~seed in
  let probes = layer_probes ~pool:env.pool ~seed ~b:block ~n_resid:n in
  let attempted = ref 0 and failed = ref 0 in
  let count ok =
    incr attempted;
    if not ok then incr failed
  in
  let traced_run ?pool () =
    let obs = Obs.create () in
    let r, s, ok =
      Obs.span obs ~op:"ft.factor" ~phase:"bench" (fun () ->
          factor ~obs ?pool ~seed env enhanced)
    in
    count ok;
    (obs, r, s)
  in
  (* traced and untraced Enhanced runs, alternating which goes first *)
  let traced = ref [] and plain = ref [] in
  for i = 0 to 2 do
    let traced_run () = traced := traced_run () :: !traced in
    let plain_run () =
      let _, s, ok = factor ~seed env enhanced in
      count ok;
      plain := s :: !plain
    in
    if i mod 2 = 0 then (traced_run (); plain_run ())
    else (plain_run (); traced_run ())
  done;
  (* The pool speeds up only Ft's compute phase: the residual
     GEMM runs on the default pool whatever pool Ft is given. So
     the speedup compares compute-phase time on the one-lane default
     pool and on an nproc-lane pool, with the same warm-up and
     collected heap. *)
  let wide = Pool.create ~domains:lanes ~racecheck:false () in
  warm_up ~seed wide;
  let wide_runs = List.init 2 (fun _ -> traced_run ~pool:(fun _ -> wide) ()) in
  Pool.shutdown wide;
  let solve_ms =
    let sys = C.Solve.factorize ~pool:env.pool ~cfg:enhanced env.a in
    let b = Array.init n (fun i -> 1. +. float_of_int ((i * 7919) mod 13)) in
    let samples =
      List.init 10 (fun _ ->
          let (x, _), s = timed (fun () -> C.Solve.solve_vec sys b) in
          count (solve_ok env.a x b);
          s)
    in
    ms (median samples)
  in
  let runs = List.rev !traced in
  let med f = median (List.map f runs) in
  let phases = List.map (fun (obs, _, _) -> ft_phases obs) runs in
  let pmed f = median (List.map f phases) in
  let compute_s runs =
    median (List.map (fun (obs, _, _) -> (ft_phases obs).compute_s) runs)
  in
  let coverages =
    List.map2 (fun p (_, _, s) -> phases_total p /. s) phases runs
  in
  let obs0, r0, _ = List.hd runs in
  write_file trace_path (Obs.chrome_trace obs0);
  let st = r0.C.Ft.stats in
  let fi x = float_of_int x in
  {
    attempted = !attempted;
    failed = !failed;
    metrics =
      probes
      @ [
          ("abft.encode_ms", ms (pmed (fun p -> p.encode_s)));
          ("abft.chk_update_ms", ms (pmed (fun p -> p.chk_update_s)));
          ("abft.compare_ms", ms (pmed (fun p -> p.compare_s)));
          ("abft.verify_ms", ms (pmed (fun p -> p.verify_s)));
          ("cholesky.compute_s", pmed (fun p -> p.compute_s));
          ("cholesky.residual_s", pmed (fun p -> p.residual_s));
          ("cholesky.recovery_s", pmed (fun p -> p.recovery_s));
          ("cholesky.init_s", pmed (fun p -> p.init_s));
          ("cholesky.span_coverage", median coverages);
          ("cholesky.verifications", fi st.C.Ft.verifications);
          ("cholesky.corrections", fi st.C.Ft.corrections);
          ("cholesky.reconstructions", fi st.C.Ft.reconstructions);
          ("cholesky.checksum_repairs", fi st.C.Ft.checksum_repairs);
          ("cholesky.rollbacks", fi st.C.Ft.rollbacks);
          ("cholesky.restarts", fi st.C.Ft.restarts);
          ( "cholesky.useful_frac",
            1. /. fi (1 + st.C.Ft.restarts + st.C.Ft.rollbacks) );
          ("cholesky.solve_ms", solve_ms);
          ("parallel.speedup", ratio (compute_s runs) (compute_s wide_runs));
          ("parallel.tasks", med (fun (obs, _, _) -> counter obs "pool.tasks"));
          ( "parallel.inline_batches",
            med (fun (obs, _, _) -> counter obs "pool.inline_batches") );
          ( "obs.trace_overhead_ratio",
            ratio (med (fun (_, _, s) -> s)) (median !plain) );
          ( "check.layer_sum_failed",
            fi (List.length (List.filter (fun c -> not (coverage_ok c)) coverages))
          );
        ];
    extra = [];
  }
