(* Cross-module integration tests: full pipelines over matrix + fault +
   abft + cholesky + hetsim, structural consistency between the numeric
   driver and the verification-set formulas, and sanity of the
   simulated experiment shapes at test scale. *)

open Matrix
module C = Cholesky

let tb = Hetsim.Machine.testbench

(* ------------------------------------------------------------------ *)
(* Verification-count bookkeeping: the numeric driver must perform      *)
(* exactly the verifications the Sets module prescribes.                *)
(* ------------------------------------------------------------------ *)

let expected_enhanced_verifications ~grid ~k =
  let total = ref 0 in
  let add l = total := !total + List.length l in
  for j = 0 to grid - 1 do
    let gate = C.Sets.k_gate ~k ~j in
    if C.Sets.syrk_exists ~j then add (C.Sets.pre_syrk ~j);
    add (C.Sets.pre_potf2 ~j);
    if C.Sets.gemm_exists ~grid ~j && gate then add (C.Sets.pre_gemm ~grid ~j);
    if C.Sets.trsm_exists ~grid ~j && gate then add (C.Sets.pre_trsm ~grid ~j)
  done;
  !total

let expected_online_verifications ~grid =
  let total = ref 0 in
  let add l = total := !total + List.length l in
  for j = 0 to grid - 1 do
    if C.Sets.syrk_exists ~j then add (C.Sets.post_syrk ~j);
    add (C.Sets.post_potf2 ~j);
    if C.Sets.gemm_exists ~grid ~j then add (C.Sets.post_gemm ~grid ~j);
    if C.Sets.trsm_exists ~grid ~j then add (C.Sets.post_trsm ~grid ~j)
  done;
  !total

let test_verification_counts_match_sets () =
  let block = 8 in
  List.iter
    (fun grid ->
      let n = grid * block in
      let a = Spd.random_spd ~seed:grid n in
      List.iter
        (fun k ->
          let cfg =
            C.Config.make ~machine:tb ~block
              ~scheme:(Abft.Scheme.enhanced ~k ()) ()
          in
          let r = C.Ft.factor cfg a in
          Alcotest.(check int)
            (Printf.sprintf "enhanced g=%d k=%d" grid k)
            (expected_enhanced_verifications ~grid ~k)
            r.C.Ft.stats.C.Ft.verifications)
        [ 1; 2; 3 ];
      let cfg = C.Config.make ~machine:tb ~block ~scheme:Abft.Scheme.Online () in
      let r = C.Ft.factor cfg a in
      Alcotest.(check int)
        (Printf.sprintf "online g=%d" grid)
        (expected_online_verifications ~grid)
        r.C.Ft.stats.C.Ft.verifications;
      (* Offline verifies each lower tile exactly once, at the end. *)
      let cfg = C.Config.make ~machine:tb ~block ~scheme:Abft.Scheme.Offline () in
      let r = C.Ft.factor cfg a in
      Alcotest.(check int)
        (Printf.sprintf "offline g=%d" grid)
        (grid * (grid + 1) / 2)
        r.C.Ft.stats.C.Ft.verifications)
    [ 2; 4; 6 ]

(* ------------------------------------------------------------------ *)
(* End-to-end solve pipeline under a fault storm                        *)
(* ------------------------------------------------------------------ *)

let test_solve_pipeline_under_storm () =
  let grid = 6 and block = 8 in
  let n = grid * block in
  let a = Spd.random_spd ~seed:5 n in
  let x_true = Spd.random ~seed:6 n 3 in
  let b = Blas3.gemm_alloc a x_true in
  let plan =
    Fault.random_plan ~covered_only:true ~seed:21 ~grid ~block ~count:5
      ~storage_fraction:0.6 ()
  in
  let cfg = C.Config.make ~machine:tb ~block () in
  let r = C.Ft.factor ~plan cfg a in
  Alcotest.(check bool) "factor ok" true (r.C.Ft.outcome = C.Ft.Success);
  Alcotest.(check bool) "faults actually fired" true
    (List.length r.C.Ft.injections_fired >= 4);
  let x = Mat.copy b in
  Lapack.potrs Types.Lower r.C.Ft.factor x;
  Alcotest.(check bool) "solution accurate despite storm" true
    (Mat.approx_equal ~tol:1e-6 x_true x)

let test_every_scheme_ends_with_usable_factor_or_says_so () =
  (* Whatever a scheme can or cannot correct, the report's outcome must
     be consistent with the actual residual — no lying. *)
  let grid = 5 and block = 8 in
  let a = Spd.random_spd ~seed:8 (grid * block) in
  List.iter
    (fun scheme ->
      List.iter
        (fun seed ->
          let plan =
            Fault.random_plan ~seed ~grid ~block ~count:2 ~storage_fraction:0.5 ()
          in
          let cfg = C.Config.make ~machine:tb ~block ~scheme () in
          let r = C.Ft.factor ~plan cfg a in
          match r.C.Ft.outcome with
          | C.Ft.Success ->
              Alcotest.(check bool) "residual small" true
                (r.C.Ft.residual <= C.Recovery.residual_threshold)
          | C.Ft.Silent_corruption ->
              Alcotest.(check bool) "residual large" true
                (r.C.Ft.residual > C.Recovery.residual_threshold)
          | C.Ft.Gave_up _ -> ())
        [ 1; 2; 3; 4; 5 ])
    Abft.Scheme.all

(* ------------------------------------------------------------------ *)
(* Simulated experiment shapes at test scale                            *)
(* ------------------------------------------------------------------ *)

let test_overhead_decreases_with_n () =
  let machine = Hetsim.Machine.tardis in
  let overhead n =
    let base =
      (C.Schedule.run (C.Config.make ~machine ~scheme:Abft.Scheme.No_ft ()) ~n)
        .C.Schedule.makespan
    in
    let enh =
      (C.Schedule.run (C.Config.make ~machine ~scheme:(Abft.Scheme.enhanced ()) ()) ~n)
        .C.Schedule.makespan
    in
    (enh -. base) /. base
  in
  let o1 = overhead 2560 and o2 = overhead 7680 and o3 = overhead 15360 in
  Alcotest.(check bool) "decreasing" true (o1 > o2 && o2 > o3);
  (* ... and stays above the flop-count asymptote. *)
  let asym =
    Abft.Overhead_model.asymptote_enhanced
      { Abft.Overhead_model.n = 15360; b = 256; k = 1 }
  in
  Alcotest.(check bool) "above asymptote" true (o3 > asym)

let test_gflops_increase_with_n () =
  let machine = Hetsim.Machine.bulldozer64 in
  let gf n =
    (C.Schedule.run (C.Config.make ~machine ~scheme:(Abft.Scheme.enhanced ()) ()) ~n)
      .C.Schedule.gflops
  in
  Alcotest.(check bool) "monotone" true (gf 4096 < gf 8192 && gf 8192 < gf 16384)

let test_cula_always_slowest () =
  List.iter
    (fun n ->
      let machine = Hetsim.Machine.tardis in
      let enh =
        (C.Schedule.run (C.Config.make ~machine ~scheme:(Abft.Scheme.enhanced ()) ()) ~n)
          .C.Schedule.gflops
      in
      let cula = (C.Cula_model.run machine ~n).C.Cula_model.gflops in
      Alcotest.(check bool) (Printf.sprintf "n=%d" n) true (cula < enh))
    [ 2560; 5120; 10240; 20480 ]

let test_chrome_trace_wellformed () =
  let r =
    C.Schedule.run
      (C.Config.make ~machine:Hetsim.Machine.tardis ~scheme:(Abft.Scheme.enhanced ()) ())
      ~n:2560
  in
  let s = Hetsim.Engine.to_chrome_trace r.C.Schedule.engine in
  (* crude JSON sanity: one object per op, balanced brackets *)
  let count_char c = String.fold_left (fun a ch -> if ch = c then a + 1 else a) 0 s in
  Alcotest.(check int) "objects = ops"
    (Hetsim.Engine.op_count r.C.Schedule.engine)
    (count_char '{');
  Alcotest.(check int) "balanced" (count_char '{') (count_char '}');
  Alcotest.(check bool) "array" true (s.[0] = '[' && s.[String.length s - 1] = ']')

let test_simulated_times_deterministic () =
  let run () =
    (C.Schedule.run
       (C.Config.make ~machine:Hetsim.Machine.bulldozer64
          ~scheme:(Abft.Scheme.enhanced ()) ())
       ~n:10240)
      .C.Schedule.makespan
  in
  Alcotest.(check (float 0.)) "bitwise reproducible" (run ()) (run ())

(* ------------------------------------------------------------------ *)
(* Workloads under each scheme                                          *)
(* ------------------------------------------------------------------ *)

let test_workload_all_ft_schemes () =
  let a, b, _ = Workloads.Lstsq.synthetic_problem ~rows:100 ~cols:24 () in
  let results =
    List.map
      (fun scheme ->
        let cfg = C.Config.make ~machine:tb ~block:8 ~scheme () in
        (Workloads.Lstsq.solve ~cfg ~a ~b ()).Workloads.Lstsq.x)
      [ Abft.Scheme.No_ft; Abft.Scheme.Offline; Abft.Scheme.Online;
        Abft.Scheme.enhanced () ]
  in
  match results with
  | x0 :: rest ->
      List.iter
        (fun x ->
          Alcotest.(check bool) "identical across schemes" true
            (Mat.approx_equal ~tol:1e-10 x0 x))
        rest
  | [] -> assert false

let () =
  Alcotest.run "integration"
    [
      ( "bookkeeping",
        [
          Alcotest.test_case "verification counts match Sets" `Quick
            test_verification_counts_match_sets;
        ] );
      ( "pipeline",
        [
          Alcotest.test_case "solve under storm" `Quick
            test_solve_pipeline_under_storm;
          Alcotest.test_case "outcome consistent with residual" `Quick
            test_every_scheme_ends_with_usable_factor_or_says_so;
        ] );
      ( "shapes",
        [
          Alcotest.test_case "overhead decreases with n" `Quick
            test_overhead_decreases_with_n;
          Alcotest.test_case "gflops increase with n" `Quick
            test_gflops_increase_with_n;
          Alcotest.test_case "cula slowest" `Quick test_cula_always_slowest;
          Alcotest.test_case "chrome trace wellformed" `Quick
            test_chrome_trace_wellformed;
          Alcotest.test_case "deterministic" `Quick
            test_simulated_times_deterministic;
        ] );
      ( "workloads",
        [
          Alcotest.test_case "all schemes agree" `Quick
            test_workload_all_ft_schemes;
        ] );
    ]
