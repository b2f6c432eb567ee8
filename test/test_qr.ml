(* Tests for the FT-QR extension: rectangular panel checksums and the
   blocked MGS driver. *)

open Matrix

let tall seed = Spd.random ~seed 96 48
(* 96x48, full column rank with probability ~1 *)

let expect name want (r : Ftqr.Ft_qr.report) =
  Alcotest.(check string) name want
    (Format.asprintf "%a" Ftqr.Ft_qr.pp_outcome r.Ftqr.Ft_qr.outcome
    |> String.split_on_char ':' |> List.hd)

(* ------------------------------------------------------------------ *)
(* Panelchk                                                            *)
(* ------------------------------------------------------------------ *)

let test_panelchk_clean () =
  let p = Spd.random ~seed:1 20 6 in
  let c = Ftqr.Panelchk.encode p in
  Alcotest.(check bool) "clean" true (Ftqr.Panelchk.check c p)

let test_panelchk_locates_in_tall_panel () =
  let p = Spd.random ~seed:2 20 6 in
  let pristine = Mat.copy p in
  let c = Ftqr.Panelchk.encode p in
  Mat.set p 17 4 (Mat.get p 17 4 +. 250.);
  (match Ftqr.Panelchk.verify c p with
  | Abft.Verify.Corrected [ f ] ->
      Alcotest.(check int) "row" 17 f.Abft.Verify.row;
      Alcotest.(check int) "col" 4 f.Abft.Verify.col
  | o -> Alcotest.failf "expected corrected, got %a" Abft.Verify.pp_outcome o);
  Alcotest.(check bool) "restored" true (Mat.approx_equal ~tol:1e-6 pristine p)

let test_panelchk_nan_anchor () =
  let p = Spd.random ~seed:3 16 4 in
  let pristine = Mat.copy p in
  let c = Ftqr.Panelchk.encode p in
  Mat.set p 9 2 Float.nan;
  (match Ftqr.Panelchk.verify c p with
  | Abft.Verify.Corrected _ -> ()
  | o -> Alcotest.failf "expected corrected, got %a" Abft.Verify.pp_outcome o);
  Alcotest.(check bool) "restored" true (Mat.approx_equal ~tol:1e-6 pristine p)

let test_panelchk_two_errors_uncorrectable () =
  let p = Spd.random ~seed:4 16 4 in
  let c = Ftqr.Panelchk.encode p in
  Mat.set p 3 1 (Mat.get p 3 1 +. 10.);
  Mat.set p 11 1 (Mat.get p 11 1 -. 20.);
  match Ftqr.Panelchk.verify c p with
  | Abft.Verify.Uncorrectable _ -> ()
  | o -> Alcotest.failf "expected uncorrectable, got %a" Abft.Verify.pp_outcome o

(* ------------------------------------------------------------------ *)
(* FT-QR driver                                                        *)
(* ------------------------------------------------------------------ *)

let test_qr_clean_all_schemes () =
  let a = tall 5 in
  List.iter
    (fun scheme ->
      let r = Ftqr.Ft_qr.factor ~scheme ~block:8 a in
      expect (Abft.Scheme.name scheme) "success" r;
      Alcotest.(check bool) "residual" true (r.Ftqr.Ft_qr.residual < 1e-12);
      Alcotest.(check bool) "orthogonal" true
        (r.Ftqr.Ft_qr.orthogonality < 1e-10);
      (* R upper triangular *)
      let rmat = r.Ftqr.Ft_qr.r in
      let ok = ref true in
      for i = 0 to Mat.rows rmat - 1 do
        for j = 0 to i - 1 do
          if Mat.get rmat i j <> 0. then ok := false
        done
      done;
      Alcotest.(check bool) "R upper" true !ok)
    Abft.Scheme.all

let test_qr_storage_error_in_q_panel () =
  (* Q panel 1 flips at iteration 3, re-read by later projections. *)
  let plan =
    [ Fault.storage_error ~bit:52 ~iteration:3 ~block:(1, 0) ~element:(7, 3) () ]
  in
  let r = Ftqr.Ft_qr.factor ~plan ~block:8 (tall 6) in
  expect "corrected before read" "success" r;
  Alcotest.(check int) "no restart" 0 r.Ftqr.Ft_qr.stats.Ftqr.Ft_qr.restarts;
  Alcotest.(check bool) "corrected" true
    (r.Ftqr.Ft_qr.stats.Ftqr.Ft_qr.corrections > 0)

let bitwise_equal a b =
  let m = Mat.rows a and n = Mat.cols a in
  Mat.rows b = m && Mat.cols b = n
  &&
  try
    for j = 0 to n - 1 do
      for i = 0 to m - 1 do
        if
          Int64.bits_of_float (Mat.get a i j)
          <> Int64.bits_of_float (Mat.get b i j)
        then raise Exit
      done
    done;
    true
  with Exit -> false

let test_qr_bitwise_no_ft () =
  (* Both replicas' chains ride the block-projection GEMM beside the
     panel data and never feed back into it, so a clean protected run
     must reproduce the unprotected (plain-kernel) Q and R to the bit. *)
  let a = tall 14 in
  let plain = Ftqr.Ft_qr.factor ~scheme:Abft.Scheme.No_ft ~block:8 a in
  List.iter
    (fun scheme ->
      let name = Abft.Scheme.name scheme in
      let r = Ftqr.Ft_qr.factor ~scheme ~block:8 a in
      Alcotest.(check bool) (name ^ " Q bitwise") true
        (bitwise_equal plain.Ftqr.Ft_qr.q r.Ftqr.Ft_qr.q);
      Alcotest.(check bool) (name ^ " R bitwise") true
        (bitwise_equal plain.Ftqr.Ft_qr.r r.Ftqr.Ft_qr.r))
    [
      Abft.Scheme.Online;
      Abft.Scheme.enhanced ();
      Abft.Scheme.enhanced ~k:4 ();
      Abft.Scheme.Offline;
    ]

let test_qr_fused_detection_parity () =
  (* The projection computing error must be caught with the chains
     riding the projection kernel. *)
  let plan =
    [
      Fault.computing_error ~delta:50. ~iteration:4 ~op:Fault.Gemm ~block:(4, 2)
        ~element:(11, 2) ();
    ]
  in
  let r = Ftqr.Ft_qr.factor ~plan ~block:8 (tall 7) in
  expect "corrected" "success" r;
  Alcotest.(check int) "no restart" 0 r.Ftqr.Ft_qr.stats.Ftqr.Ft_qr.restarts

let test_qr_computing_error_between_projections () =
  (* The case that forced per-projection verification: a wrong value
     written by projection k must be caught before projection k+1. *)
  let plan =
    [
      Fault.computing_error ~delta:50. ~iteration:4 ~op:Fault.Gemm ~block:(4, 2)
        ~element:(11, 2) ();
    ]
  in
  let r = Ftqr.Ft_qr.factor ~plan ~block:8 (tall 7) in
  expect "corrected" "success" r;
  Alcotest.(check int) "no restart" 0 r.Ftqr.Ft_qr.stats.Ftqr.Ft_qr.restarts;
  Alcotest.(check bool) "orthogonality preserved" true
    (r.Ftqr.Ft_qr.orthogonality < 1e-10)

let test_qr_no_ft_silent () =
  let plan =
    [
      Fault.computing_error ~delta:0.5 ~iteration:4 ~op:Fault.Gemm ~block:(4, 2)
        ~element:(11, 2) ();
    ]
  in
  let r = Ftqr.Ft_qr.factor ~plan ~scheme:Abft.Scheme.No_ft ~block:8 (tall 8) in
  expect "silent" "silent corruption" r

let test_qr_offline_detects () =
  let plan =
    [ Fault.storage_error ~bit:52 ~iteration:3 ~block:(1, 0) ~element:(5, 5) () ]
  in
  let r =
    Ftqr.Ft_qr.factor ~plan ~scheme:Abft.Scheme.Offline ~block:8 (tall 9)
  in
  expect "recovered by redo" "success" r;
  Alcotest.(check int) "one restart" 1 r.Ftqr.Ft_qr.stats.Ftqr.Ft_qr.restarts

let test_qr_mgs_window_corrected () =
  (* Unlike Cholesky's POTF2 (whose Algorithm-2 checksum update runs
     after the factorization and consumes whatever the kernel wrote),
     the MGS step transforms panel data and checksum together, so an
     error in its output is an ordinary post-update single error:
     located and corrected at the panel's next read, no recomputation. *)
  let plan =
    [
      Fault.computing_error ~delta:10. ~iteration:2 ~op:Fault.Potf2 ~block:(2, 2)
        ~element:(3, 3) ();
    ]
  in
  let r = Ftqr.Ft_qr.factor ~plan ~block:8 (tall 10) in
  expect "corrected inline" "success" r;
  Alcotest.(check int) "no restart" 0 r.Ftqr.Ft_qr.stats.Ftqr.Ft_qr.restarts;
  Alcotest.(check bool) "corrected" true
    (r.Ftqr.Ft_qr.stats.Ftqr.Ft_qr.corrections > 0)

let test_qr_rank_deficient_fail_stop () =
  let a = Spd.random ~seed:11 40 16 in
  (* make two columns identical: rank deficient *)
  Mat.set_col a 5 (Mat.col a 4);
  let r = Ftqr.Ft_qr.factor ~scheme:Abft.Scheme.No_ft ~block:8 a in
  (match r.Ftqr.Ft_qr.outcome with
  | Ftqr.Ft_qr.Gave_up _ -> ()
  | o -> Alcotest.failf "expected gave up, got %a" Ftqr.Ft_qr.pp_outcome o);
  Alcotest.(check bool) "fail-stop recorded" true
    (r.Ftqr.Ft_qr.stats.Ftqr.Ft_qr.fail_stops > 0)

let test_qr_validation () =
  Alcotest.(check bool) "wide rejected" true
    (try
       ignore (Ftqr.Ft_qr.factor (Spd.random ~seed:1 10 20));
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "block must divide" true
    (try
       ignore (Ftqr.Ft_qr.factor ~block:7 (tall 12));
       false
     with Invalid_argument _ -> true);
  (* a block below 1 is the caller's error, reported by the driver
     itself rather than by the grid arithmetic it would break *)
  List.iter
    (fun block ->
      Alcotest.check_raises (Printf.sprintf "block %d" block)
        (Invalid_argument
           (Printf.sprintf "Ft_qr.factor: block must be >= 1, got %d" block))
        (fun () -> ignore (Ftqr.Ft_qr.factor ~block (tall 12))))
    [ 0; -4 ]

let test_qr_matches_reference_mgs () =
  (* Compare against a plain unblocked MGS on the same data: identical
     arithmetic order per column within a panel, but block projections
     group operations; results agree to rounding. *)
  let a = Spd.random ~seed:13 32 16 in
  let r = Ftqr.Ft_qr.factor ~scheme:Abft.Scheme.No_ft ~block:16 a in
  (* one panel = exactly classic MGS *)
  let q = Mat.copy a in
  let rr = Mat.create 16 16 in
  for c = 0 to 15 do
    let v = Mat.col q c in
    let nrm = Vec.nrm2 v in
    Mat.set rr c c nrm;
    Vec.scal (1. /. nrm) v;
    Mat.set_col q c v;
    for c' = c + 1 to 15 do
      let w = Mat.col q c' in
      let proj = Vec.dot v w in
      Mat.set rr c c' proj;
      Vec.axpy (-.proj) v w;
      Mat.set_col q c' w
    done
  done;
  Alcotest.(check bool) "Q agrees" true
    (Mat.approx_equal ~tol:1e-12 q r.Ftqr.Ft_qr.q);
  Alcotest.(check bool) "R agrees" true
    (Mat.approx_equal ~tol:1e-12 rr r.Ftqr.Ft_qr.r)

(* ------------------------------------------------------------------ *)
(* Timing mode                                                          *)
(* ------------------------------------------------------------------ *)

let qr_sched ?plan scheme n =
  let cfg = Cholesky.Config.make ~machine:Hetsim.Machine.tardis ~scheme () in
  Ftqr.Schedule_qr.run ?plan cfg ~m:(2 * n) ~n

let test_qr_sched_ordering () =
  let t scheme = (qr_sched scheme 5120).Ftqr.Schedule_qr.makespan in
  let none = t Abft.Scheme.No_ft in
  let enhanced = t (Abft.Scheme.enhanced ()) in
  Alcotest.(check bool) "enhanced > none" true (enhanced > none);
  Alcotest.(check bool) "within 10%" true (enhanced < none *. 1.10)

let test_qr_sched_mgs_window_no_rerun () =
  (* The QR-specific classification: a Potf2 (MGS) computing error is
     correctable under Online/Enhanced — no recovery pass. *)
  let plan =
    [ Fault.computing_error ~iteration:2 ~op:Fault.Potf2 ~block:(2, 2)
        ~element:(0, 0) () ]
  in
  let r = qr_sched ~plan (Abft.Scheme.enhanced ()) 5120 in
  Alcotest.(check int) "no rerun" 0 r.Ftqr.Schedule_qr.reruns;
  (* ... but still forces one under Offline. *)
  let r = qr_sched ~plan Abft.Scheme.Offline 5120 in
  Alcotest.(check int) "offline reruns" 1 r.Ftqr.Schedule_qr.reruns

let test_qr_sched_storage_rerun_online () =
  let plan =
    [ Fault.storage_error ~iteration:3 ~block:(1, 0) ~element:(0, 0) () ]
  in
  let online = qr_sched ~plan Abft.Scheme.Online 5120 in
  Alcotest.(check int) "online reruns" 1 online.Ftqr.Schedule_qr.reruns;
  let enhanced = qr_sched ~plan (Abft.Scheme.enhanced ()) 5120 in
  Alcotest.(check int) "enhanced absorbs" 0 enhanced.Ftqr.Schedule_qr.reruns

let test_qr_sched_validation () =
  Alcotest.(check bool) "wide" true
    (try
       ignore
         (Ftqr.Schedule_qr.run
            (Cholesky.Config.make ~machine:Hetsim.Machine.tardis ())
            ~m:100 ~n:5120);
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

let prop_qr_reconstructs =
  QCheck.Test.make ~name:"ft-qr: QR ~ A, Q orthonormal" ~count:25
    QCheck.(pair (int_range 2 5) (int_range 0 1000))
    (fun (nb, seed) ->
      let block = 6 in
      let n = nb * block in
      let a = Spd.random ~seed (n * 2) n in
      let r = Ftqr.Ft_qr.factor ~block a in
      r.Ftqr.Ft_qr.outcome = Ftqr.Ft_qr.Success
      && r.Ftqr.Ft_qr.residual < 1e-10
      && r.Ftqr.Ft_qr.orthogonality < 1e-8)

let prop_qr_storage_flip_absorbed =
  QCheck.Test.make ~name:"ft-qr: random storage flip in a live panel absorbed"
    ~count:25
    QCheck.(int_range 0 1000)
    (fun seed ->
      let st = Random.State.make [| seed |] in
      let nb = 5 and block = 6 in
      let n = nb * block in
      let target = Random.State.int st (nb - 1) in
      (* fire while the panel is still re-read: iterations target+1..nb-1 *)
      let it = target + 1 + Random.State.int st (nb - 1 - target) in
      let plan =
        [
          Fault.storage_error ~bit:52 ~iteration:it ~block:(target, 0)
            ~element:(Random.State.int st (2 * n), Random.State.int st block)
            ();
        ]
      in
      let a = Spd.random ~seed:(seed + 3) (2 * n) n in
      let r = Ftqr.Ft_qr.factor ~plan ~block a in
      r.Ftqr.Ft_qr.outcome = Ftqr.Ft_qr.Success)

let props =
  List.map QCheck_alcotest.to_alcotest
    [ prop_qr_reconstructs; prop_qr_storage_flip_absorbed ]

let () =
  Alcotest.run "qr"
    [
      ( "panelchk",
        [
          Alcotest.test_case "clean" `Quick test_panelchk_clean;
          Alcotest.test_case "locates in tall panel" `Quick
            test_panelchk_locates_in_tall_panel;
          Alcotest.test_case "nan anchor" `Quick test_panelchk_nan_anchor;
          Alcotest.test_case "two errors uncorrectable" `Quick
            test_panelchk_two_errors_uncorrectable;
        ] );
      ( "ft_qr",
        [
          Alcotest.test_case "clean, all schemes" `Quick test_qr_clean_all_schemes;
          Alcotest.test_case "storage error in Q" `Quick
            test_qr_storage_error_in_q_panel;
          Alcotest.test_case "computing error between projections" `Quick
            test_qr_computing_error_between_projections;
          Alcotest.test_case "no_ft silent" `Quick test_qr_no_ft_silent;
          Alcotest.test_case "offline redoes" `Quick test_qr_offline_detects;
          Alcotest.test_case "mgs window corrected" `Quick
            test_qr_mgs_window_corrected;
          Alcotest.test_case "rank-deficient fail-stop" `Quick
            test_qr_rank_deficient_fail_stop;
          Alcotest.test_case "validation" `Quick test_qr_validation;
          Alcotest.test_case "matches reference MGS" `Quick
            test_qr_matches_reference_mgs;
          Alcotest.test_case "factors bitwise = no_ft" `Quick
            test_qr_bitwise_no_ft;
          Alcotest.test_case "fused detection parity" `Quick
            test_qr_fused_detection_parity;
        ] );
      ( "schedule",
        [
          Alcotest.test_case "scheme ordering" `Quick test_qr_sched_ordering;
          Alcotest.test_case "mgs window no rerun" `Quick
            test_qr_sched_mgs_window_no_rerun;
          Alcotest.test_case "storage rerun online" `Quick
            test_qr_sched_storage_rerun_online;
          Alcotest.test_case "validation" `Quick test_qr_sched_validation;
        ] );
      ("properties", props);
    ]
