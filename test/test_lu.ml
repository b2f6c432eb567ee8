(* Tests for the FT-LU extension: dual checksums, update rules, and the
   left-looking fault-tolerant driver. *)

open Matrix

let dd n = Lapack.diag_dominant ~seed:(n + 7) n

let expect name want (r : Ftlu.Ft_lu.report) =
  Alcotest.(check string) name want
    (Format.asprintf "%a" Ftlu.Ft_lu.pp_outcome r.Ftlu.Ft_lu.outcome
    |> String.split_on_char ':' |> List.hd)

(* ------------------------------------------------------------------ *)
(* LAPACK LU kernels                                                   *)
(* ------------------------------------------------------------------ *)

let test_getf2_reconstructs () =
  let a = dd 12 in
  let packed = Mat.copy a in
  Lapack.getf2 packed;
  let l, u = Lapack.lu_unpack packed in
  Alcotest.(check bool) "LU = A" true
    (Mat.rel_diff (Blas3.gemm_alloc l u) a < 1e-12)

let test_getrf_matches_getf2 () =
  let a = dd 30 in
  let p1 = Mat.copy a and p2 = Mat.copy a in
  Lapack.getf2 p1;
  Lapack.getrf ~block:7 p2;
  Alcotest.(check bool) "blocked = unblocked" true
    (Mat.approx_equal ~tol:1e-9 p1 p2)

let test_getrs_solves () =
  let a = dd 16 in
  let x_true = Spd.random ~seed:9 16 2 in
  let b = Blas3.gemm_alloc a x_true in
  let lu = Mat.copy a in
  Lapack.getrf ~block:4 lu;
  Lapack.getrs lu b;
  Alcotest.(check bool) "solution" true (Mat.approx_equal ~tol:1e-8 x_true b)

let test_getf2_singular () =
  let a = Mat.of_arrays [| [| 1.; 2. |]; [| 2.; 4. |] |] in
  Alcotest.check_raises "singular" (Lapack.Singular_pivot 1) (fun () ->
      Lapack.getf2 a)

let test_lu_unpack () =
  let packed = Mat.of_arrays [| [| 2.; 3. |]; [| 4.; 5. |] |] in
  let l, u = Lapack.lu_unpack packed in
  Alcotest.(check (float 0.)) "unit diag" 1. (Mat.get l 0 0);
  Alcotest.(check (float 0.)) "l21" 4. (Mat.get l 1 0);
  Alcotest.(check (float 0.)) "u11" 2. (Mat.get u 0 0);
  Alcotest.(check (float 0.)) "u zero below" 0. (Mat.get u 1 0)

(* ------------------------------------------------------------------ *)
(* Duochk                                                              *)
(* ------------------------------------------------------------------ *)

let test_duochk_encode_clean () =
  let a = Spd.random ~seed:1 8 8 in
  let dk = Ftlu.Duochk.encode a in
  Alcotest.(check bool) "col clean" true
    (Ftlu.Duochk.verify_col dk a = Abft.Verify.Clean);
  Alcotest.(check bool) "row clean" true
    (Ftlu.Duochk.verify_row dk a = Abft.Verify.Clean)

let test_duochk_row_verify_locates () =
  let a = Spd.random ~seed:2 8 8 in
  let pristine = Mat.copy a in
  let dk = Ftlu.Duochk.encode a in
  Mat.set a 3 6 (Mat.get a 3 6 +. 500.);
  (match Ftlu.Duochk.verify_row dk a with
  | Abft.Verify.Corrected [ f ] ->
      (* coordinates reported in tile orientation *)
      Alcotest.(check int) "row" 3 f.Abft.Verify.row;
      Alcotest.(check int) "col" 6 f.Abft.Verify.col
  | o -> Alcotest.failf "expected corrected, got %a" Abft.Verify.pp_outcome o);
  Alcotest.(check bool) "restored" true (Mat.approx_equal ~tol:1e-6 pristine a)

let test_duochk_row_corrects_row_burst () =
  (* A whole corrupted row: one error per *column* — exactly what row
     checksums cannot fix but column checksums can, and vice versa: a
     corrupted row has one error per column... for ROW checksums it is
     multiple errors in one transposed column. Use a corrupted COLUMN,
     which the row side sees as one error per row and repairs. *)
  let a = Spd.random ~seed:3 6 6 in
  let pristine = Mat.copy a in
  let dk = Ftlu.Duochk.encode a in
  for i = 0 to 5 do
    Mat.set a i 2 (Mat.get a i 2 +. (50. *. float_of_int (i + 1)))
  done;
  (match Ftlu.Duochk.verify_row dk a with
  | Abft.Verify.Corrected fixes -> Alcotest.(check int) "six" 6 (List.length fixes)
  | o -> Alcotest.failf "expected corrected, got %a" Abft.Verify.pp_outcome o);
  Alcotest.(check bool) "restored" true (Mat.approx_equal ~tol:1e-6 pristine a)

let test_duochk_gemm_rule () =
  let c = Spd.random ~seed:4 6 6 in
  let l = Spd.random ~seed:5 6 6 and u = Spd.random ~seed:6 6 6 in
  let ck = Ftlu.Duochk.encode c in
  let lk = Ftlu.Duochk.encode l and uk = Ftlu.Duochk.encode u in
  (* the column side rides the tile GEMM, the row side is its own pass *)
  Blas3.gemm ~alpha:(-1.) ~beta:1. ~fused:(Ftlu.Duochk.fuse_col ~l_chk:lk ck) l
    u c;
  Ftlu.Duochk.gemm_row ~c:ck ~u_chk:uk ~l;
  Alcotest.(check bool) "col side" true
    (Ftlu.Duochk.verify_col ~tol:1e-7 ck c = Abft.Verify.Clean);
  Alcotest.(check bool) "row side" true
    (Ftlu.Duochk.verify_row ~tol:1e-7 ck c = Abft.Verify.Clean)

let test_duochk_getf2_rule () =
  let a = dd 8 in
  let dk = Ftlu.Duochk.encode a in
  let packed = Mat.copy a in
  Lapack.getf2 packed;
  Ftlu.Duochk.getf2 dk ~lu_packed:packed;
  let l, u = Lapack.lu_unpack packed in
  Alcotest.(check bool) "chk(L) consistent" true
    (Abft.Verify.check ~tol:1e-7 (Ftlu.Duochk.col dk) l);
  Alcotest.(check bool) "chk(U) consistent" true
    (Abft.Verify.check ~tol:1e-7 (Ftlu.Duochk.row dk) (Mat.transpose u))

let test_duochk_panel_rules () =
  let a = dd 8 in
  let packed = Mat.copy a in
  Lapack.getf2 packed;
  let l_diag, u_diag = Lapack.lu_unpack packed in
  (* column panel *)
  let cp = Spd.random ~seed:7 8 8 in
  let cpk = Ftlu.Duochk.encode cp in
  Blas3.trsm ~fused:(Ftlu.Duochk.solve_col cpk) Types.Right Types.Upper
    Types.No_trans Types.Non_unit_diag u_diag cp;
  Alcotest.(check bool) "col panel" true
    (Abft.Verify.check ~tol:1e-6 (Ftlu.Duochk.col cpk) cp);
  (* row panel *)
  let rp = Spd.random ~seed:8 8 8 in
  let rpk = Ftlu.Duochk.encode rp in
  Blas3.trsm Types.Left Types.Lower Types.No_trans Types.Unit_diag l_diag rp;
  Ftlu.Duochk.row_panel rpk ~l_diag;
  Alcotest.(check bool) "row panel" true
    (Abft.Verify.check ~tol:1e-6 (Ftlu.Duochk.row rpk) (Mat.transpose rp))

(* ------------------------------------------------------------------ *)
(* FT-LU driver                                                        *)
(* ------------------------------------------------------------------ *)

let test_ftlu_clean_all_schemes () =
  let a = dd 48 in
  let lu = Mat.copy a in
  Lapack.getrf ~block:8 lu;
  let lref, uref = Lapack.lu_unpack lu in
  List.iter
    (fun scheme ->
      let r = Ftlu.Ft_lu.factor ~scheme ~block:8 a in
      expect (Abft.Scheme.name scheme) "success" r;
      Alcotest.(check bool) "L matches" true
        (Mat.approx_equal ~tol:1e-8 lref r.Ftlu.Ft_lu.l);
      Alcotest.(check bool) "U matches" true
        (Mat.approx_equal ~tol:1e-8 uref r.Ftlu.Ft_lu.u))
    Abft.Scheme.all

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

let test_ftlu_bitwise_no_ft () =
  (* The column chains ride the tile GEMM/TRSM beside the tile data and
     never feed back into it, so a clean protected run must reproduce
     the unprotected (plain-kernel) factors bit for bit. *)
  let a = dd 48 in
  let plain = Ftlu.Ft_lu.factor ~scheme:Abft.Scheme.No_ft ~block:8 a in
  List.iter
    (fun scheme ->
      let name = Abft.Scheme.name scheme in
      let r = Ftlu.Ft_lu.factor ~scheme ~block:8 a in
      Alcotest.(check bool) (name ^ " L bitwise") true
        (bitwise_equal plain.Ftlu.Ft_lu.l r.Ftlu.Ft_lu.l);
      Alcotest.(check bool) (name ^ " U bitwise") true
        (bitwise_equal plain.Ftlu.Ft_lu.u r.Ftlu.Ft_lu.u))
    [
      Abft.Scheme.Online;
      Abft.Scheme.enhanced ();
      Abft.Scheme.enhanced ~k:4 ();
      Abft.Scheme.Offline;
    ]

let test_ftlu_fused_detection_parity () =
  (* A trailing-update computing error must be corrected with the
     column chains riding the kernels. *)
  let plan =
    [
      Fault.computing_error ~delta:1e4 ~iteration:1 ~op:Fault.Gemm ~block:(5, 1)
        ~element:(2, 2) ();
    ]
  in
  let r = Ftlu.Ft_lu.factor ~plan ~block:8 (dd 48) in
  expect "corrected" "success" r;
  Alcotest.(check int) "no restart" 0 r.Ftlu.Ft_lu.stats.Ftlu.Ft_lu.restarts

let test_ftlu_storage_error_in_l () =
  (* L(4,0) flips at iteration 2, read again by the lazy updates. *)
  let plan =
    [ Fault.storage_error ~bit:52 ~iteration:2 ~block:(4, 0) ~element:(3, 3) () ]
  in
  let r = Ftlu.Ft_lu.factor ~plan ~block:8 (dd 48) in
  expect "corrected before read" "success" r;
  Alcotest.(check int) "no restart" 0 r.Ftlu.Ft_lu.stats.Ftlu.Ft_lu.restarts;
  Alcotest.(check bool) "corrections" true
    (r.Ftlu.Ft_lu.stats.Ftlu.Ft_lu.corrections > 0)

let test_ftlu_storage_error_in_u () =
  (* U(0,4) flips at iteration 2 — located via the ROW checksums. *)
  let plan =
    [ Fault.storage_error ~bit:52 ~iteration:2 ~block:(0, 4) ~element:(2, 5) () ]
  in
  let r = Ftlu.Ft_lu.factor ~plan ~block:8 (dd 48) in
  expect "corrected before read" "success" r;
  Alcotest.(check int) "no restart" 0 r.Ftlu.Ft_lu.stats.Ftlu.Ft_lu.restarts;
  Alcotest.(check bool) "corrections" true
    (r.Ftlu.Ft_lu.stats.Ftlu.Ft_lu.corrections > 0)

let test_ftlu_computing_error_col_panel () =
  let plan =
    [
      Fault.computing_error ~delta:1e4 ~iteration:1 ~op:Fault.Gemm ~block:(5, 1)
        ~element:(2, 2) ();
    ]
  in
  let r = Ftlu.Ft_lu.factor ~plan ~block:8 (dd 48) in
  expect "corrected" "success" r;
  Alcotest.(check int) "no restart" 0 r.Ftlu.Ft_lu.stats.Ftlu.Ft_lu.restarts

let test_ftlu_computing_error_row_panel_trsm () =
  let plan =
    [
      Fault.computing_error ~delta:2e3 ~iteration:1 ~op:Fault.Trsm ~block:(1, 5)
        ~element:(4, 4) ();
    ]
  in
  let r = Ftlu.Ft_lu.factor ~plan ~block:8 (dd 48) in
  expect "corrected" "success" r;
  Alcotest.(check int) "no restart" 0 r.Ftlu.Ft_lu.stats.Ftlu.Ft_lu.restarts

let test_ftlu_no_ft_silent () =
  let plan =
    [
      Fault.computing_error ~delta:0.05 ~iteration:1 ~op:Fault.Trsm ~block:(5, 1)
        ~element:(2, 2) ();
    ]
  in
  let r = Ftlu.Ft_lu.factor ~plan ~scheme:Abft.Scheme.No_ft ~block:8 (dd 48) in
  expect "silently wrong" "silent corruption" r

let test_ftlu_offline_detects_and_redoes () =
  let plan =
    [
      Fault.computing_error ~delta:1e3 ~iteration:1 ~op:Fault.Trsm ~block:(5, 1)
        ~element:(2, 2) ();
    ]
  in
  let r = Ftlu.Ft_lu.factor ~plan ~scheme:Abft.Scheme.Offline ~block:8 (dd 48) in
  expect "recovered by redo" "success" r;
  Alcotest.(check int) "one restart" 1 r.Ftlu.Ft_lu.stats.Ftlu.Ft_lu.restarts

let test_ftlu_online_corrects_computing () =
  let plan =
    [
      Fault.computing_error ~delta:1e3 ~iteration:1 ~op:Fault.Trsm ~block:(5, 1)
        ~element:(2, 2) ();
    ]
  in
  let r = Ftlu.Ft_lu.factor ~plan ~scheme:Abft.Scheme.Online ~block:8 (dd 48) in
  expect "corrected post-update" "success" r;
  Alcotest.(check int) "no restart" 0 r.Ftlu.Ft_lu.stats.Ftlu.Ft_lu.restarts

let test_ftlu_fail_stop_recovery () =
  (* Zero the pivot right after the diagonal tile's lazy update (the
     Syrk-analogue window), just before GETF2 reads it: without pre-read
     verification the factorization fail-stops; Enhanced's always-on
     diagonal verification corrects it first. *)
  let zero_pivot =
    {
      Fault.iteration = 3;
      window = Fault.In_computation Fault.Syrk;
      block = (3, 3);
      element = (0, 0);
      kind = Fault.Value_set { value = 0. };
    }
  in
  let enhanced = Ftlu.Ft_lu.factor ~plan:[ zero_pivot ] ~block:8 (dd 48) in
  expect "enhanced avoids fail-stop" "success" enhanced;
  Alcotest.(check int) "no fail-stop" 0
    enhanced.Ftlu.Ft_lu.stats.Ftlu.Ft_lu.fail_stops;
  let offline =
    Ftlu.Ft_lu.factor ~plan:[ zero_pivot ] ~scheme:Abft.Scheme.Offline ~block:8
      (dd 48)
  in
  expect "offline fail-stops then recovers" "success" offline;
  Alcotest.(check bool) "fail-stop recorded" true
    (offline.Ftlu.Ft_lu.stats.Ftlu.Ft_lu.fail_stops > 0)

let test_ftlu_k_gating () =
  let a = dd 64 in
  let v k =
    (Ftlu.Ft_lu.factor ~scheme:(Abft.Scheme.enhanced ~k ()) ~block:8 a)
      .Ftlu.Ft_lu.stats.Ftlu.Ft_lu.verifications
  in
  Alcotest.(check bool) "k=3 verifies less" true (v 3 < v 1)

let test_ftlu_validation () =
  Alcotest.(check bool) "not square" true
    (try
       ignore (Ftlu.Ft_lu.factor (Spd.random ~seed:1 8 16));
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "bad block" true
    (try
       ignore (Ftlu.Ft_lu.factor ~block:7 (dd 48));
       false
     with Invalid_argument _ -> true);
  (* a block below 1 is the caller's error, reported by the driver
     itself rather than by the grid arithmetic it would break *)
  List.iter
    (fun block ->
      Alcotest.check_raises (Printf.sprintf "block %d" block)
        (Invalid_argument
           (Printf.sprintf "Ft_lu.factor: block must be >= 1, got %d" block))
        (fun () -> ignore (Ftlu.Ft_lu.factor ~block (dd 48))))
    [ 0; -4 ]

(* ------------------------------------------------------------------ *)
(* Timing mode                                                          *)
(* ------------------------------------------------------------------ *)

let lu_sched ?plan scheme n =
  let cfg = Cholesky.Config.make ~machine:Hetsim.Machine.tardis ~scheme () in
  Ftlu.Schedule_lu.run ?plan cfg ~n

let test_sched_scheme_ordering () =
  let t scheme = (lu_sched scheme 8192).Ftlu.Schedule_lu.makespan in
  let none = t Abft.Scheme.No_ft in
  let offline = t Abft.Scheme.Offline in
  let online = t Abft.Scheme.Online in
  let enhanced = t (Abft.Scheme.enhanced ()) in
  Alcotest.(check bool) "offline > none" true (offline > none);
  Alcotest.(check bool) "online > offline" true (online > offline);
  Alcotest.(check bool) "enhanced > online" true (enhanced > online);
  Alcotest.(check bool) "enhanced within 15%" true (enhanced < none *. 1.15)

let test_sched_lu_roughly_double_cholesky () =
  (* LU does 2n^3/3 flops vs n^3/3: about 2x the time, same machine. *)
  let n = 8192 in
  let lu = (lu_sched Abft.Scheme.No_ft n).Ftlu.Schedule_lu.makespan in
  let chol =
    (Cholesky.Schedule.run
       (Cholesky.Config.make ~machine:Hetsim.Machine.tardis
          ~scheme:Abft.Scheme.No_ft ())
       ~n)
      .Cholesky.Schedule.makespan
  in
  let ratio = lu /. chol in
  Alcotest.(check bool) "about 2x" true (ratio > 1.8 && ratio < 2.2)

let test_sched_fault_rerun () =
  let storage =
    [ Fault.storage_error ~iteration:3 ~block:(5, 1) ~element:(0, 0) () ]
  in
  let clean = lu_sched Abft.Scheme.Online 4096 in
  let faulty = lu_sched ~plan:storage Abft.Scheme.Online 4096 in
  Alcotest.(check int) "rerun" 1 faulty.Ftlu.Schedule_lu.reruns;
  let ratio =
    faulty.Ftlu.Schedule_lu.makespan /. clean.Ftlu.Schedule_lu.makespan
  in
  Alcotest.(check bool) "about 2x" true (ratio > 1.9 && ratio < 2.1);
  let enhanced = lu_sched ~plan:storage (Abft.Scheme.enhanced ()) 4096 in
  Alcotest.(check int) "enhanced absorbs" 0 enhanced.Ftlu.Schedule_lu.reruns

let test_sched_k_reduces_time () =
  let t k = (lu_sched (Abft.Scheme.enhanced ~k ()) 8192).Ftlu.Schedule_lu.makespan in
  Alcotest.(check bool) "k=3 < k=1" true (t 3 < t 1)

let test_sched_validation () =
  Alcotest.(check bool) "bad n" true
    (try
       ignore (lu_sched Abft.Scheme.No_ft 1000);
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

let prop_ftlu_reconstructs =
  QCheck.Test.make ~name:"ft-lu: L.U ~ A for random diag-dominant" ~count:25
    QCheck.(pair (int_range 2 6) (int_range 0 1000))
    (fun (g, seed) ->
      let block = 5 in
      let a = Lapack.diag_dominant ~seed (g * block) in
      let r = Ftlu.Ft_lu.factor ~block a in
      r.Ftlu.Ft_lu.outcome = Ftlu.Ft_lu.Success
      && r.Ftlu.Ft_lu.residual < 1e-10)

let prop_ftlu_single_storage_corrected =
  QCheck.Test.make
    ~name:"ft-lu: storage flip in a factored panel is corrected" ~count:25
    QCheck.(int_range 0 1000)
    (fun seed ->
      let st = Random.State.make [| seed |] in
      let g = 5 and block = 6 in
      (* target a panel tile (i,c), i<>c, flipped while still re-read:
         the last read of L(i,c)/U(c,i) is at iteration max(i,c) *)
      let c = Random.State.int st (g - 1) in
      let i = c + 1 + Random.State.int st (g - 1 - c) in
      let flip_l = Random.State.bool st in
      let blockco = if flip_l then (i, c) else (c, i) in
      let it = c + 1 + Random.State.int st (i - c) in
      let plan =
        [
          Fault.storage_error ~bit:52 ~iteration:it ~block:blockco
            ~element:(Random.State.int st block, Random.State.int st block)
            ();
        ]
      in
      let a = Lapack.diag_dominant ~seed:(seed + 5) (g * block) in
      let r = Ftlu.Ft_lu.factor ~plan ~block a in
      r.Ftlu.Ft_lu.outcome = Ftlu.Ft_lu.Success)

let props =
  List.map QCheck_alcotest.to_alcotest
    [ prop_ftlu_reconstructs; prop_ftlu_single_storage_corrected ]

let () =
  Alcotest.run "lu"
    [
      ( "lapack_lu",
        [
          Alcotest.test_case "getf2 reconstructs" `Quick test_getf2_reconstructs;
          Alcotest.test_case "getrf = getf2" `Quick test_getrf_matches_getf2;
          Alcotest.test_case "getrs" `Quick test_getrs_solves;
          Alcotest.test_case "singular pivot" `Quick test_getf2_singular;
          Alcotest.test_case "lu_unpack" `Quick test_lu_unpack;
        ] );
      ( "duochk",
        [
          Alcotest.test_case "encode clean" `Quick test_duochk_encode_clean;
          Alcotest.test_case "row verify locates" `Quick
            test_duochk_row_verify_locates;
          Alcotest.test_case "row corrects column burst" `Quick
            test_duochk_row_corrects_row_burst;
          Alcotest.test_case "gemm rule" `Quick test_duochk_gemm_rule;
          Alcotest.test_case "getf2 rule" `Quick test_duochk_getf2_rule;
          Alcotest.test_case "panel rules" `Quick test_duochk_panel_rules;
        ] );
      ( "ft_lu",
        [
          Alcotest.test_case "clean, all schemes" `Quick
            test_ftlu_clean_all_schemes;
          Alcotest.test_case "storage error in L" `Quick
            test_ftlu_storage_error_in_l;
          Alcotest.test_case "storage error in U" `Quick
            test_ftlu_storage_error_in_u;
          Alcotest.test_case "computing error (col panel)" `Quick
            test_ftlu_computing_error_col_panel;
          Alcotest.test_case "computing error (row trsm)" `Quick
            test_ftlu_computing_error_row_panel_trsm;
          Alcotest.test_case "no_ft silent" `Quick test_ftlu_no_ft_silent;
          Alcotest.test_case "offline redoes" `Quick
            test_ftlu_offline_detects_and_redoes;
          Alcotest.test_case "online corrects computing" `Quick
            test_ftlu_online_corrects_computing;
          Alcotest.test_case "fail-stop recovery" `Quick
            test_ftlu_fail_stop_recovery;
          Alcotest.test_case "k gating" `Quick test_ftlu_k_gating;
          Alcotest.test_case "validation" `Quick test_ftlu_validation;
          Alcotest.test_case "factors bitwise = no_ft" `Quick
            test_ftlu_bitwise_no_ft;
          Alcotest.test_case "fused detection parity" `Quick
            test_ftlu_fused_detection_parity;
        ] );
      ( "schedule",
        [
          Alcotest.test_case "scheme ordering" `Quick test_sched_scheme_ordering;
          Alcotest.test_case "~2x cholesky" `Quick
            test_sched_lu_roughly_double_cholesky;
          Alcotest.test_case "fault rerun" `Quick test_sched_fault_rerun;
          Alcotest.test_case "k reduces time" `Quick test_sched_k_reduces_time;
          Alcotest.test_case "validation" `Quick test_sched_validation;
        ] );
      ("properties", props);
    ]
