(* Tests for the ABFT machinery: encoding, the four update rules, error
   detection/location/correction, schemes, the analytic overhead model
   and the Optimization-2 placement model. *)

open Matrix
open Abft

let check_float = Alcotest.check (Alcotest.float 1e-9)

let consistent ?(tol = 1e-8) chk tile = Verify.check ~tol chk tile

(* ------------------------------------------------------------------ *)
(* Checksum encoding                                                   *)
(* ------------------------------------------------------------------ *)

let test_weights () =
  let v = Checksum.weights ~d:2 ~b:4 in
  Alcotest.(check int) "rows" 4 (Mat.rows v);
  Alcotest.(check int) "cols" 2 (Mat.cols v);
  check_float "v1 all ones" 1. (Mat.get v 3 0);
  check_float "v2 ramp" 4. (Mat.get v 3 1)

let test_encode_values () =
  let a = Mat.of_arrays [| [| 1.; 2. |]; [| 3.; 4. |] |] in
  let chk = Checksum.encode a in
  let c = Checksum.matrix chk in
  (* column sums: 4, 6; weighted (1,2): 1+6=7, 2+8=10 *)
  check_float "chk1 col0" 4. (Mat.get c 0 0);
  check_float "chk1 col1" 6. (Mat.get c 0 1);
  check_float "chk2 col0" 7. (Mat.get c 1 0);
  check_float "chk2 col1" 10. (Mat.get c 1 1)

let test_encode_consistent () =
  let a = Spd.random ~seed:1 8 8 in
  let chk = Checksum.encode a in
  Alcotest.(check bool) "fresh encode verifies" true (consistent chk a)

let test_encode_d_rows () =
  let a = Spd.random ~seed:2 6 6 in
  let chk = Checksum.encode ~d:3 a in
  Alcotest.(check int) "d" 3 (Checksum.d chk);
  Alcotest.(check int) "b" 6 (Checksum.b chk);
  Alcotest.(check bool) "verifies" true (consistent chk a)

let test_encode_rectangular () =
  (* The encoding is shape-agnostic: tall panels verify and correct
     exactly like square tiles (used by the QR extension). *)
  let p = Spd.random ~seed:80 20 6 in
  let pristine = Mat.copy p in
  let chk = Checksum.encode p in
  Alcotest.(check int) "rows" 20 (Checksum.rows chk);
  Alcotest.(check int) "cols" 6 (Checksum.b chk);
  Alcotest.(check bool) "clean" true (Verify.check chk p);
  Mat.set p 17 3 (Mat.get p 17 3 +. 123.);
  (match Verify.verify chk p with
  | Verify.Corrected [ f ] ->
      Alcotest.(check int) "row" 17 f.Verify.row;
      Alcotest.(check int) "col" 3 f.Verify.col
  | o -> Alcotest.failf "expected corrected, got %a" Verify.pp_outcome o);
  Alcotest.(check bool) "restored" true (Mat.approx_equal ~tol:1e-6 pristine p)

let test_store_lower () =
  let t = Tile.of_mat ~block:4 (Spd.random_spd ~seed:3 12) in
  let store = Checksum.encode_lower t in
  Alcotest.(check int) "grid" 3 (Checksum.store_grid store);
  Alcotest.(check bool) "diag tile" true
    (consistent (Checksum.get store 1 1) (Tile.tile t 1 1));
  Alcotest.(check bool) "off-diag tile" true
    (consistent (Checksum.get store 2 0) (Tile.tile t 2 0));
  Alcotest.(check bool) "upper rejected" true
    (try
       ignore (Checksum.get store 0 2);
       false
     with Invalid_argument _ -> true);
  (* Space: 6 lower tiles x 2 x 4 doubles x 8 bytes, twice over for the
     self-protecting shadow replica. *)
  Alcotest.(check int) "bytes" (2 * 6 * 2 * 4 * 8) (Checksum.total_bytes store)

(* ------------------------------------------------------------------ *)
(* Update rules preserve the invariant                                 *)
(* ------------------------------------------------------------------ *)

let b = 6

let test_update_syrk () =
  let a = Spd.random_spd ~seed:4 b in
  let lc = Spd.random ~seed:5 b b in
  let chk_a = Checksum.encode a and chk_lc = Checksum.encode lc in
  (* A' = A - LC.LC^T (full update, as the driver applies it). *)
  Blas3.gemm ~transb:Types.Trans ~alpha:(-1.) ~beta:1. lc lc a;
  Update.syrk ~chk_a ~chk_lc ~lc;
  Alcotest.(check bool) "invariant kept" true (consistent chk_a a)

let test_update_gemm () =
  let bmat = Spd.random ~seed:6 b b in
  let ld = Spd.random ~seed:7 b b and lc = Spd.random ~seed:8 b b in
  let chk_b = Checksum.encode bmat and chk_ld = Checksum.encode ld in
  Blas3.gemm ~transb:Types.Trans ~alpha:(-1.) ~beta:1. ld lc bmat;
  Update.gemm ~chk_b ~chk_ld ~lc;
  Alcotest.(check bool) "invariant kept" true (consistent chk_b bmat)

let test_update_potf2 () =
  let a = Spd.random_spd ~seed:9 b in
  let chk = Checksum.encode a in
  let la = Mat.copy a in
  Lapack.potf2 Types.Lower la;
  Update.potf2 ~chk ~la;
  Alcotest.(check bool) "chk(L) consistent with L" true
    (consistent ~tol:1e-7 chk la)

let test_update_potf2_equals_trsm_form () =
  let a = Spd.random_spd ~seed:10 b in
  let chk1 = Checksum.encode a and chk2 = Checksum.encode a in
  let la = Mat.copy a in
  Lapack.potf2 Types.Lower la;
  Update.potf2 ~chk:chk1 ~la;
  Update.potf2_by_trsm ~chk:chk2 ~la;
  Alcotest.(check bool) "Algorithm 2 = trsm form" true
    (Mat.approx_equal ~tol:1e-9 (Checksum.matrix chk1) (Checksum.matrix chk2))

let test_update_trsm () =
  let a = Spd.random_spd ~seed:11 b in
  let la = Mat.copy a in
  Lapack.potf2 Types.Lower la;
  let panel = Spd.random ~seed:12 b b in
  let chk = Checksum.encode panel in
  (* LB = B . (LA^T)^-1 *)
  Blas3.trsm Types.Right Types.Lower Types.Trans Types.Non_unit_diag la panel;
  Update.trsm ~chk ~la;
  Alcotest.(check bool) "invariant kept" true (consistent ~tol:1e-7 chk panel)

let test_update_chain_full_iteration () =
  (* Push one full Cholesky iteration through all four rules. *)
  let a = Spd.random_spd ~seed:13 b in
  let panel = Spd.random ~seed:14 b b in
  let lc = Spd.random ~seed:15 b b and ld = Spd.random ~seed:16 b b in
  let chk_a = Checksum.encode a
  and chk_p = Checksum.encode panel
  and chk_lc = Checksum.encode lc
  and chk_ld = Checksum.encode ld in
  (* SYRK on diag *)
  Blas3.gemm ~transb:Types.Trans ~alpha:(-1.) ~beta:1. lc lc a;
  Update.syrk ~chk_a ~chk_lc ~lc;
  (* shift to keep SPD for the potf2 step *)
  for i = 0 to b - 1 do
    Mat.set a i i (Mat.get a i i +. (4. *. float_of_int b))
  done;
  let chk_a = Checksum.encode a in
  (* GEMM on panel *)
  Blas3.gemm ~transb:Types.Trans ~alpha:(-1.) ~beta:1. ld lc panel;
  Update.gemm ~chk_b:chk_p ~chk_ld ~lc;
  (* POTF2 *)
  Lapack.potf2 Types.Lower a;
  Update.potf2 ~chk:chk_a ~la:a;
  (* TRSM *)
  Blas3.trsm Types.Right Types.Lower Types.Trans Types.Non_unit_diag a panel;
  Update.trsm ~chk:chk_p ~la:a;
  Alcotest.(check bool) "diag consistent" true (consistent ~tol:1e-7 chk_a a);
  Alcotest.(check bool) "panel consistent" true (consistent ~tol:1e-7 chk_p panel)

let test_update_shape_guards () =
  let chk = Checksum.encode (Spd.random ~seed:17 4 4) in
  let wrong = Spd.random ~seed:18 6 6 in
  Alcotest.(check bool) "raises" true
    (try
       Update.trsm ~chk ~la:wrong;
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Verification: detect, locate, correct                               *)
(* ------------------------------------------------------------------ *)

let test_verify_clean () =
  let a = Spd.random ~seed:19 8 8 in
  let chk = Checksum.encode a in
  (match Verify.verify chk a with
  | Verify.Clean -> ()
  | o -> Alcotest.failf "expected clean, got %a" Verify.pp_outcome o)

let test_verify_corrects_single_error () =
  let a = Spd.random ~seed:20 8 8 in
  let pristine = Mat.copy a in
  let chk = Checksum.encode a in
  Mat.set a 5 2 (Mat.get a 5 2 +. 1000.);
  (match Verify.verify chk a with
  | Verify.Corrected [ f ] ->
      Alcotest.(check int) "row" 5 f.Verify.row;
      Alcotest.(check int) "col" 2 f.Verify.col
  | o -> Alcotest.failf "expected 1 correction, got %a" Verify.pp_outcome o);
  Alcotest.(check bool) "restored" true (Mat.approx_equal ~tol:1e-6 pristine a)

let test_verify_corrects_bitflip () =
  let a = Spd.random ~seed:21 8 8 in
  let pristine = Mat.copy a in
  let chk = Checksum.encode a in
  Mat.set a 3 6 (Bitflip.flip (Mat.get a 3 6) 55);
  (match Verify.verify chk a with
  | Verify.Corrected _ -> ()
  | o -> Alcotest.failf "expected corrected, got %a" Verify.pp_outcome o);
  Alcotest.(check bool) "restored" true (Mat.approx_equal ~tol:1e-6 pristine a)

let test_verify_corrects_one_error_per_column () =
  (* The paper: up to one error per column is correctable. *)
  let a = Spd.random ~seed:22 8 8 in
  let pristine = Mat.copy a in
  let chk = Checksum.encode a in
  Mat.set a 1 0 (Mat.get a 1 0 +. 100.);
  Mat.set a 6 3 (Mat.get a 6 3 -. 250.);
  Mat.set a 0 7 (Mat.get a 0 7 +. 5.);
  (match Verify.verify chk a with
  | Verify.Corrected fixes -> Alcotest.(check int) "three" 3 (List.length fixes)
  | o -> Alcotest.failf "expected corrected, got %a" Verify.pp_outcome o);
  Alcotest.(check bool) "restored" true (Mat.approx_equal ~tol:1e-6 pristine a)

let test_verify_two_errors_same_column_uncorrectable () =
  let a = Spd.random ~seed:23 8 8 in
  let chk = Checksum.encode a in
  Mat.set a 1 4 (Mat.get a 1 4 +. 100.);
  Mat.set a 6 4 (Mat.get a 6 4 +. 70.);
  match Verify.verify chk a with
  | Verify.Uncorrectable _ -> ()
  | o -> Alcotest.failf "expected uncorrectable, got %a" Verify.pp_outcome o

let test_verify_single_checksum_detects_only () =
  let a = Spd.random ~seed:24 8 8 in
  let chk = Checksum.encode ~d:1 a in
  Mat.set a 2 2 (Mat.get a 2 2 +. 50.);
  Alcotest.(check bool) "detected" false (Verify.check chk a);
  match Verify.verify chk a with
  | Verify.Uncorrectable _ -> ()
  | o -> Alcotest.failf "expected uncorrectable, got %a" Verify.pp_outcome o

let test_verify_cancelling_errors_caught_by_second_row () =
  (* Two errors in one column that cancel in the plain sum are still
     visible to the weighted row; they are not locatable, but they must
     not pass as clean. *)
  let a = Spd.random ~seed:25 8 8 in
  let chk = Checksum.encode a in
  Mat.set a 1 3 (Mat.get a 1 3 +. 100.);
  Mat.set a 5 3 (Mat.get a 5 3 -. 100.);
  match Verify.verify chk a with
  | Verify.Uncorrectable _ -> ()
  | o -> Alcotest.failf "expected uncorrectable, got %a" Verify.pp_outcome o

let test_verify_rounding_tolerance () =
  (* Tiny perturbations below the threshold must be treated as noise. *)
  let a = Spd.random ~seed:26 8 8 in
  let chk = Checksum.encode a in
  Mat.set a 0 0 (Mat.get a 0 0 +. 1e-13);
  match Verify.verify chk a with
  | Verify.Clean -> ()
  | o -> Alcotest.failf "expected clean, got %a" Verify.pp_outcome o

let test_verify_after_update_chain_catches_fault () =
  (* Inject mid-chain and confirm verification against the *updated*
     checksum still locates the error — the end-to-end ABFT story. *)
  let a = Spd.random_spd ~seed:27 b in
  let lc = Spd.random ~seed:28 b b in
  let chk_a = Checksum.encode a and chk_lc = Checksum.encode lc in
  Blas3.gemm ~transb:Types.Trans ~alpha:(-1.) ~beta:1. lc lc a;
  Update.syrk ~chk_a ~chk_lc ~lc;
  let pristine = Mat.copy a in
  Mat.set a 2 4 (Mat.get a 2 4 +. 77.);
  (match Verify.verify chk_a a with
  | Verify.Corrected [ f ] ->
      Alcotest.(check int) "row" 2 f.Verify.row;
      Alcotest.(check int) "col" 4 f.Verify.col
  | o -> Alcotest.failf "expected corrected, got %a" Verify.pp_outcome o);
  Alcotest.(check bool) "restored" true (Mat.approx_equal ~tol:1e-6 pristine a)

let test_verify_corrupted_checksum_detected () =
  let a = Spd.random ~seed:29 8 8 in
  let chk = Checksum.encode a in
  Checksum.corrupt chk ~row:1 ~col:2 1e9;
  Alcotest.(check bool) "not clean" false (Verify.check chk a)

(* ------------------------------------------------------------------ *)
(* Non-finite corruption (Inf/NaN bit flips)                           *)
(* ------------------------------------------------------------------ *)

let test_verify_inf_flip_corrected () =
  let a = Spd.random ~seed:50 8 8 in
  let pristine = Mat.copy a in
  let chk = Checksum.encode a in
  (* flipping bit 62 on a small value creates a huge/overflowing one *)
  Mat.set a 4 2 (Bitflip.flip (Mat.get a 4 2) 62);
  Alcotest.(check bool) "really non-finite or huge" true
    ((not (Float.is_finite (Mat.get a 4 2)))
    || abs_float (Mat.get a 4 2) > 1e100);
  (match Verify.verify chk a with
  | Verify.Corrected _ -> ()
  | o -> Alcotest.failf "expected corrected, got %a" Verify.pp_outcome o);
  Alcotest.(check bool) "restored" true (Mat.approx_equal ~tol:1e-6 pristine a)

let test_verify_nan_corrected () =
  let a = Spd.random ~seed:51 8 8 in
  let pristine = Mat.copy a in
  let chk = Checksum.encode a in
  Mat.set a 3 5 Float.nan;
  (match Verify.verify chk a with
  | Verify.Corrected [ f ] ->
      Alcotest.(check int) "row" 3 f.Verify.row;
      Alcotest.(check int) "col" 5 f.Verify.col;
      Alcotest.(check bool) "finite fix" true (Float.is_finite f.Verify.fixed)
  | o -> Alcotest.failf "expected corrected, got %a" Verify.pp_outcome o);
  Alcotest.(check bool) "restored" true (Mat.approx_equal ~tol:1e-6 pristine a)

let test_verify_two_nans_uncorrectable () =
  let a = Spd.random ~seed:52 8 8 in
  let chk = Checksum.encode a in
  Mat.set a 1 5 Float.nan;
  Mat.set a 6 5 Float.infinity;
  match Verify.verify chk a with
  | Verify.Uncorrectable _ -> ()
  | o -> Alcotest.failf "expected uncorrectable, got %a" Verify.pp_outcome o

let test_verify_nan_not_clean () =
  let a = Spd.random ~seed:53 8 8 in
  let chk = Checksum.encode a in
  Mat.set a 0 0 Float.nan;
  Alcotest.(check bool) "detected" false (Verify.check chk a)

let test_ft_recovers_from_inf_flip () =
  (* End to end: an exponent flip to a huge value mid-factorization,
     absorbed by Enhanced before the next read. *)
  let open Cholesky in
  let a = Spd.random_spd ~seed:54 48 in
  let plan =
    [ Fault.storage_error ~bit:62 ~iteration:2 ~block:(3, 0) ~element:(2, 2) () ]
  in
  let cfg = Config.make ~machine:Hetsim.Machine.testbench ~block:8 () in
  let r = Ft.factor ~plan cfg a in
  Alcotest.(check bool) "success" true (r.Ft.outcome = Ft.Success);
  Alcotest.(check int) "no restart" 0 r.Ft.stats.Ft.restarts

(* ------------------------------------------------------------------ *)
(* Two-error correction with d = 4 checksum rows (extension)           *)
(* ------------------------------------------------------------------ *)

let test_verify2_corrects_two_in_a_column () =
  let a = Spd.random ~seed:40 10 10 in
  let pristine = Mat.copy a in
  let chk = Checksum.encode ~d:4 a in
  Mat.set a 2 5 (Mat.get a 2 5 +. 300.);
  Mat.set a 7 5 (Mat.get a 7 5 -. 120.);
  (match Verify.verify chk a with
  | Verify.Corrected fixes -> Alcotest.(check int) "two fixes" 2 (List.length fixes)
  | o -> Alcotest.failf "expected corrected, got %a" Verify.pp_outcome o);
  Alcotest.(check bool) "restored" true (Mat.approx_equal ~tol:1e-5 pristine a)

let test_verify2_cancelling_pair () =
  (* e1 = -e2: invisible to the plain sum, recovered from the weighted
     rows. *)
  let a = Spd.random ~seed:41 10 10 in
  let pristine = Mat.copy a in
  let chk = Checksum.encode ~d:4 a in
  Mat.set a 1 3 (Mat.get a 1 3 +. 250.);
  Mat.set a 8 3 (Mat.get a 8 3 -. 250.);
  (match Verify.verify chk a with
  | Verify.Corrected _ -> ()
  | o -> Alcotest.failf "expected corrected, got %a" Verify.pp_outcome o);
  Alcotest.(check bool) "restored" true (Mat.approx_equal ~tol:1e-5 pristine a)

let test_verify2_single_still_works () =
  let a = Spd.random ~seed:42 8 8 in
  let pristine = Mat.copy a in
  let chk = Checksum.encode ~d:4 a in
  Mat.set a 4 4 (Mat.get a 4 4 +. 77.);
  (match Verify.verify chk a with
  | Verify.Corrected [ f ] ->
      Alcotest.(check int) "row" 4 f.Verify.row;
      Alcotest.(check int) "col" 4 f.Verify.col
  | o -> Alcotest.failf "expected one fix, got %a" Verify.pp_outcome o);
  Alcotest.(check bool) "restored" true (Mat.approx_equal ~tol:1e-6 pristine a)

let test_verify2_three_errors_uncorrectable () =
  let a = Spd.random ~seed:43 10 10 in
  let chk = Checksum.encode ~d:4 a in
  Mat.set a 0 6 (Mat.get a 0 6 +. 100.);
  Mat.set a 4 6 (Mat.get a 4 6 +. 90.);
  Mat.set a 9 6 (Mat.get a 9 6 -. 50.);
  match Verify.verify chk a with
  | Verify.Uncorrectable _ -> ()
  | o -> Alcotest.failf "expected uncorrectable, got %a" Verify.pp_outcome o

let test_verify2_d2_still_fails_on_pairs () =
  (* The paper's d = 2 cannot repair two errors in one column. *)
  let a = Spd.random ~seed:44 10 10 in
  let chk = Checksum.encode a in
  Mat.set a 2 5 (Mat.get a 2 5 +. 300.);
  Mat.set a 7 5 (Mat.get a 7 5 -. 120.);
  match Verify.verify chk a with
  | Verify.Uncorrectable _ -> ()
  | o -> Alcotest.failf "expected uncorrectable, got %a" Verify.pp_outcome o

let test_max_correctable () =
  Alcotest.(check int) "d=1" 0 (Verify.max_correctable_per_column ~d:1);
  Alcotest.(check int) "d=2" 1 (Verify.max_correctable_per_column ~d:2);
  Alcotest.(check int) "d=4" 2 (Verify.max_correctable_per_column ~d:4)

let test_verify2_update_rules_preserve_d4 () =
  (* The update rules are d-agnostic: push a SYRK through with d = 4
     and corrupt two elements of one column afterwards. *)
  let a = Spd.random_spd ~seed:45 b in
  let lc = Spd.random ~seed:46 b b in
  let chk_a = Checksum.encode ~d:4 a and chk_lc = Checksum.encode ~d:4 lc in
  Blas3.gemm ~transb:Types.Trans ~alpha:(-1.) ~beta:1. lc lc a;
  Update.syrk ~chk_a ~chk_lc ~lc;
  let pristine = Mat.copy a in
  Mat.set a 0 2 (Mat.get a 0 2 +. 55.);
  Mat.set a 3 2 (Mat.get a 3 2 -. 200.);
  (match Verify.verify chk_a a with
  | Verify.Corrected _ -> ()
  | o -> Alcotest.failf "expected corrected, got %a" Verify.pp_outcome o);
  Alcotest.(check bool) "restored" true (Mat.approx_equal ~tol:1e-5 pristine a)

(* ------------------------------------------------------------------ *)
(* Scheme                                                              *)
(* ------------------------------------------------------------------ *)

let test_scheme_names_roundtrip () =
  List.iter
    (fun s ->
      match Scheme.of_string (Scheme.name s) with
      | Ok s' -> Alcotest.(check string) "roundtrip" (Scheme.name s) (Scheme.name s')
      | Error e -> Alcotest.fail e)
    (Scheme.all @ [ Scheme.Enhanced { k = 5 } ])

let test_scheme_of_string_aliases () =
  Alcotest.(check bool) "magma" true (Scheme.of_string "magma" = Ok Scheme.No_ft);
  Alcotest.(check bool) "enhanced" true
    (Scheme.of_string "enhanced" = Ok (Scheme.Enhanced { k = 1 }));
  Alcotest.(check bool) "enhanced-k3" true
    (Scheme.of_string "enhanced-k3" = Ok (Scheme.Enhanced { k = 3 }));
  Alcotest.(check bool) "junk" true (Result.is_error (Scheme.of_string "junk"));
  Alcotest.(check bool) "bad k" true
    (Result.is_error (Scheme.of_string "enhanced-k0"))

let test_scheme_capabilities () =
  (* The paper's Table VII capability matrix. *)
  Alcotest.(check bool) "offline/comp" false
    (Scheme.corrects_computing_errors Scheme.Offline);
  Alcotest.(check bool) "online/comp" true
    (Scheme.corrects_computing_errors Scheme.Online);
  Alcotest.(check bool) "online/storage" false
    (Scheme.corrects_storage_errors Scheme.Online);
  Alcotest.(check bool) "enhanced/storage" true
    (Scheme.corrects_storage_errors (Scheme.enhanced ()));
  Alcotest.(check int) "interval" 4
    (Scheme.verification_interval (Scheme.Enhanced { k = 4 }))

(* ------------------------------------------------------------------ *)
(* Overhead model                                                      *)
(* ------------------------------------------------------------------ *)

let p = { Overhead_model.n = 20480; b = 256; k = 1 }

let test_model_encode () =
  check_float "2n^2" (2. *. (20480. ** 2.)) (Overhead_model.encode_flops p);
  check_float "6/n relative"
    (6. /. 20480.)
    (Overhead_model.encode_flops p /. Overhead_model.cholesky_flops p)

let test_model_update_relative_matches_flops () =
  check_float "12/n + 2/B"
    (Overhead_model.update_flops p /. Overhead_model.cholesky_flops p)
    (Overhead_model.update_relative p)

let test_model_recalc_relative_matches_flops () =
  check_float "online" (12. /. 20480.)
    (Overhead_model.recalc_flops_online p /. Overhead_model.cholesky_flops p);
  List.iter
    (fun k ->
      let p = { p with Overhead_model.k } in
      check_float
        (Printf.sprintf "enhanced k=%d" k)
        (Overhead_model.recalc_flops_enhanced p
        /. Overhead_model.cholesky_flops p)
        (Overhead_model.recalc_relative_enhanced p))
    [ 1; 3; 5 ]

let test_model_k1_enhanced_vs_online () =
  (* At K=1 the enhanced recalculation includes the full GEMM-input
     verification, so it must exceed online's. *)
  Alcotest.(check bool) "enhanced > online" true
    (Overhead_model.recalc_relative_enhanced p
    > Overhead_model.recalc_relative_online p)

let test_model_k_decreases_overhead () =
  let at k =
    Overhead_model.overall_relative_enhanced { p with Overhead_model.k }
  in
  Alcotest.(check bool) "k=3 < k=1" true (at 3 < at 1);
  Alcotest.(check bool) "k=5 < k=3" true (at 5 < at 3)

let test_model_asymptotes () =
  check_float "online 2/B" (2. /. 256.) (Overhead_model.asymptote_online p);
  check_float "enhanced (2K+2)/BK at K=1" (4. /. 256.)
    (Overhead_model.asymptote_enhanced p);
  (* Large n converges to the asymptote. *)
  let big = { Overhead_model.n = 10_000_000; b = 256; k = 1 } in
  Alcotest.(check bool) "converges" true
    (abs_float
       (Overhead_model.overall_relative_enhanced big
       -. Overhead_model.asymptote_enhanced big)
    < 1e-4)

let test_model_space () =
  check_float "2/B" (2. /. 256.) (Overhead_model.space_relative p);
  check_float "bytes" (8. *. 2. *. (20480. ** 2.) /. 256.)
    (Overhead_model.space_bytes p)

(* ------------------------------------------------------------------ *)
(* Placement model (Optimization 2)                                    *)
(* ------------------------------------------------------------------ *)

let test_placement_paper_choices () =
  (* §VII-D: CPU updating on Tardis, GPU updating on Bulldozer64. *)
  let d_tardis =
    Placement.decide Hetsim.Machine.tardis
      { Overhead_model.n = 20480; b = 256; k = 1 }
  in
  Alcotest.(check string) "tardis -> cpu" "cpu"
    (Placement.choice_name d_tardis.Placement.choice);
  let d_bull =
    Placement.decide Hetsim.Machine.bulldozer64
      { Overhead_model.n = 30720; b = 512; k = 1 }
  in
  Alcotest.(check string) "bulldozer64 -> gpu" "gpu"
    (Placement.choice_name d_bull.Placement.choice)

let test_placement_estimates_positive () =
  let d =
    Placement.decide Hetsim.Machine.tardis
      { Overhead_model.n = 8192; b = 256; k = 3 }
  in
  Alcotest.(check bool) "positive" true
    (d.Placement.t_pick_gpu > 0. && d.Placement.t_pick_cpu > 0.)

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

let gen_tile =
  QCheck.Gen.(
    int_range 2 12 >>= fun n ->
    array_size (return (n * n)) (float_range (-100.) 100.) >|= fun d ->
    Mat.of_col_major ~rows:n ~cols:n d)

let arb_tile = QCheck.make gen_tile ~print:Mat.to_string

let prop_encode_verifies =
  QCheck.Test.make ~name:"fresh encoding always verifies" ~count:200 arb_tile
    (fun a -> Verify.check (Checksum.encode a) a)

let prop_single_error_corrected =
  QCheck.Test.make ~name:"any single significant error is located+corrected"
    ~count:200
    (QCheck.make
       QCheck.Gen.(
         gen_tile >>= fun a ->
         let n = Mat.rows a in
         int_range 0 (n - 1) >>= fun i ->
         int_range 0 (n - 1) >>= fun j ->
         float_range 1. 1e6 >>= fun d ->
         oneofl [ d; -.d ] >|= fun delta -> (a, i, j, delta)))
    (fun (a, i, j, delta) ->
      let chk = Checksum.encode a in
      let want = Mat.get a i j in
      Mat.set a i j (want +. delta);
      match Verify.verify chk a with
      | Verify.Corrected [ f ] ->
          f.Verify.row = i && f.Verify.col = j
          && abs_float (Mat.get a i j -. want) < 1e-6
      | _ -> false)

let prop_syrk_update_preserves =
  QCheck.Test.make ~name:"syrk rule preserves invariant" ~count:100
    (QCheck.make QCheck.Gen.(pair gen_tile gen_tile))
    (fun (a, lc0) ->
      let n = Mat.rows a in
      QCheck.assume (Mat.rows lc0 = n);
      let lc = lc0 in
      let chk_a = Checksum.encode a and chk_lc = Checksum.encode lc in
      Blas3.gemm ~transb:Types.Trans ~alpha:(-1.) ~beta:1. lc lc a;
      Update.syrk ~chk_a ~chk_lc ~lc;
      Verify.check ~tol:1e-6 chk_a a)

let prop_trsm_update_preserves =
  QCheck.Test.make ~name:"trsm rule preserves invariant" ~count:100
    (QCheck.make
       QCheck.Gen.(
         pair (int_range 2 10) (int_range 0 100000) >|= fun (n, seed) ->
         (Spd.random_spd ~seed n, Spd.random ~seed:(seed + 1) n n)))
    (fun (spd, panel) ->
      let la = Mat.copy spd in
      Lapack.potf2 Types.Lower la;
      let chk = Checksum.encode panel in
      Blas3.trsm Types.Right Types.Lower Types.Trans Types.Non_unit_diag la
        panel;
      Update.trsm ~chk ~la;
      Verify.check ~tol:1e-5 chk panel)

let prop_two_errors_corrected_d4 =
  QCheck.Test.make ~name:"d=4: any two significant errors in a column corrected"
    ~count:200
    (QCheck.make
       QCheck.Gen.(
         int_range 4 12 >>= fun n ->
         array_size (return (n * n)) (float_range (-50.) 50.) >>= fun data ->
         int_range 0 (n - 1) >>= fun col ->
         int_range 0 (n - 1) >>= fun r1 ->
         int_range 0 (n - 1) >>= fun r2 ->
         float_range 10. 1e5 >>= fun e1 ->
         float_range 10. 1e5 >|= fun e2 ->
         (Mat.of_col_major ~rows:n ~cols:n data, col, r1, r2, e1, -.e2)))
    (fun (a, col, r1, r2, e1, e2) ->
      QCheck.assume (r1 <> r2);
      let pristine = Mat.copy a in
      let chk = Checksum.encode ~d:4 a in
      Mat.set a r1 col (Mat.get a r1 col +. e1);
      Mat.set a r2 col (Mat.get a r2 col +. e2);
      match Verify.verify chk a with
      | Verify.Corrected _ -> Mat.approx_equal ~tol:1e-4 pristine a
      | _ -> false)

let prop_high_exponent_flip_handled =
  QCheck.Test.make
    ~name:"any single high-exponent flip is corrected or honestly refused"
    ~count:200
    (QCheck.make
       QCheck.Gen.(
         int_range 2 12 >>= fun n ->
         array_size (return (n * n)) (float_range (-100.) 100.) >>= fun data ->
         int_range 0 (n - 1) >>= fun i ->
         int_range 0 (n - 1) >>= fun j ->
         int_range 53 63 >|= fun bit ->
         (Mat.of_col_major ~rows:n ~cols:n data, i, j, bit)))
    (fun (a, i, j, bit) ->
      let pristine = Mat.copy a in
      let chk = Checksum.encode a in
      Mat.set a i j (Bitflip.flip (Mat.get a i j) bit);
      QCheck.assume (Mat.get a i j <> Mat.get pristine i j);
      match Verify.verify chk a with
      | Verify.Corrected _ -> Mat.approx_equal ~tol:1e-5 pristine a
      | Verify.Uncorrectable _ -> true (* honest refusal, never silent lies *)
      | Verify.Checksum_repaired _ ->
          (* only the tile was corrupted; the replicas agree, so replica
             healing must never trigger here *)
          false
      | Verify.Clean ->
          (* acceptable only if the flip was below threshold *)
          abs_float (Mat.get a i j -. Mat.get pristine i j) < 1e-3)

let props =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_encode_verifies;
      prop_two_errors_corrected_d4;
      prop_high_exponent_flip_handled;
      prop_single_error_corrected;
      prop_syrk_update_preserves;
      prop_trsm_update_preserves;
    ]

let () =
  Alcotest.run "abft"
    [
      ( "checksum",
        [
          Alcotest.test_case "weights" `Quick test_weights;
          Alcotest.test_case "encode values" `Quick test_encode_values;
          Alcotest.test_case "encode consistent" `Quick test_encode_consistent;
          Alcotest.test_case "d rows" `Quick test_encode_d_rows;
          Alcotest.test_case "rectangular" `Quick test_encode_rectangular;
          Alcotest.test_case "lower store" `Quick test_store_lower;
        ] );
      ( "update",
        [
          Alcotest.test_case "syrk" `Quick test_update_syrk;
          Alcotest.test_case "gemm" `Quick test_update_gemm;
          Alcotest.test_case "potf2 (Algorithm 2)" `Quick test_update_potf2;
          Alcotest.test_case "potf2 = trsm form" `Quick
            test_update_potf2_equals_trsm_form;
          Alcotest.test_case "trsm" `Quick test_update_trsm;
          Alcotest.test_case "full iteration chain" `Quick
            test_update_chain_full_iteration;
          Alcotest.test_case "shape guards" `Quick test_update_shape_guards;
        ] );
      ( "verify",
        [
          Alcotest.test_case "clean" `Quick test_verify_clean;
          Alcotest.test_case "single error corrected" `Quick
            test_verify_corrects_single_error;
          Alcotest.test_case "bitflip corrected" `Quick
            test_verify_corrects_bitflip;
          Alcotest.test_case "one per column" `Quick
            test_verify_corrects_one_error_per_column;
          Alcotest.test_case "two in a column uncorrectable" `Quick
            test_verify_two_errors_same_column_uncorrectable;
          Alcotest.test_case "d=1 detects only" `Quick
            test_verify_single_checksum_detects_only;
          Alcotest.test_case "cancelling errors" `Quick
            test_verify_cancelling_errors_caught_by_second_row;
          Alcotest.test_case "rounding tolerance" `Quick
            test_verify_rounding_tolerance;
          Alcotest.test_case "after update chain" `Quick
            test_verify_after_update_chain_catches_fault;
          Alcotest.test_case "corrupted checksum detected" `Quick
            test_verify_corrupted_checksum_detected;
        ] );
      ( "verify_nonfinite",
        [
          Alcotest.test_case "inf flip corrected" `Quick
            test_verify_inf_flip_corrected;
          Alcotest.test_case "nan corrected" `Quick test_verify_nan_corrected;
          Alcotest.test_case "two nonfinite uncorrectable" `Quick
            test_verify_two_nans_uncorrectable;
          Alcotest.test_case "nan not clean" `Quick test_verify_nan_not_clean;
          Alcotest.test_case "ft recovers from inf" `Quick
            test_ft_recovers_from_inf_flip;
        ] );
      ( "verify_d4",
        [
          Alcotest.test_case "two errors in a column" `Quick
            test_verify2_corrects_two_in_a_column;
          Alcotest.test_case "cancelling pair" `Quick test_verify2_cancelling_pair;
          Alcotest.test_case "single error still works" `Quick
            test_verify2_single_still_works;
          Alcotest.test_case "three errors uncorrectable" `Quick
            test_verify2_three_errors_uncorrectable;
          Alcotest.test_case "d=2 fails on pairs" `Quick
            test_verify2_d2_still_fails_on_pairs;
          Alcotest.test_case "max_correctable" `Quick test_max_correctable;
          Alcotest.test_case "update rules at d=4" `Quick
            test_verify2_update_rules_preserve_d4;
        ] );
      ( "scheme",
        [
          Alcotest.test_case "name roundtrip" `Quick test_scheme_names_roundtrip;
          Alcotest.test_case "of_string aliases" `Quick
            test_scheme_of_string_aliases;
          Alcotest.test_case "capability matrix" `Quick test_scheme_capabilities;
        ] );
      ( "overhead_model",
        [
          Alcotest.test_case "encode" `Quick test_model_encode;
          Alcotest.test_case "update relative" `Quick
            test_model_update_relative_matches_flops;
          Alcotest.test_case "recalc relative" `Quick
            test_model_recalc_relative_matches_flops;
          Alcotest.test_case "enhanced > online at k=1" `Quick
            test_model_k1_enhanced_vs_online;
          Alcotest.test_case "k decreases overhead" `Quick
            test_model_k_decreases_overhead;
          Alcotest.test_case "asymptotes" `Quick test_model_asymptotes;
          Alcotest.test_case "space" `Quick test_model_space;
        ] );
      ( "placement",
        [
          Alcotest.test_case "paper choices" `Quick test_placement_paper_choices;
          Alcotest.test_case "estimates positive" `Quick
            test_placement_estimates_positive;
        ] );
      ("properties", props);
    ]
