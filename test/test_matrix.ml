(* Tests for the dense linear-algebra substrate: Vec, Mat, Blas2, Blas3,
   Lapack, Spd, Tile. Reference results are computed with naive
   triple-loop kernels defined locally, so the production kernels are
   checked against an independent implementation. *)

open Matrix

let mat_testable =
  Alcotest.testable Mat.pp (fun a b -> Mat.approx_equal ~tol:1e-9 a b)

let check_mat = Alcotest.check mat_testable
let check_float = Alcotest.check (Alcotest.float 1e-9)

(* Naive reference kernels. *)
let ref_mm a b =
  let m = Mat.rows a and k = Mat.cols a and n = Mat.cols b in
  Mat.init m n (fun i j ->
      let acc = ref 0. in
      for l = 0 to k - 1 do
        acc := !acc +. (Mat.get a i l *. Mat.get b l j)
      done;
      !acc)

let ref_mv a x =
  Array.init (Mat.rows a) (fun i ->
      let acc = ref 0. in
      for j = 0 to Mat.cols a - 1 do
        acc := !acc +. (Mat.get a i j *. x.(j))
      done;
      !acc)

(* ------------------------------------------------------------------ *)
(* Vec                                                                 *)
(* ------------------------------------------------------------------ *)

let test_vec_constructors () =
  Alcotest.(check (array (float 0.))) "ones" [| 1.; 1.; 1. |] (Vec.ones 3);
  Alcotest.(check (array (float 0.))) "ramp" [| 1.; 2.; 3.; 4. |] (Vec.ramp 4);
  Alcotest.(check (array (float 0.))) "create" [| 0.; 0. |] (Vec.create 2)

let test_vec_axpy_dot () =
  let x = [| 1.; 2.; 3. |] and y = [| 10.; 20.; 30. |] in
  Vec.axpy 2. x y;
  Alcotest.(check (array (float 1e-12))) "axpy" [| 12.; 24.; 36. |] y;
  check_float "dot" 14. (Vec.dot x x);
  check_float "asum" 6. (Vec.asum x)

let test_vec_nrm2 () =
  check_float "3-4-5" 5. (Vec.nrm2 [| 3.; 4. |]);
  check_float "empty" 0. (Vec.nrm2 [||]);
  check_float "zero" 0. (Vec.nrm2 [| 0.; 0. |]);
  (* a NaN is never dropped, even beside nothing but zeros *)
  Alcotest.(check bool) "nan" true (Float.is_nan (Vec.nrm2 [| nan; nan |]));
  Alcotest.(check bool) "nan and zero" true
    (Float.is_nan (Vec.nrm2 [| 0.; nan |]));
  (* Scaling must prevent overflow for huge components. *)
  let big = 1e300 in
  check_float "no overflow" (big *. sqrt 2.) (Vec.nrm2 [| big; big |])

let test_vec_iamax () =
  Alcotest.(check int) "iamax" 2 (Vec.iamax [| 1.; -2.; 5.; 4. |]);
  Alcotest.(check int) "iamax negative" 1 (Vec.iamax [| 1.; -7.; 5. |]);
  Alcotest.check_raises "empty" (Invalid_argument "Vec.iamax: empty vector")
    (fun () -> ignore (Vec.iamax [||]))

let test_vec_mismatch () =
  Alcotest.check_raises "dot mismatch"
    (Invalid_argument "Vec.dot: length mismatch (2 vs 3)") (fun () ->
      ignore (Vec.dot [| 1.; 2. |] [| 1.; 2.; 3. |]))

(* ------------------------------------------------------------------ *)
(* Mat                                                                 *)
(* ------------------------------------------------------------------ *)

let test_mat_storage_order () =
  (* Column-major: (i,j) at j*rows+i. *)
  let a = Mat.of_arrays [| [| 1.; 2. |]; [| 3.; 4. |] |] in
  check_float "a00" 1. (Mat.get a 0 0);
  check_float "a01" 2. (Mat.get a 0 1);
  check_float "a10" 3. (Mat.get a 1 0);
  Alcotest.(check (array (float 0.)))
    "flat data is column-major" [| 1.; 3.; 2.; 4. |]
    (a : Mat.t :> Mat.t).Mat.data

let test_mat_roundtrip () =
  let rows = [| [| 1.; 2.; 3. |]; [| 4.; 5.; 6. |] |] in
  let a = Mat.of_arrays rows in
  Alcotest.(check (array (array (float 0.)))) "roundtrip" rows (Mat.to_arrays a)

let test_mat_sub_blit () =
  let a = Mat.init 4 4 (fun i j -> float_of_int ((10 * i) + j)) in
  let s = Mat.sub a ~row:1 ~col:2 ~rows:2 ~cols:2 in
  check_mat "sub" (Mat.of_arrays [| [| 12.; 13. |]; [| 22.; 23. |] |]) s;
  let d = Mat.create 4 4 in
  Mat.blit ~src:s ~dst:d ~row:0 ~col:0;
  check_float "blit" 23. (Mat.get d 1 1)

let test_mat_sub_out_of_bounds () =
  let a = Mat.create 3 3 in
  Alcotest.(check bool) "raises" true
    (try
       ignore (Mat.sub a ~row:2 ~col:2 ~rows:2 ~cols:2);
       false
     with Invalid_argument _ -> true)

let test_mat_transpose () =
  let a = Mat.of_arrays [| [| 1.; 2.; 3. |]; [| 4.; 5.; 6. |] |] in
  let at = Mat.transpose a in
  Alcotest.(check int) "rows" 3 (Mat.rows at);
  check_float "t(0,1)" 4. (Mat.get at 0 1);
  check_mat "involution" a (Mat.transpose at)

let test_mat_norms () =
  let a = Mat.of_arrays [| [| 1.; -2. |]; [| -3.; 4. |] |] in
  check_float "fro" (sqrt 30.) (Mat.norm_fro a);
  check_float "one" 6. (Mat.norm_one a);
  check_float "inf" 7. (Mat.norm_inf a);
  check_float "max" 4. (Mat.norm_max a)

let test_mat_tri () =
  let a = Mat.of_arrays [| [| 1.; 2. |]; [| 3.; 4. |] |] in
  check_mat "tril" (Mat.of_arrays [| [| 1.; 0. |]; [| 3.; 4. |] |]) (Mat.tril a);
  check_mat "triu unit"
    (Mat.of_arrays [| [| 1.; 2. |]; [| 0.; 1. |] |])
    (Mat.triu ~diag:Types.Unit_diag a)

let test_mat_symmetrize () =
  let a = Mat.of_arrays [| [| 1.; 99. |]; [| 3.; 4. |] |] in
  check_mat "from lower"
    (Mat.of_arrays [| [| 1.; 3. |]; [| 3.; 4. |] |])
    (Mat.symmetrize_from Types.Lower a);
  check_mat "from upper"
    (Mat.of_arrays [| [| 1.; 99. |]; [| 99.; 4. |] |])
    (Mat.symmetrize_from Types.Upper a)

let test_mat_row_col () =
  let a = Mat.of_arrays [| [| 1.; 2. |]; [| 3.; 4. |] |] in
  Alcotest.(check (array (float 0.))) "row" [| 3.; 4. |] (Mat.row a 1);
  Alcotest.(check (array (float 0.))) "col" [| 2.; 4. |] (Mat.col a 1);
  Mat.set_row a 0 [| 7.; 8. |];
  check_float "set_row" 8. (Mat.get a 0 1)

(* ------------------------------------------------------------------ *)
(* Blas2                                                               *)
(* ------------------------------------------------------------------ *)

let test_gemv_notrans () =
  let a = Spd.random ~seed:1 5 3 in
  let x = Vec.ramp 3 in
  let y = Vec.create 5 in
  Blas2.gemv a x y;
  Alcotest.(check (array (float 1e-12))) "gemv" (ref_mv a x) y

let test_gemv_trans () =
  let a = Spd.random ~seed:2 5 3 in
  let x = Vec.ramp 5 in
  let y = Vec.create 3 in
  Blas2.gemv ~trans:Types.Trans a x y;
  Alcotest.(check (array (float 1e-12))) "gemv^T" (ref_mv (Mat.transpose a) x) y

let test_gemv_alpha_beta () =
  let a = Mat.identity 3 in
  let x = [| 1.; 2.; 3. |] in
  let y = [| 10.; 10.; 10. |] in
  Blas2.gemv ~alpha:2. ~beta:0.5 a x y;
  Alcotest.(check (array (float 1e-12))) "alpha,beta" [| 7.; 9.; 11. |] y

let test_ger () =
  let a = Mat.create 2 3 in
  Blas2.ger ~alpha:2. [| 1.; 2. |] [| 1.; 2.; 3. |] a;
  check_mat "ger" (Mat.of_arrays [| [| 2.; 4.; 6. |]; [| 4.; 8.; 12. |] |]) a

let test_syr () =
  let a = Mat.create 3 3 in
  Blas2.syr Types.Lower [| 1.; 2.; 3. |] a;
  (* Only the lower triangle is written. *)
  check_float "(2,0)" 3. (Mat.get a 2 0);
  check_float "(0,2) untouched" 0. (Mat.get a 0 2);
  check_float "(1,1)" 4. (Mat.get a 1 1)

let test_trsv_all_cases () =
  let l =
    Mat.of_arrays [| [| 2.; 0.; 0. |]; [| 1.; 3.; 0. |]; [| 4.; 5.; 6. |] |]
  in
  let check_case uplo trans name =
    let x0 = [| 1.; 2.; 3. |] in
    let x = Vec.copy x0 in
    Blas2.trsv uplo trans Types.Non_unit_diag l x;
    (* Verify by multiplying back. *)
    let m =
      match uplo with Types.Lower -> Mat.tril l | Types.Upper -> Mat.triu l
    in
    let m = match trans with Types.No_trans -> m | Types.Trans -> Mat.transpose m in
    Alcotest.(check (array (float 1e-10))) name x0 (ref_mv m x)
  in
  check_case Types.Lower Types.No_trans "L";
  check_case Types.Lower Types.Trans "L^T";
  let u = Mat.transpose l in
  let x0 = [| 1.; 2.; 3. |] in
  let x = Vec.copy x0 in
  Blas2.trsv Types.Upper Types.No_trans Types.Non_unit_diag u x;
  Alcotest.(check (array (float 1e-10))) "U" x0 (ref_mv (Mat.triu u) x)

let test_trsv_unit_diag () =
  let l = Mat.of_arrays [| [| 9.; 0. |]; [| 2.; 9. |] |] in
  let x = [| 1.; 4. |] in
  Blas2.trsv Types.Lower Types.No_trans Types.Unit_diag l x;
  (* Unit diagonal: pivots are 1 regardless of the stored 9s. *)
  Alcotest.(check (array (float 1e-12))) "unit diag" [| 1.; 2. |] x

let test_trsv_zero_pivot () =
  let l = Mat.of_arrays [| [| 0. |] |] in
  Alcotest.check_raises "zero pivot" (Failure "trsv: zero pivot") (fun () ->
      Blas2.trsv Types.Lower Types.No_trans Types.Non_unit_diag l [| 1. |])

let test_trmv () =
  let l = Mat.of_arrays [| [| 2.; 0. |]; [| 1.; 3. |] |] in
  let x = [| 1.; 2. |] in
  Blas2.trmv Types.Lower Types.No_trans Types.Non_unit_diag l x;
  Alcotest.(check (array (float 1e-12))) "trmv" [| 2.; 7. |] x

(* ------------------------------------------------------------------ *)
(* Blas3                                                               *)
(* ------------------------------------------------------------------ *)

let test_gemm_basic () =
  let a = Spd.random ~seed:3 4 3 and b = Spd.random ~seed:4 3 5 in
  let c = Mat.create 4 5 in
  Blas3.gemm a b c;
  check_mat "gemm" (ref_mm a b) c

let test_gemm_trans_combinations () =
  let a = Spd.random ~seed:5 3 4 and b = Spd.random ~seed:6 5 3 in
  let c = Mat.create 4 5 in
  Blas3.gemm ~transa:Types.Trans ~transb:Types.Trans a b c;
  check_mat "A^T B^T" (ref_mm (Mat.transpose a) (Mat.transpose b)) c;
  let a2 = Spd.random ~seed:7 4 3 in
  let c2 = Mat.create 4 5 in
  Blas3.gemm ~transb:Types.Trans a2 b c2;
  check_mat "A B^T" (ref_mm a2 (Mat.transpose b)) c2

let test_gemm_alpha_beta () =
  let a = Mat.identity 2 and b = Mat.scalar 2 3. in
  let c = Mat.scalar 2 10. in
  Blas3.gemm ~alpha:2. ~beta:1. a b c;
  check_mat "accumulate" (Mat.scalar 2 16.) c

let test_gemm_mismatch () =
  let a = Mat.create 2 3 and b = Mat.create 2 2 and c = Mat.create 2 2 in
  Alcotest.(check bool) "raises" true
    (try
       Blas3.gemm a b c;
       false
     with Mat.Dimension_mismatch _ -> true)

let test_syrk_lower () =
  let a = Spd.random ~seed:8 4 3 in
  let c = Mat.create 4 4 in
  Blas3.syrk Types.Lower a c;
  let full = ref_mm a (Mat.transpose a) in
  (* Lower triangle must match; strict upper must be untouched (zero). *)
  for i = 0 to 3 do
    for j = 0 to 3 do
      if i >= j then check_float "lower" (Mat.get full i j) (Mat.get c i j)
      else check_float "upper zero" 0. (Mat.get c i j)
    done
  done

let test_syrk_trans_accumulate () =
  let a = Spd.random ~seed:9 3 4 in
  let c0 = Spd.random_spd ~seed:10 4 in
  let c = Mat.copy c0 in
  Blas3.syrk ~trans:Types.Trans ~alpha:(-1.) ~beta:1. Types.Lower a c;
  let expect = Mat.sub_mat c0 (ref_mm (Mat.transpose a) a) in
  for i = 0 to 3 do
    for j = 0 to i do
      check_float "syrk^T acc" (Mat.get expect i j) (Mat.get c i j)
    done
  done

let test_trsm_left_lower () =
  let l = Mat.tril (Spd.random_spd ~seed:11 4) in
  let b0 = Spd.random ~seed:12 4 3 in
  let b = Mat.copy b0 in
  Blas3.trsm Types.Left Types.Lower Types.No_trans Types.Non_unit_diag l b;
  check_mat "L X = B" b0 (ref_mm l b)

let test_trsm_right_lower_trans () =
  (* The exact TRSM of MAGMA's Cholesky: B <- B * L^-T. *)
  let l = Mat.tril (Spd.random_spd ~seed:13 4) in
  let b0 = Spd.random ~seed:14 3 4 in
  let b = Mat.copy b0 in
  Blas3.trsm Types.Right Types.Lower Types.Trans Types.Non_unit_diag l b;
  check_mat "X L^T = B" b0 (ref_mm b (Mat.transpose l))

let test_trsm_alpha () =
  let l = Mat.identity 3 in
  let b = Mat.scalar 3 4. in
  Blas3.trsm ~alpha:0.5 Types.Left Types.Lower Types.No_trans
    Types.Non_unit_diag l b;
  check_mat "alpha" (Mat.scalar 3 2.) b

let test_trmm_inverts_trsm () =
  let l = Mat.tril (Spd.random_spd ~seed:15 5) in
  let b0 = Spd.random ~seed:16 5 2 in
  let b = Mat.copy b0 in
  Blas3.trsm Types.Left Types.Lower Types.No_trans Types.Non_unit_diag l b;
  Blas3.trmm Types.Left Types.Lower Types.No_trans Types.Non_unit_diag l b;
  check_mat "trmm . trsm = id" b0 b

(* Every side × uplo × trans × diag case of trsm and trmm, and every
   uplo × trans case of syrk, against the naive reference product on a
   non-square right-hand side. syrk must also leave the opposite
   triangle of c untouched, bit for bit. *)
let test_blas3_all_cases () =
  let m = 5 and n = 4 and alpha = -0.75 and beta = 0.5 in
  let op trans x =
    match trans with Types.No_trans -> x | Types.Trans -> Mat.transpose x
  in
  let uplo_s = function Types.Lower -> "lower" | Types.Upper -> "upper" in
  let trans_s = function Types.No_trans -> "N" | Types.Trans -> "T" in
  let uplos = [ Types.Lower; Types.Upper ]
  and transes = [ Types.No_trans; Types.Trans ] in
  List.iteri
    (fun case (side, uplo, trans, diag) ->
      let label =
        String.concat " "
          [
            (match side with Types.Left -> "left" | Types.Right -> "right");
            uplo_s uplo;
            trans_s trans;
            (match diag with
            | Types.Unit_diag -> "unit"
            | Types.Non_unit_diag -> "non-unit");
          ]
      in
      let na = match side with Types.Left -> m | Types.Right -> n in
      (* a strong diagonal keeps the solves well conditioned *)
      let a =
        Mat.mapi
          (fun i j v -> if i = j then v +. 3. else v)
          (Spd.random ~seed:(100 + case) na na)
      in
      let tri =
        match uplo with
        | Types.Lower -> Mat.tril ~diag a
        | Types.Upper -> Mat.triu ~diag a
      in
      let times b =
        match side with
        | Types.Left -> ref_mm (op trans tri) b
        | Types.Right -> ref_mm b (op trans tri)
      in
      let b = Spd.random ~seed:(200 + case) m n in
      let x = Mat.copy b in
      Blas3.trsm ~alpha side uplo trans diag a x;
      check_mat ("trsm " ^ label) (Mat.scale alpha b) (times x);
      let y = Mat.copy b in
      Blas3.trmm ~alpha side uplo trans diag a y;
      check_mat ("trmm " ^ label) (Mat.scale alpha (times b)) y)
    (List.concat_map
       (fun side ->
         List.concat_map
           (fun uplo ->
             List.concat_map
               (fun trans ->
                 List.map
                   (fun diag -> (side, uplo, trans, diag))
                   [ Types.Unit_diag; Types.Non_unit_diag ])
               transes)
           uplos)
       [ Types.Left; Types.Right ]);
  List.iter
    (fun (uplo, trans) ->
      let label = uplo_s uplo ^ " " ^ trans_s trans in
      let a =
        match trans with
        | Types.No_trans -> Spd.random ~seed:300 n m
        | Types.Trans -> Spd.random ~seed:300 m n
      in
      let c0 = Spd.random ~seed:301 n n in
      let c = Mat.copy c0 in
      Blas3.syrk ~trans ~alpha ~beta uplo a c;
      let full =
        Mat.add (Mat.scale beta c0)
          (Mat.scale alpha (ref_mm (op trans a) (Mat.transpose (op trans a))))
      in
      for i = 0 to n - 1 do
        for j = 0 to n - 1 do
          let written =
            match uplo with Types.Lower -> i >= j | Types.Upper -> i <= j
          in
          if written then
            check_float ("syrk " ^ label) (Mat.get full i j) (Mat.get c i j)
          else
            Alcotest.(check bool)
              ("syrk " ^ label ^ " opposite triangle untouched")
              true
              (Int64.bits_of_float (Mat.get c i j)
              = Int64.bits_of_float (Mat.get c0 i j))
        done
      done)
    (List.concat_map (fun u -> List.map (fun t -> (u, t)) transes) uplos)

let test_symm () =
  let a = Spd.random_spd ~seed:17 3 in
  let half = Mat.tril a in
  let b = Spd.random ~seed:18 3 2 in
  let c = Mat.create 3 2 in
  Blas3.symm Types.Left Types.Lower half b c;
  check_mat "symm" (ref_mm a b) c

(* ------------------------------------------------------------------ *)
(* Blas3 fused checksum carry                                          *)
(*                                                                     *)
(* The fused contract is BITWISE: carrying the chains through the      *)
(* kernel must reproduce the separate-pass result exactly (same        *)
(* ascending-l reduction order), because the drivers' rounding         *)
(* thresholds and the cross-replica bitwise compare both rely on it.   *)
(* ------------------------------------------------------------------ *)

let bits_equal name x y =
  Alcotest.(check bool)
    (name ^ " dims")
    true
    (Mat.rows x = Mat.rows y && Mat.cols x = Mat.cols y);
  let same = ref true in
  for j = 0 to Mat.cols x - 1 do
    for i = 0 to Mat.rows x - 1 do
      if
        Int64.bits_of_float (Mat.get x i j)
        <> Int64.bits_of_float (Mat.get y i j)
      then same := false
    done
  done;
  Alcotest.(check bool) name true !same

let rmat seed m n =
  let st = Random.State.make [| seed; m; n |] in
  Mat.init m n (fun _ _ -> Random.State.float st 2. -. 1.)

(* The d-row Vandermonde weights (w_r(i) = (i+1)^r), m×d as
   [chk_reduce] expects. *)
let vander m d =
  Mat.init m d (fun i r ->
      let rec pow acc e = if e = 0 then acc else pow (acc * (i + 1)) (e - 1) in
      float_of_int (pow 1 r))

(* One fused-vs-separate gemm comparison: the fused call must leave
   tile, both chains and the fresh reduction bitwise identical to the
   pre-fusion pipeline (plain gemm + per-replica chain gemms +
   chk_reduce). *)
let check_fused_gemm ?pool ~transa ~transb ~m ~k ~n ~alpha ~beta seed =
  let d = 2 in
  let am, ak = if transa = Types.No_trans then (m, k) else (k, m) in
  let bk, bn = if transb = Types.No_trans then (k, n) else (n, k) in
  let a = rmat seed am ak and b = rmat (seed + 1) bk bn in
  let c0 = rmat (seed + 2) m n in
  let fa = [| rmat (seed + 3) d k; rmat (seed + 4) d k |] in
  let fc0 = [| rmat (seed + 5) d n; rmat (seed + 6) d n |] in
  let c_ref = Mat.copy c0 in
  Blas3.gemm ?pool ~transa ~transb ~alpha ~beta a b c_ref;
  let fc_ref = Array.map Mat.copy fc0 in
  Array.iteri (fun i fc -> Blas3.gemm ~transb ~alpha ~beta fa.(i) b fc) fc_ref;
  let weights = vander m d in
  let fresh_ref = Mat.create d n in
  Blas3.chk_reduce ~weights c_ref ~into:fresh_ref;
  let c = Mat.copy c0 in
  let fc = Array.map Mat.copy fc0 in
  let fresh = Mat.create d n in
  Blas3.gemm ?pool ~transa ~transb ~alpha ~beta
    ~fused:
      {
        Blas3.f_a = fa;
        f_c = fc;
        f_fresh = Some fresh;
        f_weights = Some weights;
      }
    a b c;
  let tag = Printf.sprintf "%dx%dx%d" m k n in
  bits_equal (tag ^ " tile") c_ref c;
  Array.iteri
    (fun i r -> bits_equal (Printf.sprintf "%s chain %d" tag i) r fc.(i))
    fc_ref;
  bits_equal (tag ^ " fresh") fresh_ref fresh

let test_fused_gemm_matches_separate () =
  (* naive fallback, sequential tiled, transposed-a panel, transposed-b
     packing — every dispatch path *)
  check_fused_gemm ~transa:Types.No_trans ~transb:Types.No_trans ~m:12 ~k:12
    ~n:12 ~alpha:(-1.) ~beta:1. 40;
  check_fused_gemm ~transa:Types.No_trans ~transb:Types.No_trans ~m:96 ~k:96
    ~n:160 ~alpha:(-1.) ~beta:1. 41;
  check_fused_gemm ~transa:Types.Trans ~transb:Types.No_trans ~m:96 ~k:96
    ~n:160 ~alpha:1. ~beta:1. 42;
  check_fused_gemm ~transa:Types.No_trans ~transb:Types.Trans ~m:64 ~k:48
    ~n:80 ~alpha:0.5 ~beta:1. 43;
  check_fused_gemm ~transa:Types.Trans ~transb:Types.Trans ~m:48 ~k:48 ~n:48
    ~alpha:(-1.) ~beta:1. 44;
  (* beta = 0 must also reset the chains exactly once *)
  check_fused_gemm ~transa:Types.No_trans ~transb:Types.No_trans ~m:96 ~k:64
    ~n:96 ~alpha:1. ~beta:0. 45

let test_fused_gemm_pool_invariance () =
  (* above par_cutoff: explicit 1-lane and 2-lane pools must agree
     bitwise with each other and with the separate-pass reference *)
  let p1 = Parallel.Pool.create ~domains:1 () in
  let p2 = Parallel.Pool.create ~domains:2 () in
  check_fused_gemm ~pool:p1 ~transa:Types.No_trans ~transb:Types.No_trans
    ~m:144 ~k:144 ~n:144 ~alpha:(-1.) ~beta:1. 46;
  check_fused_gemm ~pool:p2 ~transa:Types.No_trans ~transb:Types.No_trans
    ~m:144 ~k:144 ~n:144 ~alpha:(-1.) ~beta:1. 46;
  Parallel.Pool.shutdown p1;
  Parallel.Pool.shutdown p2

let check_fused_syrk ~trans ~uplo ~n ~k ~alpha ~beta seed =
  let d = 2 in
  let am, ak = if trans = Types.No_trans then (n, k) else (k, n) in
  let a = rmat seed am ak in
  let c0 = rmat (seed + 1) n n in
  let fa = [| rmat (seed + 2) d k; rmat (seed + 3) d k |] in
  let fc0 = [| rmat (seed + 4) d n; rmat (seed + 5) d n |] in
  let c_ref = Mat.copy c0 in
  Blas3.syrk ~trans ~alpha ~beta uplo a c_ref;
  (* separate chain rule: f_c = beta·f_c + alpha·f_a·op(a)ᵀ *)
  let chain_transb =
    if trans = Types.No_trans then Types.Trans else Types.No_trans
  in
  let fc_ref = Array.map Mat.copy fc0 in
  Array.iteri
    (fun i fc -> Blas3.gemm ~transb:chain_transb ~alpha ~beta fa.(i) a fc)
    fc_ref;
  let c = Mat.copy c0 in
  let fc = Array.map Mat.copy fc0 in
  Blas3.syrk ~trans ~alpha ~beta
    ~fused:{ Blas3.f_a = fa; f_c = fc; f_fresh = None; f_weights = None }
    uplo a c;
  let tag = Printf.sprintf "syrk %d k=%d" n k in
  bits_equal (tag ^ " tile") c_ref c;
  Array.iteri
    (fun i r -> bits_equal (Printf.sprintf "%s chain %d" tag i) r fc.(i))
    fc_ref

let test_fused_syrk_matches_separate () =
  check_fused_syrk ~trans:Types.No_trans ~uplo:Types.Lower ~n:12 ~k:12
    ~alpha:(-1.) ~beta:1. 50;
  check_fused_syrk ~trans:Types.No_trans ~uplo:Types.Lower ~n:96 ~k:96
    ~alpha:(-1.) ~beta:1. 51;
  check_fused_syrk ~trans:Types.Trans ~uplo:Types.Lower ~n:96 ~k:64 ~alpha:1.
    ~beta:1. 52;
  check_fused_syrk ~trans:Types.No_trans ~uplo:Types.Upper ~n:80 ~k:80
    ~alpha:(-1.) ~beta:1. 53

let check_fused_trsm ~uplo ~trans ~diag ~bsize ~alpha seed =
  let d = 2 in
  let a =
    let spd = Spd.random_spd ~seed bsize in
    match uplo with Types.Lower -> Mat.tril spd | Types.Upper -> Mat.triu spd
  in
  let b0 = rmat (seed + 1) bsize bsize in
  let fc0 = [| rmat (seed + 2) d bsize; rmat (seed + 3) d bsize |] in
  let b_ref = Mat.copy b0 in
  Blas3.trsm ~alpha Types.Right uplo trans diag a b_ref;
  let fc_ref = Array.map Mat.copy fc0 in
  Array.iter (fun fc -> Blas3.trsm ~alpha Types.Right uplo trans diag a fc) fc_ref;
  let b = Mat.copy b0 in
  let fc = Array.map Mat.copy fc0 in
  Blas3.trsm ~alpha
    ~fused:{ Blas3.f_a = [||]; f_c = fc; f_fresh = None; f_weights = None }
    Types.Right uplo trans diag a b;
  let tag = Printf.sprintf "trsm %d" bsize in
  bits_equal (tag ^ " tile") b_ref b;
  Array.iteri
    (fun i r -> bits_equal (Printf.sprintf "%s chain %d" tag i) r fc.(i))
    fc_ref

let test_fused_trsm_matches_separate () =
  check_fused_trsm ~uplo:Types.Lower ~trans:Types.Trans
    ~diag:Types.Non_unit_diag ~bsize:24 ~alpha:1. 60;
  check_fused_trsm ~uplo:Types.Upper ~trans:Types.No_trans
    ~diag:Types.Non_unit_diag ~bsize:96 ~alpha:1. 61;
  check_fused_trsm ~uplo:Types.Lower ~trans:Types.Trans ~diag:Types.Unit_diag
    ~bsize:48 ~alpha:0.5 62

let test_fused_validation () =
  let a = rmat 70 8 8 and b = rmat 71 8 8 in
  let c = Mat.create 8 8 in
  let bad_chain = rmat 72 2 5 in
  let good = rmat 73 2 8 in
  Alcotest.check_raises "chain shape"
    (Mat.Dimension_mismatch
       "gemm: fused chain 0: chk_a=2x8 chk_c=2x5 for op(a)=8x8 c=8x8")
    (fun () ->
      Blas3.gemm
        ~fused:
          {
            Blas3.f_a = [| good |];
            f_c = [| bad_chain |];
            f_fresh = None;
            f_weights = None;
          }
        a b c);
  Alcotest.(check bool)
    "syrk rejects fresh" true
    (try
       Blas3.syrk
         ~fused:
           {
             Blas3.f_a = [| good |];
             f_c = [| Mat.copy good |];
             f_fresh = Some (Mat.create 2 8);
             f_weights = Some (vander 8 2);
           }
         Types.Lower a c;
       false
     with Invalid_argument _ -> true);
  let l = Mat.tril (Spd.random_spd ~seed:74 8) in
  Alcotest.(check bool)
    "trsm rejects left side" true
    (try
       Blas3.trsm
         ~fused:
           {
             Blas3.f_a = [||];
             f_c = [| Mat.copy good |];
             f_fresh = None;
             f_weights = None;
           }
         Types.Left Types.Lower Types.No_trans Types.Non_unit_diag l
         (Mat.copy c);
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Lapack                                                              *)
(* ------------------------------------------------------------------ *)

let test_potf2_reconstruct () =
  let a = Spd.random_spd ~seed:19 8 in
  let l = Mat.copy a in
  Lapack.potf2 Types.Lower l;
  let rec_a = ref_mm l (Mat.transpose l) in
  Alcotest.(check bool) "LL^T = A" true (Mat.rel_diff rec_a a < 1e-10)

let test_potf2_upper () =
  let a = Spd.random_spd ~seed:20 6 in
  let u = Mat.copy a in
  Lapack.potf2 Types.Upper u;
  let rec_a = ref_mm (Mat.transpose u) u in
  Alcotest.(check bool) "U^T U = A" true (Mat.rel_diff rec_a a < 1e-10)

let test_potf2_not_spd () =
  let a = Mat.of_arrays [| [| 1.; 2. |]; [| 2.; 1. |] |] in
  Alcotest.check_raises "indefinite" (Lapack.Not_positive_definite 1)
    (fun () -> Lapack.potf2 Types.Lower a)

let test_potf2_zeroes_upper () =
  let a = Spd.random_spd ~seed:21 5 in
  Lapack.potf2 Types.Lower a;
  check_float "upper zeroed" 0. (Mat.get a 0 4)

let test_potrf_matches_potf2 () =
  let a = Spd.random_spd ~seed:22 20 in
  let l1 = Mat.copy a and l2 = Mat.copy a in
  Lapack.potf2 Types.Lower l1;
  Lapack.potrf ~block:4 Types.Lower l2;
  Alcotest.(check bool) "blocked = unblocked" true
    (Mat.approx_equal ~tol:1e-8 l1 l2)

let test_potrf_odd_block () =
  (* Block size not dividing n must still work. *)
  let a = Spd.random_spd ~seed:23 13 in
  let l = Mat.copy a in
  Lapack.potrf ~block:5 Types.Lower l;
  Alcotest.(check bool) "LL^T = A" true
    (Mat.rel_diff (ref_mm l (Mat.transpose l)) a < 1e-9)

let test_potrf_reports_global_index () =
  let a = Spd.random_spd ~seed:24 8 in
  (* Poison the diagonal inside the second block. *)
  Mat.set a 6 6 (-1e6);
  let got =
    try
      Lapack.potrf ~block:4 Types.Lower a;
      -1
    with Lapack.Not_positive_definite k -> k
  in
  Alcotest.(check int) "failing column index" 6 got

let test_potrs () =
  let a = Spd.random_spd ~seed:25 7 in
  let x_true = Spd.random ~seed:26 7 2 in
  let b = ref_mm a x_true in
  let l = Lapack.cholesky a in
  let x = Mat.copy b in
  Lapack.potrs Types.Lower l x;
  Alcotest.(check bool) "solve" true (Mat.approx_equal ~tol:1e-7 x_true x)

let test_solve_spd () =
  let a = Spd.random_spd ~seed:27 6 in
  let x_true = Spd.random ~seed:28 6 1 in
  let b = ref_mm a x_true in
  let x = Lapack.solve_spd a b in
  Alcotest.(check bool) "solve_spd" true (Mat.approx_equal ~tol:1e-7 x_true x)

let test_log_det () =
  let d = Spd.diag [| 2.; 3.; 4. |] in
  check_float "logdet diag" (log 24.) (Lapack.log_det_spd d)

let test_cholesky_laplacian () =
  let a = Spd.tridiag_laplacian 10 in
  let l = Lapack.cholesky a in
  Alcotest.(check bool) "laplacian" true
    (Mat.rel_diff (ref_mm l (Mat.transpose l)) a < 1e-12)

(* ------------------------------------------------------------------ *)
(* Spd generators                                                      *)
(* ------------------------------------------------------------------ *)

let test_spd_is_spd () =
  let a = Spd.random_spd ~seed:29 12 in
  Alcotest.(check bool) "symmetric" true
    (Mat.approx_equal a (Mat.transpose a));
  (* Factorable without exception = positive definite. *)
  ignore (Lapack.cholesky a)

let test_spd_deterministic () =
  Alcotest.(check bool) "same seed same matrix" true
    (Mat.equal (Spd.random_spd ~seed:30 8) (Spd.random_spd ~seed:30 8));
  Alcotest.(check bool) "different seeds differ" false
    (Mat.equal (Spd.random_spd ~seed:30 8) (Spd.random_spd ~seed:31 8))

let test_orthogonal () =
  let q = Spd.random_orthogonal ~seed:32 10 in
  let qtq = ref_mm (Mat.transpose q) q in
  Alcotest.(check bool) "Q^T Q = I" true
    (Mat.approx_equal ~tol:1e-8 (Mat.identity 10) qtq)

let test_spd_cond () =
  let a = Spd.random_spd_cond ~seed:33 ~cond:100. 8 in
  ignore (Lapack.cholesky a);
  Alcotest.(check bool) "symmetric" true
    (Mat.approx_equal ~tol:1e-10 a (Mat.transpose a))

let test_kalman_cov_spd () =
  ignore (Lapack.cholesky (Spd.kalman_covariance ~seed:34 16))

(* ------------------------------------------------------------------ *)
(* Tile                                                                *)
(* ------------------------------------------------------------------ *)

let test_tile_roundtrip () =
  let a = Spd.random ~seed:35 12 12 in
  let t = Tile.of_mat ~block:4 a in
  Alcotest.(check int) "grid" 3 (Tile.grid t);
  check_mat "roundtrip" a (Tile.to_mat t)

let test_tile_aliasing () =
  let t = Tile.create ~block:2 ~n:4 in
  let b = Tile.tile t 1 1 in
  Mat.set b 0 0 42.;
  check_float "alias visible" 42. (Mat.get (Tile.to_mat t) 2 2)

let test_tile_invalid () =
  Alcotest.(check bool) "non-dividing block" true
    (try
       ignore (Tile.create ~block:5 ~n:12);
       false
     with Invalid_argument _ -> true)

let test_tile_set_get () =
  let t = Tile.create ~block:2 ~n:6 in
  Tile.set_tile t 2 0 (Mat.scalar 2 7.);
  check_float "set_tile" 7. (Mat.get (Tile.to_mat t) 4 0);
  check_float "off-diag of tile" 0. (Mat.get (Tile.to_mat t) 4 1)

let test_tile_copy_independent () =
  let t = Tile.create ~block:2 ~n:4 in
  let c = Tile.copy t in
  Mat.set (Tile.tile t 0 0) 0 0 5.;
  check_float "copy unaffected" 0. (Mat.get (Tile.tile c 0 0) 0 0)

(* ------------------------------------------------------------------ *)
(* Matrix Market I/O                                                   *)
(* ------------------------------------------------------------------ *)

let test_mm_roundtrip_general () =
  let a = Spd.random ~seed:70 5 3 in
  let b = Mm_io.read_string (Mm_io.to_string a) in
  check_mat "roundtrip" a b

let test_mm_roundtrip_symmetric () =
  let a = Spd.random_spd ~seed:71 6 in
  let b = Mm_io.read_string (Mm_io.to_string ~symmetric:true a) in
  Alcotest.(check bool) "roundtrip" true (Mat.approx_equal ~tol:0. a b)

let test_mm_coordinate () =
  let text =
    "%%MatrixMarket matrix coordinate real symmetric\n\
     % a comment\n\
     3 3 4\n\
     1 1 2.0\n\
     2 2 3.0\n\
     3 3 4.0\n\
     3 1 0.5\n"
  in
  let m = Mm_io.read_string text in
  check_float "diag" 3. (Mat.get m 1 1);
  check_float "mirrored" 0.5 (Mat.get m 0 2);
  check_float "zero fill" 0. (Mat.get m 1 0)

let test_mm_array_column_major () =
  let text =
    "%%MatrixMarket matrix array real general\n2 2\n1\n2\n3\n4\n"
  in
  let m = Mm_io.read_string text in
  (* column-major: first column is 1,2 *)
  check_float "(0,0)" 1. (Mat.get m 0 0);
  check_float "(1,0)" 2. (Mat.get m 1 0);
  check_float "(0,1)" 3. (Mat.get m 0 1)

let test_mm_rejects_garbage () =
  List.iter
    (fun text ->
      Alcotest.(check bool) text true
        (try
           ignore (Mm_io.read_string text);
           false
         with Failure _ -> true))
    [
      "not a header\n1 1\n1\n";
      "%%MatrixMarket matrix array complex general\n1 1\n1\n";
      "%%MatrixMarket matrix array real general\n2 2\n1\n2\n3\n";
      "%%MatrixMarket matrix coordinate real general\n2 2 1\n5 5 1.0\n";
    ]

let test_mm_file_io () =
  let a = Spd.random_spd ~seed:72 8 in
  let path = Filename.temp_file "mmtest" ".mtx" in
  Mm_io.write ~symmetric:true a path;
  let b = Mm_io.read path in
  Sys.remove path;
  Alcotest.(check bool) "file roundtrip" true (Mat.approx_equal ~tol:0. a b)

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

let small_dim = QCheck.Gen.int_range 1 12

let gen_mat m n =
  QCheck.Gen.(
    array_size (return (m * n)) (float_range (-10.) 10.) >|= fun d ->
    Mat.of_col_major ~rows:m ~cols:n d)

let arb_square =
  QCheck.make
    QCheck.Gen.(small_dim >>= fun n -> gen_mat n n >|= fun a -> (n, a))
    ~print:(fun (_, a) -> Mat.to_string a)

let arb_spd =
  QCheck.make
    QCheck.Gen.(
      pair (int_range 1 14) (int_range 0 10000) >|= fun (n, seed) ->
      Spd.random_spd ~seed n)
    ~print:Mat.to_string

let prop_transpose_involution =
  QCheck.Test.make ~name:"transpose involution" ~count:100 arb_square
    (fun (_, a) -> Mat.equal a (Mat.transpose (Mat.transpose a)))

let prop_gemm_identity =
  QCheck.Test.make ~name:"A*I = A" ~count:100 arb_square (fun (n, a) ->
      Mat.approx_equal ~tol:1e-9 a (Blas3.gemm_alloc a (Mat.identity n)))

let prop_gemm_assoc_with_vector =
  QCheck.Test.make ~name:"(AB)x = A(Bx)" ~count:60
    (QCheck.make
       QCheck.Gen.(
         small_dim >>= fun n ->
         triple (gen_mat n n) (gen_mat n n)
           (array_size (return n) (float_range (-5.) 5.))))
    (fun (a, b, x) ->
      let ab_x = Blas2.gemv_alloc (Blas3.gemm_alloc a b) x in
      let a_bx = Blas2.gemv_alloc a (Blas2.gemv_alloc b x) in
      Vec.approx_equal ~tol:1e-6 ab_x a_bx)

let prop_potrf_reconstructs =
  QCheck.Test.make ~name:"potrf: LL^T ~ A" ~count:60 arb_spd (fun a ->
      let l = Mat.copy a in
      Lapack.potrf ~block:4 Types.Lower l;
      Mat.rel_diff (Blas3.gemm_alloc ~transb:Types.Trans l l) a < 1e-8)

let prop_trsm_inverts =
  QCheck.Test.make ~name:"trsm then multiply back" ~count:60 arb_spd (fun a ->
      let l = Lapack.cholesky a in
      let n = Mat.rows a in
      let b0 = Spd.random ~seed:(n * 31) n 3 in
      let b = Mat.copy b0 in
      Blas3.trsm Types.Left Types.Lower Types.No_trans Types.Non_unit_diag l b;
      Mat.rel_diff (Blas3.gemm_alloc l b) b0 < 1e-8)

let prop_checksum_linearity =
  (* v^T (A + B) = v^T A + v^T B — the algebra ABFT rests on. *)
  QCheck.Test.make ~name:"gemv linearity" ~count:100
    (QCheck.make
       QCheck.Gen.(small_dim >>= fun n -> pair (gen_mat n n) (gen_mat n n)))
    (fun (a, b) ->
      let v = Vec.ones (Mat.rows a) in
      let lhs = Blas2.gemv_alloc ~trans:Types.Trans (Mat.add a b) v in
      let rhs =
        Vec.add
          (Blas2.gemv_alloc ~trans:Types.Trans a v)
          (Blas2.gemv_alloc ~trans:Types.Trans b v)
      in
      Vec.approx_equal ~tol:1e-7 lhs rhs)

let prop_tile_roundtrip =
  QCheck.Test.make ~name:"tile roundtrip" ~count:60
    (QCheck.make
       QCheck.Gen.(
         pair (int_range 1 4) (int_range 1 4) >>= fun (b, g) ->
         gen_mat (b * g) (b * g) >|= fun a -> (b, a)))
    (fun (b, a) ->
      let t = Tile.of_mat ~block:b a in
      Mat.equal a (Tile.to_mat t) && Mat.equal (Mat.tril a) (Tile.to_lower t))

let prop_norm_triangle =
  QCheck.Test.make ~name:"Frobenius triangle inequality" ~count:100
    (QCheck.make
       QCheck.Gen.(small_dim >>= fun n -> pair (gen_mat n n) (gen_mat n n)))
    (fun (a, b) ->
      Mat.norm_fro (Mat.add a b)
      <= Mat.norm_fro a +. Mat.norm_fro b +. 1e-9)

(* ---- tiled/parallel kernels vs the naive reference ----------------

   Shapes deliberately straddle the blocking parameters (jb = 16,
   kc = 64, mc = 128) and the naive-fallback cutoff, including sizes
   not divisible by any tile edge; alpha/beta hit the special-cased 0
   and 1. A second family checks bitwise pool-size invariance on
   operands big enough to engage the parallel path. *)

let gen_trans = QCheck.Gen.oneofl [ Types.No_trans; Types.Trans ]
let gen_uplo = QCheck.Gen.oneofl [ Types.Lower; Types.Upper ]

let gen_coef = QCheck.Gen.oneofl [ 0.; 1.; -0.5 ]
(* 0 and 1 are special-cased in every kernel *)

let blocky_dim = QCheck.Gen.oneofl [ 1; 7; 16; 17; 48; 63; 64; 65; 97; 130 ]

let prop_gemm_tiled_matches_naive =
  QCheck.Test.make ~name:"tiled gemm = naive gemm" ~count:40
    (QCheck.make
       QCheck.Gen.(
         triple blocky_dim blocky_dim blocky_dim >>= fun (m, n, k) ->
         pair (pair gen_trans gen_trans) (pair gen_coef gen_coef)
         >>= fun ((ta, tb), (alpha, beta)) ->
         let am, an = match ta with Types.No_trans -> (m, k) | _ -> (k, m) in
         let bm, bn = match tb with Types.No_trans -> (k, n) | _ -> (n, k) in
         triple (gen_mat am an) (gen_mat bm bn) (gen_mat m n)
         >|= fun (a, b, c0) -> (ta, tb, alpha, beta, a, b, c0)))
    (fun (ta, tb, alpha, beta, a, b, c0) ->
      let c_naive = Mat.copy c0 and c_tiled = Mat.copy c0 in
      Blas3.gemm_naive ~transa:ta ~transb:tb ~alpha ~beta a b c_naive;
      Blas3.gemm ~transa:ta ~transb:tb ~alpha ~beta a b c_tiled;
      Mat.approx_equal ~tol:1e-8 c_naive c_tiled)

let prop_syrk_tiled_matches_naive =
  QCheck.Test.make ~name:"tiled syrk = naive syrk" ~count:40
    (QCheck.make
       QCheck.Gen.(
         pair blocky_dim blocky_dim >>= fun (n, k) ->
         pair (pair gen_uplo gen_trans) (pair gen_coef gen_coef)
         >>= fun ((uplo, trans), (alpha, beta)) ->
         let am, an = match trans with Types.No_trans -> (n, k) | _ -> (k, n) in
         pair (gen_mat am an) (gen_mat n n)
         >|= fun (a, c0) -> (uplo, trans, alpha, beta, a, c0)))
    (fun (uplo, trans, alpha, beta, a, c0) ->
      let c_naive = Mat.copy c0 and c_tiled = Mat.copy c0 in
      Blas3.syrk_naive ~trans ~alpha ~beta uplo a c_naive;
      Blas3.syrk ~trans ~alpha ~beta uplo a c_tiled;
      (* full-matrix compare also proves the opposite strict triangle
         was left untouched *)
      Mat.approx_equal ~tol:1e-8 c_naive c_tiled)

(* Well-conditioned triangular operand: unit-scale diagonal, small
   off-diagonal, so solves stay at working precision for any sweep
   order. *)
let gen_tri n =
  QCheck.Gen.(
    gen_mat n n >|= fun a ->
    Mat.init n n (fun i j ->
        if i = j then 1.5 +. (0.1 *. Mat.get a i j)
        else Mat.get a i j /. float_of_int n))

let prop_trsm_tiled_matches_naive =
  QCheck.Test.make ~name:"tiled trsm = naive trsm" ~count:40
    (QCheck.make
       QCheck.Gen.(
         oneofl [ 1; 5; 16; 33; 64; 80 ] >>= fun n ->
         oneofl [ 1; 17; 64; 96; 130 ] >>= fun other ->
         pair (pair (oneofl [ Types.Left; Types.Right ]) gen_uplo)
           (pair gen_trans (oneofl [ Types.Unit_diag; Types.Non_unit_diag ]))
         >>= fun ((side, uplo), (trans, diag)) ->
         let bm, bn =
           match side with Types.Left -> (n, other) | Types.Right -> (other, n)
         in
         pair (gen_tri n) (gen_mat bm bn)
         >|= fun (a, b0) -> (side, uplo, trans, diag, a, b0)))
    (fun (side, uplo, trans, diag, a, b0) ->
      let b_naive = Mat.copy b0 and b_tiled = Mat.copy b0 in
      Blas3.trsm_naive side uplo trans diag a b_naive;
      Blas3.trsm side uplo trans diag a b_tiled;
      Mat.approx_equal ~tol:1e-6 b_naive b_tiled)

let pool3 = lazy (Parallel.Pool.create ~domains:3 ())
let pool1 = lazy (Parallel.Pool.create ~domains:1 ())

let prop_pool_size_bitwise_invariance =
  QCheck.Test.make ~name:"kernels bitwise-identical across pool sizes"
    ~count:6
    (QCheck.make
       QCheck.Gen.(
         (* big enough that the parallel path engages for all three
            kernels (work >= 2e6 even with the triangular half) *)
         pair (int_range 160 200) (int_range 0 1000) >>= fun (n, seed) ->
         return (n, seed)))
    (fun (n, seed) ->
      ignore seed;
      let a = Mat.init n n (fun i j -> sin (float_of_int ((i * n) + j)))
      and b = Mat.init n n (fun i j -> cos (float_of_int ((j * n) + i))) in
      let c1 = Mat.create n n and c3 = Mat.create n n in
      Blas3.gemm ~pool:(Lazy.force pool1) ~transb:Types.Trans a b c1;
      Blas3.gemm ~pool:(Lazy.force pool3) ~transb:Types.Trans a b c3;
      let s1 = Mat.create n n and s3 = Mat.create n n in
      Blas3.syrk ~pool:(Lazy.force pool1) Types.Lower a s1;
      Blas3.syrk ~pool:(Lazy.force pool3) Types.Lower a s3;
      let tri =
        Mat.init n n (fun i j ->
            if i = j then 2. else sin (float_of_int (i + (3 * j))) /. 8.)
      in
      let x1 = Mat.copy b and x3 = Mat.copy b in
      Blas3.trsm ~pool:(Lazy.force pool1) Types.Right Types.Lower Types.Trans
        Types.Non_unit_diag tri x1;
      Blas3.trsm ~pool:(Lazy.force pool3) Types.Right Types.Lower Types.Trans
        Types.Non_unit_diag tri x3;
      Mat.equal c1 c3 && Mat.equal s1 s3 && Mat.equal x1 x3)

let props =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_transpose_involution;
      prop_gemm_identity;
      prop_gemm_assoc_with_vector;
      prop_potrf_reconstructs;
      prop_trsm_inverts;
      prop_checksum_linearity;
      prop_tile_roundtrip;
      prop_norm_triangle;
      prop_gemm_tiled_matches_naive;
      prop_syrk_tiled_matches_naive;
      prop_trsm_tiled_matches_naive;
      prop_pool_size_bitwise_invariance;
    ]

let () =
  Alcotest.run "matrix"
    [
      ( "vec",
        [
          Alcotest.test_case "constructors" `Quick test_vec_constructors;
          Alcotest.test_case "axpy/dot" `Quick test_vec_axpy_dot;
          Alcotest.test_case "nrm2" `Quick test_vec_nrm2;
          Alcotest.test_case "iamax" `Quick test_vec_iamax;
          Alcotest.test_case "length mismatch" `Quick test_vec_mismatch;
        ] );
      ( "mat",
        [
          Alcotest.test_case "storage order" `Quick test_mat_storage_order;
          Alcotest.test_case "of/to arrays" `Quick test_mat_roundtrip;
          Alcotest.test_case "sub/blit" `Quick test_mat_sub_blit;
          Alcotest.test_case "sub bounds" `Quick test_mat_sub_out_of_bounds;
          Alcotest.test_case "transpose" `Quick test_mat_transpose;
          Alcotest.test_case "norms" `Quick test_mat_norms;
          Alcotest.test_case "tril/triu" `Quick test_mat_tri;
          Alcotest.test_case "symmetrize" `Quick test_mat_symmetrize;
          Alcotest.test_case "row/col" `Quick test_mat_row_col;
        ] );
      ( "blas2",
        [
          Alcotest.test_case "gemv N" `Quick test_gemv_notrans;
          Alcotest.test_case "gemv T" `Quick test_gemv_trans;
          Alcotest.test_case "gemv alpha/beta" `Quick test_gemv_alpha_beta;
          Alcotest.test_case "ger" `Quick test_ger;
          Alcotest.test_case "syr" `Quick test_syr;
          Alcotest.test_case "trsv cases" `Quick test_trsv_all_cases;
          Alcotest.test_case "trsv unit diag" `Quick test_trsv_unit_diag;
          Alcotest.test_case "trsv zero pivot" `Quick test_trsv_zero_pivot;
          Alcotest.test_case "trmv" `Quick test_trmv;
        ] );
      ( "blas3",
        [
          Alcotest.test_case "gemm" `Quick test_gemm_basic;
          Alcotest.test_case "gemm transposes" `Quick
            test_gemm_trans_combinations;
          Alcotest.test_case "gemm alpha/beta" `Quick test_gemm_alpha_beta;
          Alcotest.test_case "gemm mismatch" `Quick test_gemm_mismatch;
          Alcotest.test_case "syrk lower" `Quick test_syrk_lower;
          Alcotest.test_case "syrk trans acc" `Quick test_syrk_trans_accumulate;
          Alcotest.test_case "trsm left lower" `Quick test_trsm_left_lower;
          Alcotest.test_case "trsm right lower trans (MAGMA)" `Quick
            test_trsm_right_lower_trans;
          Alcotest.test_case "trsm alpha" `Quick test_trsm_alpha;
          Alcotest.test_case "trmm inverts trsm" `Quick test_trmm_inverts_trsm;
          Alcotest.test_case "trsm/trmm/syrk every case" `Quick
            test_blas3_all_cases;
          Alcotest.test_case "symm" `Quick test_symm;
        ] );
      ( "blas3-fused",
        [
          Alcotest.test_case "gemm = separate (bitwise)" `Quick
            test_fused_gemm_matches_separate;
          Alcotest.test_case "gemm pool invariance" `Quick
            test_fused_gemm_pool_invariance;
          Alcotest.test_case "syrk = separate (bitwise)" `Quick
            test_fused_syrk_matches_separate;
          Alcotest.test_case "trsm = separate (bitwise)" `Quick
            test_fused_trsm_matches_separate;
          Alcotest.test_case "validation" `Quick test_fused_validation;
        ] );
      ( "lapack",
        [
          Alcotest.test_case "potf2 reconstruct" `Quick test_potf2_reconstruct;
          Alcotest.test_case "potf2 upper" `Quick test_potf2_upper;
          Alcotest.test_case "potf2 indefinite" `Quick test_potf2_not_spd;
          Alcotest.test_case "potf2 zeroes opposite" `Quick
            test_potf2_zeroes_upper;
          Alcotest.test_case "potrf = potf2" `Quick test_potrf_matches_potf2;
          Alcotest.test_case "potrf odd block" `Quick test_potrf_odd_block;
          Alcotest.test_case "potrf failure index" `Quick
            test_potrf_reports_global_index;
          Alcotest.test_case "potrs" `Quick test_potrs;
          Alcotest.test_case "solve_spd" `Quick test_solve_spd;
          Alcotest.test_case "log_det" `Quick test_log_det;
          Alcotest.test_case "laplacian" `Quick test_cholesky_laplacian;
        ] );
      ( "spd",
        [
          Alcotest.test_case "random_spd is SPD" `Quick test_spd_is_spd;
          Alcotest.test_case "deterministic" `Quick test_spd_deterministic;
          Alcotest.test_case "orthogonal" `Quick test_orthogonal;
          Alcotest.test_case "conditioned" `Quick test_spd_cond;
          Alcotest.test_case "kalman covariance" `Quick test_kalman_cov_spd;
        ] );
      ( "tile",
        [
          Alcotest.test_case "roundtrip" `Quick test_tile_roundtrip;
          Alcotest.test_case "aliasing" `Quick test_tile_aliasing;
          Alcotest.test_case "invalid block" `Quick test_tile_invalid;
          Alcotest.test_case "set/get" `Quick test_tile_set_get;
          Alcotest.test_case "copy independent" `Quick
            test_tile_copy_independent;
        ] );
      ( "mm_io",
        [
          Alcotest.test_case "roundtrip general" `Quick test_mm_roundtrip_general;
          Alcotest.test_case "roundtrip symmetric" `Quick
            test_mm_roundtrip_symmetric;
          Alcotest.test_case "coordinate" `Quick test_mm_coordinate;
          Alcotest.test_case "array column-major" `Quick
            test_mm_array_column_major;
          Alcotest.test_case "rejects garbage" `Quick test_mm_rejects_garbage;
          Alcotest.test_case "file io" `Quick test_mm_file_io;
        ] );
      ("properties", props);
    ]
