(* Tests for the Cholesky drivers: configuration, the verification-set
   module, the numeric FT driver (including the paper's Table VII
   fault-capability matrix), the timing-mode schedule generator, the
   numeric/timing trace-equality contract, and the CULA baseline. *)

open Matrix
module C = Cholesky

let tb = Hetsim.Machine.testbench

let cfg ?(scheme = Abft.Scheme.enhanced ()) ?(block = 8) ?opt2 () =
  match opt2 with
  | None -> C.Config.make ~machine:tb ~block ~scheme ()
  | Some opt2 -> C.Config.make ~machine:tb ~block ~scheme ~opt2 ()

let spd n = Spd.random_spd ~seed:(n + 1000) n

let expect_outcome name want (r : C.Ft.report) =
  Alcotest.(check string) name want
    (Format.asprintf "%a" C.Ft.pp_outcome r.C.Ft.outcome
    |> String.split_on_char ':' |> List.hd)

(* ------------------------------------------------------------------ *)
(* Config                                                              *)
(* ------------------------------------------------------------------ *)

let test_config_block_resolution () =
  let c = C.Config.make ~machine:Hetsim.Machine.tardis () in
  Alcotest.(check int) "machine default" 256 (C.Config.block_size c);
  let c = C.Config.make ~machine:Hetsim.Machine.tardis ~block:128 () in
  Alcotest.(check int) "explicit" 128 (C.Config.block_size c)

let test_config_validate () =
  Alcotest.(check bool) "default ok" true
    (Result.is_ok (C.Config.validate C.Config.default));
  Alcotest.(check bool) "bad tol" true
    (Result.is_error (C.Config.validate { C.Config.default with C.Config.tol = 0. }))

let test_config_placement_resolution () =
  (* The paper's §VII-D: CPU updating on tardis, GPU on bulldozer64. *)
  let resolve machine n =
    C.Config.resolve_placement (C.Config.make ~machine ()) ~n
  in
  Alcotest.(check bool) "tardis" true
    (resolve Hetsim.Machine.tardis 20480 = C.Config.Cpu_offload);
  Alcotest.(check bool) "bulldozer64" true
    (resolve Hetsim.Machine.bulldozer64 30720 = C.Config.Gpu_stream);
  (* Explicit placements pass through. *)
  Alcotest.(check bool) "explicit" true
    (C.Config.resolve_placement (cfg ~opt2:C.Config.Gpu_inline ()) ~n:64
    = C.Config.Gpu_inline)

let test_config_streams () =
  let c = C.Config.make ~machine:Hetsim.Machine.tardis () in
  Alcotest.(check int) "gpu limit" 16 (C.Config.effective_recalc_streams c);
  let c = C.Config.make ~machine:Hetsim.Machine.tardis ~opt1:false () in
  Alcotest.(check int) "opt1 off" 1 (C.Config.effective_recalc_streams c);
  let c = C.Config.make ~recalc_streams:4 () in
  Alcotest.(check int) "explicit" 4 (C.Config.effective_recalc_streams c)

(* ------------------------------------------------------------------ *)
(* Sets                                                                *)
(* ------------------------------------------------------------------ *)

let test_sets_existence () =
  Alcotest.(check bool) "no syrk at 0" false (C.Sets.syrk_exists ~j:0);
  Alcotest.(check bool) "syrk at 1" true (C.Sets.syrk_exists ~j:1);
  Alcotest.(check bool) "no gemm at 0" false (C.Sets.gemm_exists ~grid:4 ~j:0);
  Alcotest.(check bool) "no gemm at last" false (C.Sets.gemm_exists ~grid:4 ~j:3);
  Alcotest.(check bool) "gemm mid" true (C.Sets.gemm_exists ~grid:4 ~j:2);
  Alcotest.(check bool) "no trsm at last" false (C.Sets.trsm_exists ~grid:4 ~j:3)

let test_sets_contents () =
  Alcotest.(check (list (pair int int))) "pre_syrk"
    [ (2, 2); (2, 0); (2, 1) ] (C.Sets.pre_syrk ~j:2);
  Alcotest.(check (list (pair int int))) "pre_gemm grid=4 j=1"
    [ (2, 1); (3, 1); (2, 0); (3, 0) ]
    (C.Sets.pre_gemm ~grid:4 ~j:1);
  Alcotest.(check (list (pair int int))) "pre_trsm"
    [ (1, 1); (2, 1); (3, 1) ] (C.Sets.pre_trsm ~grid:4 ~j:1);
  Alcotest.(check int) "all_lower count" 10 (List.length (C.Sets.all_lower ~grid:4))

let test_sets_table1_scaling () =
  (* Table I: per iteration, Enhanced verifies O(1) blocks for POTF2,
     O(g) for TRSM and SYRK, O(g^2) for GEMM. *)
  let g = 20 and j = 10 in
  Alcotest.(check int) "potf2 O(1)" 1 (List.length (C.Sets.pre_potf2 ~j));
  Alcotest.(check int) "syrk O(g)" (j + 1) (List.length (C.Sets.pre_syrk ~j));
  Alcotest.(check int) "trsm O(g)" (g - j) (List.length (C.Sets.pre_trsm ~grid:g ~j));
  Alcotest.(check int) "gemm O(g^2)"
    ((g - 1 - j) * (j + 1))
    (List.length (C.Sets.pre_gemm ~grid:g ~j))

let test_sets_k_gate () =
  Alcotest.(check bool) "k=1 always" true (C.Sets.k_gate ~k:1 ~j:7);
  Alcotest.(check bool) "k=3 at 6" true (C.Sets.k_gate ~k:3 ~j:6);
  Alcotest.(check bool) "k=3 at 7" false (C.Sets.k_gate ~k:3 ~j:7)

(* ------------------------------------------------------------------ *)
(* Numeric driver: clean runs                                          *)
(* ------------------------------------------------------------------ *)

let test_ft_matches_lapack () =
  let a = spd 48 in
  let reference = Mat.copy a in
  Lapack.potrf ~block:8 Types.Lower reference;
  List.iter
    (fun scheme ->
      let r = C.Ft.factor (cfg ~scheme ()) a in
      Alcotest.(check bool)
        (Abft.Scheme.name scheme ^ " matches potrf")
        true
        (Mat.approx_equal ~tol:1e-8 reference r.C.Ft.factor);
      expect_outcome (Abft.Scheme.name scheme) "success" r)
    Abft.Scheme.all

let test_ft_clean_run_stats () =
  let a = spd 48 in
  let none = C.Ft.factor (cfg ~scheme:Abft.Scheme.No_ft ()) a in
  Alcotest.(check int) "no_ft verifies nothing" 0 none.C.Ft.stats.C.Ft.verifications;
  let online = C.Ft.factor (cfg ~scheme:Abft.Scheme.Online ()) a in
  let enhanced = C.Ft.factor (cfg ()) a in
  Alcotest.(check bool) "enhanced verifies more" true
    (enhanced.C.Ft.stats.C.Ft.verifications > online.C.Ft.stats.C.Ft.verifications);
  Alcotest.(check int) "no corrections needed" 0 enhanced.C.Ft.stats.C.Ft.corrections;
  Alcotest.(check int) "no restarts" 0 enhanced.C.Ft.stats.C.Ft.restarts

let test_ft_k_reduces_verifications () =
  let a = spd 64 in
  let v k =
    (C.Ft.factor (cfg ~scheme:(Abft.Scheme.enhanced ~k ()) ()) a)
      .C.Ft.stats.C.Ft.verifications
  in
  let v1 = v 1 and v3 = v 3 and v5 = v 5 in
  Alcotest.(check bool) "k=3 < k=1" true (v3 < v1);
  Alcotest.(check bool) "k=5 <= k=3" true (v5 <= v3)

let test_ft_input_validation () =
  Alcotest.(check bool) "non-multiple order" true
    (try
       ignore (C.Ft.factor (cfg ~block:7 ()) (spd 48));
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "not square" true
    (try
       ignore (C.Ft.factor (cfg ()) (Spd.random ~seed:1 8 16));
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Numeric driver: the Table VII capability matrix                     *)
(* ------------------------------------------------------------------ *)

(* A computing error in a GEMM output block, mid-factorization. *)
let computing_plan =
  [
    Fault.computing_error ~delta:5e3 ~iteration:2 ~op:Fault.Gemm ~block:(4, 2)
      ~element:(3, 5) ();
  ]

(* A storage error striking a factored panel block after its last
   verification and before its next read — the window the paper built
   Enhanced Online-ABFT for. Block (3,0) is TRSM output of iteration 0,
   flipped at the start of iteration 2, and read again by GEMM/SYRK. *)
let storage_plan =
  [ Fault.storage_error ~bit:52 ~iteration:2 ~block:(3, 0) ~element:(2, 2) () ]

(* A storage error after the block's LAST read: block (2,0) is read for
   the last time at iteration 2 (SYRK of row 2); the flip at iteration 4
   propagates nowhere — and is visible to no pre-read or post-update
   verification either. *)
let late_storage_plan =
  [ Fault.storage_error ~bit:52 ~iteration:4 ~block:(2, 0) ~element:(1, 3) () ]

let run6 scheme plan =
  (* grid 6: 48x48 with 8x8 tiles *)
  C.Ft.factor ~plan (cfg ~scheme ()) (spd 48)

let test_capability_offline_computing () =
  let r = run6 Abft.Scheme.Offline computing_plan in
  (* Detected at the final verification; recovered by recomputation. *)
  expect_outcome "offline recovers by redo" "success" r;
  Alcotest.(check int) "one restart" 1 r.C.Ft.stats.C.Ft.restarts

let test_capability_online_computing () =
  let r = run6 Abft.Scheme.Online computing_plan in
  expect_outcome "online corrects" "success" r;
  Alcotest.(check int) "no restart" 0 r.C.Ft.stats.C.Ft.restarts;
  Alcotest.(check bool) "corrected inline" true (r.C.Ft.stats.C.Ft.corrections > 0)

let test_capability_enhanced_computing () =
  let r = run6 (Abft.Scheme.enhanced ()) computing_plan in
  expect_outcome "enhanced corrects" "success" r;
  Alcotest.(check int) "no restart" 0 r.C.Ft.stats.C.Ft.restarts;
  Alcotest.(check bool) "corrected at next read" true
    (r.C.Ft.stats.C.Ft.corrections > 0)

let test_capability_offline_storage () =
  let r = run6 Abft.Scheme.Offline storage_plan in
  expect_outcome "offline recovers by redo" "success" r;
  Alcotest.(check int) "one restart" 1 r.C.Ft.stats.C.Ft.restarts

let test_capability_online_storage () =
  (* The paper's motivating failure: Online-ABFT verified block (3,0)
     after its update in iteration 0, so the later flip is never checked
     at its source. Depending on how it propagates it either persists
     silently or surfaces as an uncorrectable pattern downstream — both
     cost a full recomputation (Table VII's ~2x), never an inline fix.
     For this plan the downstream GEMM verification trips. *)
  let r = run6 Abft.Scheme.Online storage_plan in
  expect_outcome "recovers only by redoing" "success" r;
  Alcotest.(check int) "one restart (2x cost)" 1 r.C.Ft.stats.C.Ft.restarts

let test_capability_online_late_storage_silent () =
  (* When the flip does not propagate at all, Online has no chance to
     even notice: the classic silent corruption. *)
  let r = run6 Abft.Scheme.Online late_storage_plan in
  expect_outcome "silent" "silent corruption" r;
  Alcotest.(check int) "no restart (undetected)" 0 r.C.Ft.stats.C.Ft.restarts

let test_capability_enhanced_storage () =
  let r = run6 (Abft.Scheme.enhanced ()) storage_plan in
  expect_outcome "enhanced corrects before the read" "success" r;
  Alcotest.(check int) "no restart" 0 r.C.Ft.stats.C.Ft.restarts;
  Alcotest.(check bool) "corrected" true (r.C.Ft.stats.C.Ft.corrections > 0)

let test_capability_no_ft_silent () =
  (* Small enough not to destroy positive definiteness (which would
     fail-stop even plain MAGMA), large enough to pollute the result. *)
  let plan =
    [ Fault.computing_error ~delta:0.01 ~iteration:2 ~op:Fault.Gemm
        ~block:(4, 2) ~element:(3, 5) () ]
  in
  let r = run6 Abft.Scheme.No_ft plan in
  expect_outcome "plain magma is silently wrong" "silent corruption" r

let test_capability_no_ft_fail_stop () =
  (* A large computing error reaches the diagonal through SYRK and
     breaks positive definiteness: plain MAGMA fail-stops, and the only
     recourse is rerunning (which succeeds — the fault was transient). *)
  let r = run6 Abft.Scheme.No_ft computing_plan in
  expect_outcome "recovered by rerun" "success" r;
  Alcotest.(check bool) "fail-stopped" true (r.C.Ft.stats.C.Ft.fail_stops > 0)

let test_online_storage_fixed_by_final_sweep () =
  (* The repo's extension beyond the paper: a cheap end-of-run sweep
     lets even Online-ABFT locate and repair a non-propagating flip
     that would otherwise ship silently. *)
  let r = C.Ft.factor ~plan:late_storage_plan ~final_sweep:true
      (cfg ~scheme:Abft.Scheme.Online ()) (spd 48)
  in
  expect_outcome "final sweep repairs it" "success" r;
  Alcotest.(check int) "no restart" 0 r.C.Ft.stats.C.Ft.restarts;
  Alcotest.(check bool) "corrected" true (r.C.Ft.stats.C.Ft.corrections > 0)

let test_enhanced_late_storage_needs_sweep_too () =
  (* Honest limitation shared with the paper: pre-read verification can
     only protect data that is read again. A flip after the last read
     slips past Enhanced as well; the sweep extension closes the gap. *)
  let r = run6 (Abft.Scheme.enhanced ()) late_storage_plan in
  expect_outcome "enhanced misses it too" "silent corruption" r;
  let r = C.Ft.factor ~plan:late_storage_plan ~final_sweep:true (cfg ()) (spd 48) in
  expect_outcome "sweep closes the gap" "success" r

(* ------------------------------------------------------------------ *)
(* Checksum-carrying kernels                                           *)
(* ------------------------------------------------------------------ *)

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

let test_factor_bitwise_no_ft () =
  (* The kernels carry the checksum chains beside the tile data and
     never feed them back into it, so a clean protected run must produce
     the unprotected run's factor to the last bit — not just to tol. The
     No_ft path runs the plain kernels, so this pins the protected
     factors to the plain pipeline. *)
  let a = spd 48 in
  let plain = C.Ft.factor (cfg ~scheme:Abft.Scheme.No_ft ()) a in
  List.iter
    (fun scheme ->
      let r = C.Ft.factor (cfg ~scheme ()) a in
      Alcotest.(check bool)
        (Abft.Scheme.name scheme ^ " factor bitwise = none")
        true
        (bitwise_equal plain.C.Ft.factor r.C.Ft.factor))
    [
      Abft.Scheme.Online;
      Abft.Scheme.enhanced ();
      Abft.Scheme.enhanced ~k:4 ();
      Abft.Scheme.Offline;
    ]

let test_fused_detection_parity () =
  (* Detection coverage is part of the fusion contract: computing and
     storage faults must be caught and corrected inline with the chains
     riding the kernels. *)
  let check_plan tag plan =
    let r = C.Ft.factor ~plan (cfg ()) (spd 48) in
    expect_outcome tag "success" r;
    Alcotest.(check int) (tag ^ " no restart") 0 r.C.Ft.stats.C.Ft.restarts;
    Alcotest.(check bool)
      (tag ^ " corrected")
      true
      (r.C.Ft.stats.C.Ft.corrections > 0)
  in
  check_plan "computing" computing_plan;
  check_plan "storage" storage_plan

let test_fail_stop_recovery () =
  (* A sign flip on a diagonal element destroys positive definiteness:
     Offline-ABFT hits the fail-stop in POTF2 and must recompute. *)
  let plan =
    [ Fault.storage_error ~bit:63 ~iteration:3 ~block:(3, 3) ~element:(4, 4) () ]
  in
  let r = run6 Abft.Scheme.Offline plan in
  expect_outcome "recovered" "success" r;
  Alcotest.(check bool) "fail-stop recorded" true (r.C.Ft.stats.C.Ft.fail_stops > 0);
  Alcotest.(check int) "one restart" 1 r.C.Ft.stats.C.Ft.restarts;
  (* Enhanced verifies the diagonal before POTF2 reads it: no fail-stop. *)
  let r = run6 (Abft.Scheme.enhanced ()) plan in
  expect_outcome "enhanced avoids the fail-stop" "success" r;
  Alcotest.(check int) "no fail-stop" 0 r.C.Ft.stats.C.Ft.fail_stops;
  Alcotest.(check int) "no restart" 0 r.C.Ft.stats.C.Ft.restarts

let test_two_errors_same_column_recovers_by_restart () =
  let plan =
    [
      Fault.storage_error ~bit:52 ~iteration:2 ~block:(3, 0) ~element:(1, 4) ();
      Fault.storage_error ~bit:52 ~iteration:2 ~block:(3, 0) ~element:(6, 4) ();
    ]
  in
  let r = run6 (Abft.Scheme.enhanced ()) plan in
  expect_outcome "uncorrectable pattern -> redo" "success" r;
  Alcotest.(check int) "one restart" 1 r.C.Ft.stats.C.Ft.restarts

let test_potf2_computing_error_entangled () =
  (* A computing error in the POTF2 output corrupts the checksum update
     itself (Algorithm 2 consumes the corrupted factor), so it is
     detected but not locatable: recovery by recomputation. *)
  let plan =
    [
      Fault.computing_error ~delta:100. ~iteration:2 ~op:Fault.Potf2
        ~block:(2, 2) ~element:(5, 1) ();
    ]
  in
  let r = run6 (Abft.Scheme.enhanced ()) plan in
  expect_outcome "recovered" "success" r;
  Alcotest.(check int) "one restart" 1 r.C.Ft.stats.C.Ft.restarts

let test_enhanced_k3_storage_still_corrected () =
  (* With K = 3 the flip may slip past one gated window but is caught
     at the next verification of the block before the result ships. *)
  let r = run6 (Abft.Scheme.enhanced ~k:3 ()) storage_plan in
  expect_outcome "eventually corrected" "success" r

let test_gave_up () =
  (* Re-firing is impossible (transient), but a plan with max_restarts
     = 0 and an uncorrectable fault must report failure honestly. *)
  let c = { (cfg ~scheme:Abft.Scheme.Offline ()) with C.Config.max_restarts = 0 } in
  let r = C.Ft.factor ~plan:computing_plan c (spd 48) in
  match r.C.Ft.outcome with
  | C.Ft.Gave_up _ -> ()
  | o -> Alcotest.failf "expected gave up, got %a" C.Ft.pp_outcome o

(* ------------------------------------------------------------------ *)
(* Right-looking variant ablation: why the paper uses inner-product    *)
(* ------------------------------------------------------------------ *)

let test_right_looking_matches_lapack () =
  let a = spd 48 in
  let reference = Mat.copy a in
  Lapack.potrf ~block:8 Types.Lower reference;
  List.iter
    (fun scheme ->
      let r = C.Right_looking.factor ~scheme ~block:8 a in
      expect_outcome (Abft.Scheme.name scheme) "success" r;
      Alcotest.(check bool)
        (Abft.Scheme.name scheme ^ " matches potrf")
        true
        (Mat.approx_equal ~tol:1e-8 reference r.C.Ft.factor))
    Abft.Scheme.all

let test_right_looking_misses_panel_storage_error () =
  (* THE ablation: the same flip that the inner-product driver corrects
     (test "enhanced + storage" above) ships silently under the
     right-looking order, because L(3,0) is never read after
     iteration 0. This is the fault-coverage reason to prefer MAGMA's
     inner-product variant. *)
  let r = C.Right_looking.factor ~plan:storage_plan ~block:8 (spd 48) in
  expect_outcome "right-looking is blind" "silent corruption" r;
  Alcotest.(check int) "nothing corrected" 0 r.C.Ft.stats.C.Ft.corrections

let test_right_looking_corrects_trailing_storage_error () =
  (* A flip on a tile still in the trailing submatrix is re-read by the
     next eager update and corrected. Tile (4,3) is trailing until
     iteration 3; flip at iteration 2. *)
  let plan =
    [ Fault.storage_error ~bit:52 ~iteration:2 ~block:(4, 3) ~element:(1, 1) () ]
  in
  let r = C.Right_looking.factor ~plan ~block:8 (spd 48) in
  expect_outcome "trailing flip corrected" "success" r;
  Alcotest.(check bool) "corrected" true (r.C.Ft.stats.C.Ft.corrections > 0)

let test_right_looking_corrects_computing_error () =
  (* Computing error in an eager update of a still-trailing tile. *)
  let plan =
    [
      Fault.computing_error ~delta:3e3 ~iteration:1 ~op:Fault.Gemm ~block:(4, 2)
        ~element:(2, 2) ();
    ]
  in
  let r = C.Right_looking.factor ~plan ~block:8 (spd 48) in
  expect_outcome "corrected at next read" "success" r;
  Alcotest.(check int) "no restart" 0 r.C.Ft.stats.C.Ft.restarts

let test_right_looking_validation () =
  Alcotest.(check bool) "non-multiple order" true
    (try
       ignore (C.Right_looking.factor ~block:7 (spd 48));
       false
     with Invalid_argument _ -> true);
  (* a block below 1 is rejected up front, not by the grid arithmetic
     it would break (n mod 0) or by the tile allocator *)
  List.iter
    (fun block ->
      Alcotest.check_raises (Printf.sprintf "block %d" block)
        (Invalid_argument
           (Printf.sprintf "Right_looking.factor: block must be >= 1, got %d"
              block))
        (fun () -> ignore (C.Right_looking.factor ~block (spd 48))))
    [ 0; -4 ]

(* ------------------------------------------------------------------ *)
(* Trace equality: numeric mode vs timing mode                         *)
(* ------------------------------------------------------------------ *)

let test_trace_equality () =
  let a = spd 48 in
  List.iter
    (fun scheme ->
      let c = cfg ~scheme () in
      let numeric = (C.Ft.factor c a).C.Ft.trace in
      let timing = (C.Schedule.run c ~n:48).C.Schedule.trace in
      match C.Trace_op.diff numeric timing with
      | None -> ()
      | Some (i, x, y) ->
          Alcotest.failf "%s: traces differ at %d: ft=%a schedule=%a"
            (Abft.Scheme.name scheme) i
            (Format.pp_print_option C.Trace_op.pp)
            x
            (Format.pp_print_option C.Trace_op.pp)
            y)
    (Abft.Scheme.all
    @ [ Abft.Scheme.Enhanced { k = 3 }; Abft.Scheme.Enhanced { k = 5 } ])

let test_trace_equality_other_placements () =
  let a = spd 40 in
  List.iter
    (fun opt2 ->
      let c = cfg ~opt2 () in
      let numeric = (C.Ft.factor c a).C.Ft.trace in
      let timing = (C.Schedule.run c ~n:40).C.Schedule.trace in
      Alcotest.(check bool) "equal" true (C.Trace_op.equal numeric timing))
    [ C.Config.Gpu_inline; C.Config.Gpu_stream; C.Config.Cpu_offload ]

(* ------------------------------------------------------------------ *)
(* Schedule (timing mode)                                              *)
(* ------------------------------------------------------------------ *)

let tardis_cfg scheme = C.Config.make ~machine:Hetsim.Machine.tardis ~scheme ()

let test_schedule_scheme_ordering () =
  let t scheme = (C.Schedule.run (tardis_cfg scheme) ~n:8192).C.Schedule.makespan in
  let none = t Abft.Scheme.No_ft in
  let offline = t Abft.Scheme.Offline in
  let online = t Abft.Scheme.Online in
  let enhanced = t (Abft.Scheme.enhanced ()) in
  Alcotest.(check bool) "offline > none" true (offline > none);
  Alcotest.(check bool) "online >= offline" true (online >= offline);
  Alcotest.(check bool) "enhanced > online" true (enhanced > online);
  (* The paper's headline: Enhanced costs only a few percent. *)
  Alcotest.(check bool) "enhanced within 15% of magma" true
    (enhanced < none *. 1.15)

let test_schedule_k_reduces_time () =
  let t k =
    (C.Schedule.run (tardis_cfg (Abft.Scheme.enhanced ~k ())) ~n:8192)
      .C.Schedule.makespan
  in
  Alcotest.(check bool) "k=3 < k=1" true (t 3 < t 1);
  Alcotest.(check bool) "k=5 < k=3" true (t 5 < t 3)

let test_schedule_opt1_helps () =
  let t opt1 =
    (C.Schedule.run
       (C.Config.make ~machine:Hetsim.Machine.bulldozer64
          ~scheme:(Abft.Scheme.enhanced ()) ~opt1 ())
       ~n:16384)
      .C.Schedule.makespan
  in
  Alcotest.(check bool) "opt1 faster" true (t true < t false)

let test_schedule_opt2_helps () =
  let t opt2 =
    (C.Schedule.run
       (C.Config.make ~machine:Hetsim.Machine.tardis
          ~scheme:(Abft.Scheme.enhanced ()) ~opt2 ())
       ~n:8192)
      .C.Schedule.makespan
  in
  Alcotest.(check bool) "offloaded updating faster than inline" true
    (t C.Config.Cpu_offload < t C.Config.Gpu_inline)

let test_schedule_faults () =
  let c = tardis_cfg (Abft.Scheme.enhanced ()) in
  let clean = C.Schedule.run c ~n:4096 in
  Alcotest.(check int) "no reruns" 0 clean.C.Schedule.reruns;
  (* Correctable: storage error under Enhanced. *)
  let r = C.Schedule.run ~plan:storage_plan c ~n:4096 in
  Alcotest.(check int) "corrected, no rerun" 0 r.C.Schedule.reruns;
  (* Uncorrected: storage under Online forces a second pass (~2x). *)
  let c_online = tardis_cfg Abft.Scheme.Online in
  let clean_online = C.Schedule.run c_online ~n:4096 in
  let r = C.Schedule.run ~plan:storage_plan c_online ~n:4096 in
  Alcotest.(check int) "rerun" 1 r.C.Schedule.reruns;
  let ratio = r.C.Schedule.makespan /. clean_online.C.Schedule.makespan in
  Alcotest.(check bool) "about 2x" true (ratio > 1.9 && ratio < 2.1)

let test_schedule_uncorrected_classification () =
  let open Abft.Scheme in
  let storage = storage_plan and computing = computing_plan in
  Alcotest.(check int) "enhanced absorbs storage" 0
    (List.length (C.Schedule.uncorrected (enhanced ()) storage));
  Alcotest.(check int) "online misses storage" 1
    (List.length (C.Schedule.uncorrected Online storage));
  Alcotest.(check int) "online absorbs computing" 0
    (List.length (C.Schedule.uncorrected Online computing));
  Alcotest.(check int) "offline misses computing" 1
    (List.length (C.Schedule.uncorrected Offline computing));
  let potf2_err =
    [ Fault.computing_error ~iteration:1 ~op:Fault.Potf2 ~block:(1, 1)
        ~element:(0, 0) () ]
  in
  Alcotest.(check int) "potf2 entanglement" 1
    (List.length (C.Schedule.uncorrected (enhanced ()) potf2_err))

let test_schedule_phases_accounted () =
  let r = C.Schedule.run (tardis_cfg (Abft.Scheme.enhanced ())) ~n:4096 in
  let e = r.C.Schedule.engine in
  Alcotest.(check bool) "compute time dominates" true
    (Hetsim.Engine.phase_time e "compute" > Hetsim.Engine.phase_time e "chk-recalc");
  Alcotest.(check bool) "recalc accounted" true
    (Hetsim.Engine.phase_time e "chk-recalc" > 0.);
  Alcotest.(check bool) "update accounted" true
    (Hetsim.Engine.phase_time e "chk-update" > 0.);
  Alcotest.(check bool) "encode accounted" true
    (Hetsim.Engine.phase_time e "chk-encode" > 0.)

let test_schedule_input_validation () =
  Alcotest.(check bool) "n not multiple" true
    (try
       ignore (C.Schedule.run (tardis_cfg Abft.Scheme.No_ft) ~n:1000);
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* LC-panel prefetch accounting (§VI 6b, CPU placement)                *)
(* ------------------------------------------------------------------ *)

(* A link slow enough that one block copy dwarfs every kernel, so the
   prefetch pipelining (and any accounting slip) is decisively visible
   in the record timeline rather than hidden inside compute time. *)
let slow_link_tb =
  {
    tb with
    Hetsim.Machine.name = "testbench-slowlink";
    link = { Hetsim.Machine.bandwidth_gbs = 1e-3; latency_s = 0. };
  }

let lc_b = 8

let lc_run g =
  let c =
    C.Config.make ~machine:slow_link_tb ~block:lc_b
      ~scheme:(Abft.Scheme.enhanced ()) ~opt2:C.Config.Cpu_offload ()
  in
  C.Schedule.run c ~n:(g * lc_b)

let lc_d2h_records g =
  List.filter
    (fun r ->
      r.Hetsim.Engine.phase = "chk-transfer"
      && r.Hetsim.Engine.resource = Some Hetsim.Engine.Link_d2h)
    (Hetsim.Engine.records (lc_run g).C.Schedule.engine)

(* Brute-force enumeration: block L(i,k), i > k, becomes host-resident
   exactly once — in iteration k's priority copy when i = k+1 (it is
   the next iteration's LC row) or in its bulk copy when i >= k+2. The
   full d2h sequence is therefore the initial checksum download
   followed, per panel iteration k = 0..g-2, by one one-block priority
   copy and one (g-2-k)-block bulk copy when that set is non-empty. *)
let lc_oracle g =
  let block_bytes = 8 * lc_b * lc_b in
  let init = g * (g + 1) / 2 * 2 * lc_b * 8 in
  let per_iter k =
    if g - 1 - k > 0 then
      block_bytes
      :: (if g - 2 - k > 0 then [ (g - 2 - k) * block_bytes ] else [])
    else []
  in
  init :: List.concat (List.init g per_iter)

let test_lc_prefetch_movement_sets () =
  List.iter
    (fun g ->
      let got =
        List.map
          (fun r ->
            Scanf.sscanf r.Hetsim.Engine.label "d2h %dB" (fun b -> b))
          (lc_d2h_records g)
      in
      Alcotest.(check (list int))
        (Printf.sprintf "g=%d ships exactly the enumerated blocks" g)
        (lc_oracle g) got)
    [ 1; 2; 3 ]

(* The iteration accounting itself: at iteration j the checksum updates
   gate on the panel history through j-2 plus the j-1 *priority* block
   only. On the g=3 grid that means an update must run after P0 has
   landed but while B0 (the L(2,0) block, first needed at iteration 2)
   is still in flight — and the iteration-2 updates must wait for the
   complete history {P0, B0, P1}. *)
let test_lc_prefetch_iteration_windows () =
  let r = lc_run 3 in
  let records = Hetsim.Engine.records r.C.Schedule.engine in
  let d2h =
    List.filter
      (fun r ->
        r.Hetsim.Engine.phase = "chk-transfer"
        && r.Hetsim.Engine.resource = Some Hetsim.Engine.Link_d2h)
      records
  in
  match d2h with
  | [ _init; p0; b0; p1 ] ->
      Alcotest.(check bool) "priority block ships before the bulk" true
        (p0.Hetsim.Engine.start <= b0.Hetsim.Engine.start);
      let updates =
        List.filter (fun r -> r.Hetsim.Engine.phase = "chk-update") records
      in
      Alcotest.(check bool) "updates exist" true (updates <> []);
      let exists p = List.exists p updates in
      Alcotest.(check bool)
        "an update runs after P0 but while B0 is still in flight" true
        (exists (fun u ->
             u.Hetsim.Engine.start >= p0.Hetsim.Engine.finish
             && u.Hetsim.Engine.start < b0.Hetsim.Engine.finish));
      Alcotest.(check bool)
        "the final iteration's update waited for the whole history" true
        (exists (fun u -> u.Hetsim.Engine.start >= p1.Hetsim.Engine.finish))
  | rs ->
      Alcotest.failf "expected 4 d2h chk-transfers on g=3, got %d"
        (List.length rs)

(* ------------------------------------------------------------------ *)
(* Adaptive trailing-update balancing                                  *)
(* ------------------------------------------------------------------ *)

let gpu_storm_tb =
  Hetsim.Machine.with_reliability
    ~gpu:
      {
        Hetsim.Device.transient_fault_rate = 0.4;
        hang_rate = 0.05;
        hang_timeout_s = 0.005;
        transfer_corruption_rate = 0.;
        dropout_after_s = infinity;
        faults_until_s = infinity;
      }
    tb

let balance_run ?(machine = tb) ?policy ?(seed = 5) ?balance n =
  let c =
    match balance with
    | None -> C.Config.make ~machine ~block:8 ~scheme:(Abft.Scheme.enhanced ()) ()
    | Some balance ->
        C.Config.make ~machine ~block:8
          ~scheme:(Abft.Scheme.enhanced ())
          ~balance ()
  in
  C.Schedule.run ?policy ~fault_seed:seed c ~n

(* On a clean machine the balancer's efficiency estimates never leave
   their 1.0 fixpoint, so the adaptive schedule must be the static one
   bitwise — same makespan, same trace, zero resplits. DESIGN §7b claims
   this for all three schedules, so the LU and QR schedules are held to
   it too (same makespan, same resilience accounting). *)
let test_balance_clean_adaptive_equals_static () =
  let stat = balance_run ~balance:Hetsim.Load_balancer.Static 128 in
  let adapt = balance_run ~balance:Hetsim.Load_balancer.Adaptive 128 in
  Alcotest.(check bool) "clean adaptive = static makespan, bitwise" true
    (Float.equal adapt.C.Schedule.makespan stat.C.Schedule.makespan);
  Alcotest.(check bool) "identical trace" true
    (adapt.C.Schedule.trace = stat.C.Schedule.trace);
  Alcotest.(check int) "zero resplits" 0
    adapt.C.Schedule.resilience.Hetsim.Resilient.resplits;
  let cfg balance =
    C.Config.make ~machine:tb ~block:8 ~scheme:(Abft.Scheme.enhanced ())
      ~balance ()
  in
  List.iter
    (fun (name, run) ->
      let stat : C.Sched_core.result = run Hetsim.Load_balancer.Static in
      let adapt = run Hetsim.Load_balancer.Adaptive in
      Alcotest.(check bool)
        (name ^ ": clean adaptive = static makespan, bitwise")
        true
        (Float.equal adapt.C.Sched_core.makespan stat.C.Sched_core.makespan);
      Alcotest.(check bool)
        (name ^ ": identical resilience accounting")
        true
        (adapt.C.Sched_core.resilience = stat.C.Sched_core.resilience);
      Alcotest.(check int) (name ^ ": zero resplits") 0
        adapt.C.Sched_core.resilience.Hetsim.Resilient.resplits)
    [
      ( "lu",
        fun balance -> Ftlu.Schedule_lu.run ~fault_seed:5 (cfg balance) ~n:128
      );
      ( "qr",
        fun balance ->
          Ftqr.Schedule_qr.run ~fault_seed:5 (cfg balance) ~m:256 ~n:128 );
    ]

(* Seeded determinism of the adaptive split (satellite): the balancer
   draws no randomness of its own, so a (machine, seed) pair pins the
   whole trajectory — makespan, resilience accounting and the traced
   Rebalance ops — bit-for-bit across repeated runs. *)
let test_balance_adaptive_deterministic () =
  let run () =
    balance_run ~machine:gpu_storm_tb ~balance:Hetsim.Load_balancer.Adaptive
      256
  in
  let r1 = run () in
  let r2 = run () in
  Alcotest.(check bool) "same seed, bit-identical makespan" true
    (Float.equal r1.C.Schedule.makespan r2.C.Schedule.makespan);
  Alcotest.(check bool) "same seed, identical resilience stats" true
    (r1.C.Schedule.resilience = r2.C.Schedule.resilience);
  Alcotest.(check bool) "same seed, identical split trajectory" true
    (r1.C.Schedule.trace = r2.C.Schedule.trace);
  let r3 =
    balance_run ~machine:gpu_storm_tb ~seed:6
      ~balance:Hetsim.Load_balancer.Adaptive 256
  in
  Alcotest.(check bool) "different seed, different timeline" true
    (not (Float.equal r1.C.Schedule.makespan r3.C.Schedule.makespan))

(* Under a sustained GPU storm the adaptive split must actually move
   (>= 1 applied resplit) and never lose to the frozen static split by
   more than the soak band. *)
let test_balance_storm_band () =
  let policy =
    {
      Hetsim.Resilient.default_policy with
      Hetsim.Resilient.reprobe_after_s = 0.05;
    }
  in
  let run balance =
    balance_run ~machine:gpu_storm_tb ~policy ~seed:3 ~balance 256
  in
  let stat = run Hetsim.Load_balancer.Static in
  let adapt = run Hetsim.Load_balancer.Adaptive in
  Alcotest.(check bool) "adaptive within 10% of static under the storm" true
    (adapt.C.Schedule.makespan <= stat.C.Schedule.makespan *. 1.1);
  Alcotest.(check bool) "at least one resplit applied" true
    (adapt.C.Schedule.resilience.Hetsim.Resilient.resplits >= 1)

(* Balancing is a timing-mode policy: carrying it in the config must
   not perturb the numeric driver, whose factors stay bitwise identical
   across domain counts (the ABFT_DOMAINS=1/2 contract). *)
let test_balance_numeric_domain_invariant () =
  let a = spd 32 in
  let c =
    {
      (cfg ()) with
      C.Config.balance = Some Hetsim.Load_balancer.Adaptive;
    }
  in
  let factor_with domains =
    let pool = Parallel.Pool.create ~domains () in
    let r = C.Ft.factor ~pool c a in
    Parallel.Pool.shutdown pool;
    r.C.Ft.factor
  in
  let f1 = factor_with 1 in
  let f2 = factor_with 2 in
  Alcotest.(check bool) "factors bitwise identical across domain counts" true
    (bitwise_equal f1 f2)

(* ------------------------------------------------------------------ *)
(* High-level solver with iterative refinement                          *)
(* ------------------------------------------------------------------ *)

let test_solve_basic () =
  let a = spd 48 in
  let x_true = Spd.random ~seed:61 48 2 in
  let b = Blas3.gemm_alloc a x_true in
  let t = C.Solve.factorize a in
  let x, stats = C.Solve.solve t b in
  Alcotest.(check bool) "accurate" true (Mat.approx_equal ~tol:1e-8 x_true x);
  Alcotest.(check bool) "residual tiny" true
    (stats.C.Solve.final_residual < 1e-13)

let test_solve_refinement_improves () =
  (* On an ill-conditioned system, refinement must not make things
     worse and normally tightens the residual. *)
  let a = Spd.random_spd_cond ~seed:62 ~cond:1e10 48 in
  let b = Spd.random ~seed:63 48 1 in
  let t = C.Solve.factorize a in
  let _, s0 = C.Solve.solve ~refine:0 t b in
  let _, s2 = C.Solve.solve ~refine:3 t b in
  Alcotest.(check bool) "no worse" true
    (s2.C.Solve.final_residual <= s0.C.Solve.final_residual +. 1e-16)

let test_solve_early_stop () =
  let a = spd 32 in
  let b = Spd.random ~seed:64 32 1 in
  let t = C.Solve.factorize a in
  let _, stats = C.Solve.solve ~refine:10 t b in
  (* a well-conditioned system converges immediately *)
  Alcotest.(check bool) "stops early" true (stats.C.Solve.iterations < 3)

let test_solve_with_faults () =
  let a = spd 48 in
  let x_true = Spd.random ~seed:65 48 1 in
  let b = Blas3.gemm_alloc a x_true in
  let t = C.Solve.factorize ~plan:storage_plan ~cfg:(cfg ()) a in
  Alcotest.(check bool) "fault absorbed" true
    ((C.Solve.report t).C.Ft.stats.C.Ft.corrections > 0);
  let x, _ = C.Solve.solve t b in
  Alcotest.(check bool) "accurate" true (Mat.approx_equal ~tol:1e-7 x_true x)

let test_solve_vec () =
  let a = spd 24 in
  let x_true = Array.init 24 (fun i -> float_of_int (i + 1)) in
  let b = Matrix.Blas2.gemv_alloc a x_true in
  let t = C.Solve.factorize a in
  let x, _ = C.Solve.solve_vec t b in
  Alcotest.(check bool) "vector solve" true
    (Matrix.Vec.approx_equal ~tol:1e-8 x_true x)

let test_solve_validation () =
  let t = C.Solve.factorize (spd 24) in
  Alcotest.(check bool) "bad rhs" true
    (try
       ignore (C.Solve.solve t (Mat.create 10 1));
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "bad refine" true
    (try
       ignore (C.Solve.solve ~refine:(-1) t (Mat.create 24 1));
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* CULA baseline                                                       *)
(* ------------------------------------------------------------------ *)

let test_cula_slower_than_magma () =
  List.iter
    (fun (machine, n) ->
      let magma =
        (C.Schedule.run (C.Config.make ~machine ~scheme:Abft.Scheme.No_ft ()) ~n)
          .C.Schedule.makespan
      in
      let enhanced =
        (C.Schedule.run
           (C.Config.make ~machine ~scheme:(Abft.Scheme.enhanced ()) ())
           ~n)
          .C.Schedule.makespan
      in
      let cula = (C.Cula_model.run machine ~n).C.Cula_model.makespan in
      (* Figures 16/17 ordering: MAGMA > Enhanced > CULA (time-wise
         inverted). *)
      Alcotest.(check bool) "magma < enhanced" true (magma < enhanced);
      Alcotest.(check bool) "enhanced < cula" true (enhanced < cula))
    [ (Hetsim.Machine.tardis, 10240); (Hetsim.Machine.bulldozer64, 10240) ]

let test_cula_validation () =
  Alcotest.(check bool) "bad derate" true
    (try
       ignore (C.Cula_model.run ~derate:0. Hetsim.Machine.tardis ~n:1024);
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

let prop_ft_random_fault_storms =
  QCheck.Test.make ~name:"enhanced k=1 survives random fault storms" ~count:25
    QCheck.(int_range 0 10000)
    (fun seed ->
      let grid = 5 and block = 6 in
      let n = grid * block in
      (* Computing errors anywhere but POTF2 (entangled, still recovers
         but costs a restart), storage errors early enough to be
         re-read before the run ends. *)
      let plan =
        Fault.random_plan ~seed ~grid ~block ~count:3 ~storage_fraction:0.5 ()
        |> List.filter (fun (inj : Fault.injection) ->
               match inj.Fault.window with
               | Fault.In_computation Fault.Potf2 -> false
               | Fault.In_computation _ -> true
               | Fault.In_storage | Fault.In_device ->
                   (* keep flips that strike blocks still to be read:
                      block (i, c) is last read at iteration i *)
                   let i, _ = inj.Fault.block in
                   inj.Fault.iteration <= i
               | Fault.In_checksum | Fault.In_update _ ->
                   true (* the self-protecting store heals these *)
               | Fault.In_solver _ -> false)
      in
      let a = Spd.random_spd ~seed:(seed + 77) n in
      let r = C.Ft.factor ~plan (cfg ~block ()) a in
      r.C.Ft.outcome = C.Ft.Success)

let prop_schedule_monotonic_in_n =
  QCheck.Test.make ~name:"makespan grows with n" ~count:20
    QCheck.(int_range 2 20)
    (fun g ->
      let c = tardis_cfg (Abft.Scheme.enhanced ()) in
      let t n = (C.Schedule.run c ~n).C.Schedule.makespan in
      t (256 * g) < t (256 * (g + 1)))

let prop_trace_equality_random =
  QCheck.Test.make ~name:"numeric and timing traces agree" ~count:20
    QCheck.(pair (int_range 2 6) (int_range 1 4))
    (fun (grid, k) ->
      let block = 4 in
      let n = grid * block in
      let c = cfg ~block ~scheme:(Abft.Scheme.enhanced ~k ()) () in
      let a = Spd.random_spd ~seed:(grid + (10 * k)) n in
      let numeric = (C.Ft.factor c a).C.Ft.trace in
      let timing = (C.Schedule.run c ~n).C.Schedule.trace in
      C.Trace_op.equal numeric timing)

let prop_single_correctable_fault_never_restarts =
  QCheck.Test.make ~name:"one gemm computing error never restarts enhanced"
    ~count:30
    QCheck.(int_range 0 1000)
    (fun seed ->
      let st = Random.State.make [| seed |] in
      let grid = 6 and block = 5 in
      let j = 1 + Random.State.int st (grid - 2) in
      let i = j + 1 + Random.State.int st (grid - 1 - j) in
      let plan =
        [
          Fault.computing_error
            ~delta:(10. +. Random.State.float st 1e5)
            ~iteration:j ~op:Fault.Gemm ~block:(i, j)
            ~element:(Random.State.int st block, Random.State.int st block)
            ();
        ]
      in
      let a = Spd.random_spd ~seed:(seed + 31) (grid * block) in
      let r = C.Ft.factor ~plan (cfg ~block ()) a in
      r.C.Ft.outcome = C.Ft.Success && r.C.Ft.stats.C.Ft.restarts = 0)

let props =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_ft_random_fault_storms;
      prop_schedule_monotonic_in_n;
      prop_trace_equality_random;
      prop_single_correctable_fault_never_restarts;
    ]

let () =
  Alcotest.run "cholesky"
    [
      ( "config",
        [
          Alcotest.test_case "block resolution" `Quick test_config_block_resolution;
          Alcotest.test_case "validate" `Quick test_config_validate;
          Alcotest.test_case "placement resolution" `Quick
            test_config_placement_resolution;
          Alcotest.test_case "streams" `Quick test_config_streams;
        ] );
      ( "sets",
        [
          Alcotest.test_case "existence" `Quick test_sets_existence;
          Alcotest.test_case "contents" `Quick test_sets_contents;
          Alcotest.test_case "Table I scaling" `Quick test_sets_table1_scaling;
          Alcotest.test_case "k gate" `Quick test_sets_k_gate;
        ] );
      ( "ft_clean",
        [
          Alcotest.test_case "matches lapack" `Quick test_ft_matches_lapack;
          Alcotest.test_case "stats" `Quick test_ft_clean_run_stats;
          Alcotest.test_case "k reduces verifications" `Quick
            test_ft_k_reduces_verifications;
          Alcotest.test_case "input validation" `Quick test_ft_input_validation;
        ] );
      ( "table7_capability",
        [
          Alcotest.test_case "offline + computing" `Quick
            test_capability_offline_computing;
          Alcotest.test_case "online + computing" `Quick
            test_capability_online_computing;
          Alcotest.test_case "enhanced + computing" `Quick
            test_capability_enhanced_computing;
          Alcotest.test_case "offline + storage" `Quick
            test_capability_offline_storage;
          Alcotest.test_case "online + storage (paper's gap)" `Quick
            test_capability_online_storage;
          Alcotest.test_case "online + late storage silent" `Quick
            test_capability_online_late_storage_silent;
          Alcotest.test_case "enhanced + storage" `Quick
            test_capability_enhanced_storage;
          Alcotest.test_case "no_ft silent" `Quick test_capability_no_ft_silent;
          Alcotest.test_case "no_ft fail-stop" `Quick
            test_capability_no_ft_fail_stop;
          Alcotest.test_case "online + sweep extension" `Quick
            test_online_storage_fixed_by_final_sweep;
          Alcotest.test_case "enhanced + late storage" `Quick
            test_enhanced_late_storage_needs_sweep_too;
          Alcotest.test_case "fail-stop recovery" `Quick test_fail_stop_recovery;
          Alcotest.test_case "two errors, one column" `Quick
            test_two_errors_same_column_recovers_by_restart;
          Alcotest.test_case "potf2 entanglement" `Quick
            test_potf2_computing_error_entangled;
          Alcotest.test_case "enhanced k=3 storage" `Quick
            test_enhanced_k3_storage_still_corrected;
          Alcotest.test_case "gave up" `Quick test_gave_up;
        ] );
      ( "fused",
        [
          Alcotest.test_case "factors bitwise = no_ft" `Quick
            test_factor_bitwise_no_ft;
          Alcotest.test_case "detection parity" `Quick
            test_fused_detection_parity;
        ] );
      ( "right_looking",
        [
          Alcotest.test_case "matches lapack" `Quick
            test_right_looking_matches_lapack;
          Alcotest.test_case "misses panel storage error (the ablation)" `Quick
            test_right_looking_misses_panel_storage_error;
          Alcotest.test_case "corrects trailing storage error" `Quick
            test_right_looking_corrects_trailing_storage_error;
          Alcotest.test_case "corrects computing error" `Quick
            test_right_looking_corrects_computing_error;
          Alcotest.test_case "validation" `Quick test_right_looking_validation;
        ] );
      ( "trace",
        [
          Alcotest.test_case "numeric = timing (all schemes)" `Quick
            test_trace_equality;
          Alcotest.test_case "numeric = timing (placements)" `Quick
            test_trace_equality_other_placements;
        ] );
      ( "schedule",
        [
          Alcotest.test_case "scheme ordering" `Quick test_schedule_scheme_ordering;
          Alcotest.test_case "k reduces time" `Quick test_schedule_k_reduces_time;
          Alcotest.test_case "opt1 helps" `Quick test_schedule_opt1_helps;
          Alcotest.test_case "opt2 helps" `Quick test_schedule_opt2_helps;
          Alcotest.test_case "fault accounting" `Quick test_schedule_faults;
          Alcotest.test_case "uncorrected classification" `Quick
            test_schedule_uncorrected_classification;
          Alcotest.test_case "phase accounting" `Quick
            test_schedule_phases_accounted;
          Alcotest.test_case "input validation" `Quick
            test_schedule_input_validation;
        ] );
      ( "lc-prefetch",
        [
          Alcotest.test_case "movement sets = brute-force enumeration" `Quick
            test_lc_prefetch_movement_sets;
          Alcotest.test_case "j-2/j-1 iteration windows" `Quick
            test_lc_prefetch_iteration_windows;
        ] );
      ( "balance",
        [
          Alcotest.test_case "clean adaptive = static" `Quick
            test_balance_clean_adaptive_equals_static;
          Alcotest.test_case "seeded determinism" `Quick
            test_balance_adaptive_deterministic;
          Alcotest.test_case "storm band and resplits" `Quick
            test_balance_storm_band;
          Alcotest.test_case "numeric factors domain-invariant" `Quick
            test_balance_numeric_domain_invariant;
        ] );
      ( "solve",
        [
          Alcotest.test_case "basic" `Quick test_solve_basic;
          Alcotest.test_case "refinement improves" `Quick
            test_solve_refinement_improves;
          Alcotest.test_case "early stop" `Quick test_solve_early_stop;
          Alcotest.test_case "with faults" `Quick test_solve_with_faults;
          Alcotest.test_case "vector" `Quick test_solve_vec;
          Alcotest.test_case "validation" `Quick test_solve_validation;
        ] );
      ( "cula",
        [
          Alcotest.test_case "ordering vs magma/enhanced" `Quick
            test_cula_slower_than_magma;
          Alcotest.test_case "validation" `Quick test_cula_validation;
        ] );
      ("properties", props);
    ]
