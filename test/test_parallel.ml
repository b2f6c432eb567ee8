(* Tests for the domain pool (lib/parallel) and for the end-to-end
   determinism contract: the FT Cholesky drivers must produce
   bitwise-identical factors for every pool size. *)

open Matrix
module Pool = Parallel.Pool
module C = Cholesky

(* ------------------------------------------------------------------ *)
(* Pool mechanics                                                      *)
(* ------------------------------------------------------------------ *)

let test_create_size () =
  let p = Pool.create ~domains:3 () in
  Alcotest.(check int) "size" 3 (Pool.size p);
  Pool.shutdown p;
  let p1 = Pool.create ~domains:1 () in
  Alcotest.(check int) "size 1" 1 (Pool.size p1);
  Pool.shutdown p1;
  Alcotest.check_raises "domains 0 rejected"
    (Invalid_argument "Pool.create: domains 0 < 1") (fun () ->
      ignore (Pool.create ~domains:0 ()))

let test_parallel_for_covers () =
  let p = Pool.create ~domains:4 () in
  let n = 1000 in
  let hits = Array.make n 0 in
  (* each index owned by exactly one task: no atomics needed *)
  Pool.parallel_for p ~lo:0 ~hi:n (fun i -> hits.(i) <- hits.(i) + 1);
  Alcotest.(check bool) "each index exactly once" true
    (Array.for_all (fun c -> c = 1) hits);
  (* empty and singleton ranges *)
  Pool.parallel_for p ~lo:5 ~hi:5 (fun _ -> Alcotest.fail "empty range ran");
  let got = ref (-1) in
  Pool.parallel_for p ~lo:7 ~hi:8 (fun i -> got := i);
  Alcotest.(check int) "singleton" 7 !got;
  Pool.shutdown p

let test_parallel_for_reuse () =
  (* one pool, many batches — the whole point of pooling domains *)
  let p = Pool.create ~domains:3 () in
  let total = ref 0 in
  let m = Mutex.create () in
  for _ = 1 to 50 do
    Pool.parallel_for p ~lo:0 ~hi:20 (fun i ->
        Mutex.lock m;
        total := !total + i;
        Mutex.unlock m)
  done;
  Alcotest.(check int) "50 batches of 0+..+19" (50 * 190) !total;
  Pool.shutdown p

let test_parallel_chunks_partition () =
  let p = Pool.create ~domains:4 () in
  let n = 103 in
  let hits = Array.make n 0 in
  Pool.parallel_chunks p ~lo:0 ~hi:n (fun ~lo ~hi ->
      for i = lo to hi - 1 do
        hits.(i) <- hits.(i) + 1
      done);
  Alcotest.(check bool) "chunks partition the range" true
    (Array.for_all (fun c -> c = 1) hits);
  (* fewer items than lanes: chunks must not overlap or go empty *)
  let small = Array.make 2 0 in
  Pool.parallel_chunks p ~lo:0 ~hi:2 (fun ~lo ~hi ->
      for i = lo to hi - 1 do
        small.(i) <- small.(i) + 1
      done);
  Alcotest.(check bool) "2 items over 4 lanes" true
    (Array.for_all (fun c -> c = 1) small);
  Pool.shutdown p

exception Boom of int

let test_exception_propagates () =
  let p = Pool.create ~domains:3 () in
  let raised =
    try
      Pool.parallel_for p ~lo:0 ~hi:100 (fun i ->
          if i = 41 then raise (Boom i));
      false
    with Boom 41 -> true
  in
  Alcotest.(check bool) "exception surfaced" true raised;
  (* the batch drained fully and the pool still works *)
  let count = ref 0 in
  let m = Mutex.create () in
  Pool.parallel_for p ~lo:0 ~hi:32 (fun _ ->
      Mutex.lock m;
      incr count;
      Mutex.unlock m);
  Alcotest.(check int) "pool usable after exception" 32 !count;
  Pool.shutdown p

let test_shutdown () =
  let p = Pool.create ~domains:3 () in
  Pool.shutdown p;
  Pool.shutdown p;
  (* idempotent *)
  Alcotest.check_raises "submit after shutdown"
    (Invalid_argument "Pool: used after shutdown") (fun () ->
      Pool.parallel_for p ~lo:0 ~hi:10 (fun _ -> ()))

let test_nested_runs_inline () =
  let p = Pool.create ~domains:3 () in
  let n = 8 in
  let sums = Array.make n 0 in
  Pool.parallel_for ~chunk:1 p ~lo:0 ~hi:n (fun i ->
      (* nested batch from inside a task: must run inline, not deadlock *)
      Pool.parallel_for p ~lo:0 ~hi:10 (fun j -> sums.(i) <- sums.(i) + j));
  Alcotest.(check bool) "nested sums" true (Array.for_all (( = ) 45) sums);
  Pool.shutdown p

let test_chunk_validation () =
  let p = Pool.create ~domains:2 () in
  Alcotest.check_raises "chunk 0 rejected"
    (Invalid_argument "Pool.parallel_for: chunk 0 < 1") (fun () ->
      Pool.parallel_for ~chunk:0 p ~lo:0 ~hi:10 (fun _ -> ()));
  Pool.shutdown p

let test_default_lanes_env () =
  let old = Sys.getenv_opt Pool.env_var in
  let restore () =
    Unix.putenv Pool.env_var (Option.value old ~default:"")
  in
  Fun.protect ~finally:restore (fun () ->
      Unix.putenv Pool.env_var "3";
      Alcotest.(check int) "ABFT_DOMAINS=3" 3 (Pool.default_lanes ());
      Unix.putenv Pool.env_var "1";
      Alcotest.(check int) "ABFT_DOMAINS=1" 1 (Pool.default_lanes ());
      Unix.putenv Pool.env_var "0";
      Alcotest.(check bool) "0 falls back" true (Pool.default_lanes () >= 1);
      Unix.putenv Pool.env_var "banana";
      Alcotest.(check bool) "garbage falls back" true
        (Pool.default_lanes () >= 1))

(* ------------------------------------------------------------------ *)
(* End-to-end determinism: the acceptance contract                     *)
(* ------------------------------------------------------------------ *)

let bitwise_equal x y =
  Mat.rows x = Mat.rows y
  && Mat.cols x = Mat.cols y
  &&
  let ok = ref true in
  for j = 0 to Mat.cols x - 1 do
    for i = 0 to Mat.rows x - 1 do
      if
        Int64.bits_of_float (Mat.get x i j)
        <> Int64.bits_of_float (Mat.get y i j)
      then ok := false
    done
  done;
  !ok

let test_ft_factor_pool_invariant () =
  (* modest size: the tile kernels stay below their parallel cutoff,
     but the driver-level fan-outs (trailing updates, checksum updates,
     verification batches) all engage — and must be bitwise invariant. *)
  let n = 96 in
  let a = Spd.random_spd ~seed:42 n in
  let cfg =
    C.Config.make ~machine:Hetsim.Machine.testbench ~block:16
      ~scheme:(Abft.Scheme.enhanced ()) ()
  in
  let p1 = Pool.create ~domains:1 () in
  let p4 = Pool.create ~domains:4 () in
  let r1 = C.Ft.factor ~pool:p1 cfg a in
  let r4 = C.Ft.factor ~pool:p4 cfg a in
  Alcotest.(check bool) "1-domain run succeeds" true
    (r1.C.Ft.outcome = C.Ft.Success);
  Alcotest.(check bool) "4-domain run succeeds" true
    (r4.C.Ft.outcome = C.Ft.Success);
  Alcotest.(check bool) "factors bitwise identical" true
    (bitwise_equal r1.C.Ft.factor r4.C.Ft.factor);
  (* and with faults: corrections must also be pool-size invariant *)
  let plan =
    [
      Fault.computing_error ~delta:5e3 ~iteration:1 ~op:Fault.Gemm
        ~block:(3, 1) ~element:(2, 4) ();
    ]
  in
  let f1 = C.Ft.factor ~pool:p1 ~plan cfg a in
  let f4 = C.Ft.factor ~pool:p4 ~plan cfg a in
  Alcotest.(check bool) "faulty factors bitwise identical" true
    (bitwise_equal f1.C.Ft.factor f4.C.Ft.factor);
  Alcotest.(check int) "same corrections" f1.C.Ft.stats.C.Ft.corrections
    f4.C.Ft.stats.C.Ft.corrections;
  Pool.shutdown p1;
  Pool.shutdown p4

let test_compare_batch_matches_sequential () =
  let n = 64 in
  let a = Spd.random_spd ~seed:7 n in
  let tiles = Tile.of_mat ~block:16 a in
  let store = Abft.Checksum.encode_lower tiles in
  let g = Tile.grid tiles in
  let jobs = ref [] in
  for i = g - 1 downto 0 do
    for c = i downto 0 do
      jobs := (Abft.Checksum.get store i c, Mat.copy (Tile.tile tiles i c)) :: !jobs
    done
  done;
  let jobs = Array.of_list !jobs in
  (* flip one element in two different tiles *)
  let _, t0 = jobs.(0) in
  Mat.set t0 3 5 (Mat.get t0 3 5 +. 100.);
  let _, t2 = jobs.(2) in
  Mat.set t2 1 1 (Mat.get t2 1 1 -. 50.);
  let seq_jobs = Array.map (fun (c, t) -> (c, Mat.copy t)) jobs in
  let p = Pool.create ~domains:4 () in
  let batch = Abft.Verify.compare_batch ~pool:p jobs in
  let seq = Array.map (fun (c, t) -> Abft.Verify.compare c t) seq_jobs in
  Alcotest.(check int) "same length" (Array.length seq) (Array.length batch);
  Array.iteri
    (fun k o ->
      let same =
        match (o, batch.(k)) with
        | Abft.Verify.Clean, Abft.Verify.Clean -> true
        | Abft.Verify.Corrected a, Abft.Verify.Corrected b ->
            List.length a = List.length b
        | Abft.Verify.Uncorrectable _, Abft.Verify.Uncorrectable _ -> true
        | _ -> false
      in
      Alcotest.(check bool) (Printf.sprintf "outcome %d matches" k) true same;
      Alcotest.(check bool)
        (Printf.sprintf "tile %d patched identically" k)
        true
        (bitwise_equal (snd seq_jobs.(k)) (snd jobs.(k))))
    seq;
  Pool.shutdown p

(* ------------------------------------------------------------------ *)
(* Dynamic tile-race detection (ABFT_RACECHECK)                        *)
(* ------------------------------------------------------------------ *)

(* A two-party rendezvous keeps both work items in flight while their
   claims are compared — no sleeps, no timing assumptions. A party
   that Races calls [abort] so the waiter wakes instead of deadlocking. *)
type rendezvous = {
  rm : Mutex.t;
  rc : Condition.t;
  mutable arrived : int;
  mutable aborted : bool;
}

let rendezvous () =
  { rm = Mutex.create (); rc = Condition.create (); arrived = 0; aborted = false }

let meet r ~parties =
  Mutex.lock r.rm;
  r.arrived <- r.arrived + 1;
  Condition.broadcast r.rc;
  while r.arrived < parties && not r.aborted do
    Condition.wait r.rc r.rm
  done;
  Mutex.unlock r.rm

let abort r =
  Mutex.lock r.rm;
  r.aborted <- true;
  Condition.broadcast r.rc;
  Mutex.unlock r.rm

let test_race_overlap_detected () =
  (* two in-flight items claim overlapping rectangles on one tag: the
     second declaration must raise Pool.Race, and run_tasks must
     re-raise it after the batch drains *)
  let p = Pool.create ~domains:4 ~racecheck:true () in
  Alcotest.(check bool) "racecheck on" true (Pool.racecheck_enabled p);
  let r = rendezvous () in
  let raced =
    try
      Pool.run_tasks p ~ntasks:2 (fun _i ->
          try
            Pool.declare_write p ~tag:"tile" ~rows:(0, 31) ~cols:(0, 15);
            meet r ~parties:2
          with e ->
            abort r;
            raise e);
      false
    with Pool.Race _ -> true
  in
  Alcotest.(check bool) "overlap raised Race" true raced;
  Pool.shutdown p

let test_race_disjoint_ok () =
  (* row-block-disjoint claims — the FT driver's idiom — never race *)
  let p = Pool.create ~domains:4 ~racecheck:true () in
  let n = 64 in
  let hits = Array.make n 0 in
  Pool.parallel_for ~chunk:1 p ~lo:0 ~hi:n (fun i ->
      Pool.declare_write p ~tag:"tile" ~rows:(i * 16, (i * 16) + 15)
        ~cols:(0, 15);
      hits.(i) <- hits.(i) + 1);
  Alcotest.(check bool) "all ran" true (Array.for_all (( = ) 1) hits);
  Pool.shutdown p

let test_race_different_tags_ok () =
  (* identical rectangles on different tags (tile vs chk) are distinct
     arrays and must not clash, even while both items are in flight *)
  let p = Pool.create ~domains:4 ~racecheck:true () in
  let r = rendezvous () in
  Pool.run_tasks p ~ntasks:2 (fun i ->
      try
        Pool.declare_write p
          ~tag:(if i = 0 then "tile" else "chk")
          ~rows:(0, 31) ~cols:(0, 31);
        meet r ~parties:2
      with e ->
        abort r;
        raise e);
  Alcotest.(check bool) "no race across tags" true (not r.aborted);
  Pool.shutdown p

let test_race_claims_released () =
  (* claims die with their work item: back-to-back batches writing the
     same rectangle are sequential, not a race *)
  let p = Pool.create ~domains:4 ~racecheck:true () in
  for _round = 1 to 3 do
    Pool.run_tasks p ~ntasks:2 (fun i ->
        Pool.declare_write p ~tag:"tile"
          ~rows:(i * 8, (i * 8) + 7)
          ~cols:(0, 7))
  done;
  Pool.shutdown p

let test_racecheck_off_noop () =
  (* without racecheck every declaration is a no-op: overlapping claims
     pass, and a declaration outside any task is harmless either way.
     racecheck:false is explicit so the suite also passes when the CI
     leg exports ABFT_RACECHECK=1. *)
  let p = Pool.create ~domains:2 ~racecheck:false () in
  Alcotest.(check bool) "explicitly off" false (Pool.racecheck_enabled p);
  Pool.run_tasks p ~ntasks:4 (fun _i ->
      Pool.declare_write p ~tag:"tile" ~rows:(0, 7) ~cols:(0, 7));
  Pool.shutdown p;
  let pr = Pool.create ~domains:1 ~racecheck:true () in
  (* sequential section of a racecheck pool: nothing to race against *)
  Pool.declare_write pr ~tag:"tile" ~rows:(0, 7) ~cols:(0, 7);
  Pool.declare_write pr ~tag:"tile" ~rows:(0, 7) ~cols:(0, 7);
  Pool.shutdown pr

let test_racecheck_env () =
  let old = Sys.getenv_opt Pool.racecheck_env_var in
  let restore () =
    Unix.putenv Pool.racecheck_env_var (Option.value old ~default:"")
  in
  Fun.protect ~finally:restore (fun () ->
      Unix.putenv Pool.racecheck_env_var "1";
      let p = Pool.create ~domains:1 () in
      Alcotest.(check bool) "ABFT_RACECHECK=1" true (Pool.racecheck_enabled p);
      Pool.shutdown p;
      Unix.putenv Pool.racecheck_env_var "no";
      let p' = Pool.create ~domains:1 () in
      Alcotest.(check bool) "unrecognized value off" false
        (Pool.racecheck_enabled p');
      Pool.shutdown p';
      (* an explicit argument beats the environment *)
      Unix.putenv Pool.racecheck_env_var "1";
      let p'' = Pool.create ~domains:1 ~racecheck:false () in
      Alcotest.(check bool) "explicit wins" false (Pool.racecheck_enabled p'');
      Pool.shutdown p'')

let test_ft_factor_racecheck_clean () =
  (* the instrumented FT driver's fan-outs claim disjoint blocks: a
     full factorization under racecheck must succeed unchanged *)
  let n = 96 in
  let a = Spd.random_spd ~seed:7 n in
  let cfg =
    C.Config.make ~machine:Hetsim.Machine.testbench ~block:16
      ~scheme:(Abft.Scheme.enhanced ()) ()
  in
  let p = Pool.create ~domains:4 ~racecheck:true () in
  let r = C.Ft.factor ~pool:p cfg a in
  Alcotest.(check bool) "racecheck run succeeds" true
    (r.C.Ft.outcome = C.Ft.Success);
  (* and it changes nothing numerically *)
  let p0 = Pool.create ~domains:4 () in
  let r0 = C.Ft.factor ~pool:p0 cfg a in
  Alcotest.(check bool) "bitwise identical to unchecked run" true
    (bitwise_equal r.C.Ft.factor r0.C.Ft.factor);
  Pool.shutdown p;
  Pool.shutdown p0

let () =
  Alcotest.run "parallel"
    [
      ( "pool",
        [
          Alcotest.test_case "create/size" `Quick test_create_size;
          Alcotest.test_case "parallel_for coverage" `Quick
            test_parallel_for_covers;
          Alcotest.test_case "reuse across batches" `Quick
            test_parallel_for_reuse;
          Alcotest.test_case "parallel_chunks partition" `Quick
            test_parallel_chunks_partition;
          Alcotest.test_case "exception propagation" `Quick
            test_exception_propagates;
          Alcotest.test_case "shutdown" `Quick test_shutdown;
          Alcotest.test_case "nested batches inline" `Quick
            test_nested_runs_inline;
          Alcotest.test_case "chunk validation" `Quick test_chunk_validation;
          Alcotest.test_case "ABFT_DOMAINS parsing" `Quick
            test_default_lanes_env;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "ft factor pool-size invariant" `Quick
            test_ft_factor_pool_invariant;
          Alcotest.test_case "compare_batch = sequential compare" `Quick
            test_compare_batch_matches_sequential;
        ] );
      ( "racecheck",
        [
          Alcotest.test_case "overlap detected" `Quick
            test_race_overlap_detected;
          Alcotest.test_case "disjoint claims pass" `Quick test_race_disjoint_ok;
          Alcotest.test_case "tags are distinct arrays" `Quick
            test_race_different_tags_ok;
          Alcotest.test_case "claims released per item" `Quick
            test_race_claims_released;
          Alcotest.test_case "off is a no-op" `Quick test_racecheck_off_noop;
          Alcotest.test_case "ABFT_RACECHECK parsing" `Quick test_racecheck_env;
          Alcotest.test_case "ft factor clean under racecheck" `Quick
            test_ft_factor_racecheck_clean;
        ] );
    ]
