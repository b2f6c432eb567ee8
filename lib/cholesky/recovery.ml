open Matrix

let src = Logs.Src.create "ftchol.recovery" ~doc:"FT driver recovery events"

module Log = (val Logs.src_log src : Logs.LOG)

type reason =
  | Fail_stop of { iteration : int; column : int }
  | Uncorrectable_block of { block : int * int; detail : string }
  | Final_mismatch of { block : int * int; detail : string }

exception Error of reason

let is_fail_stop = function
  | Fail_stop _ -> true
  | Uncorrectable_block _ | Final_mismatch _ -> false

let describe = function
  | Fail_stop { iteration; column } ->
      Printf.sprintf
        "fail-stop: the factorization broke down at iteration %d, column %d"
        iteration column
  | Uncorrectable_block { block = i, c; detail } ->
      Printf.sprintf "block (%d,%d): %s" i c detail
  | Final_mismatch { block = i, c; detail } ->
      Printf.sprintf "final verify (%d,%d): %s" i c detail

let pp fmt r = Format.pp_print_string fmt (describe r)

type outcome = Success | Silent_corruption | Gave_up of reason

type stats = {
  verifications : int;
  corrections : int;
  reconstructions : int;
  checksum_repairs : int;
  uncorrectable_events : int;
  fail_stops : int;
  rollbacks : int;
  snapshots : int;
  restarts : int;
}

let zero =
  {
    verifications = 0;
    corrections = 0;
    reconstructions = 0;
    checksum_repairs = 0;
    uncorrectable_events = 0;
    fail_stops = 0;
    rollbacks = 0;
    snapshots = 0;
    restarts = 0;
  }

(* Located-and-patched elements and plain-sum reconstructions are
   different rungs of the inline ladder, so they are counted apart. *)
let count_fix c (f : Abft.Verify.correction) =
  match f.Abft.Verify.source with
  | Abft.Verify.Located -> c := { !c with corrections = !c.corrections + 1 }
  | Abft.Verify.Reconstructed ->
      c := { !c with reconstructions = !c.reconstructions + 1 }

let account c ?(final = false) ~block:((i, j) as block) outcome =
  c := { !c with verifications = !c.verifications + 1 };
  match outcome with
  | Abft.Verify.Clean -> ()
  | Abft.Verify.Corrected fixes ->
      Log.info (fun m ->
          m "corrected %d element(s) in block (%d,%d)" (List.length fixes) i j);
      List.iter (count_fix c) fixes
  | Abft.Verify.Checksum_repaired { cells; corrections } ->
      Log.info (fun m ->
          m "repaired %d checksum cell(s) of block (%d,%d) (+%d tile fix(es))"
            cells i j (List.length corrections));
      c := { !c with checksum_repairs = !c.checksum_repairs + 1 };
      List.iter (count_fix c) corrections
  | Abft.Verify.Uncorrectable detail ->
      Log.warn (fun m -> m "uncorrectable at block (%d,%d): %s" i j detail);
      raise
        (Error
           (if final then Final_mismatch { block; detail }
            else Uncorrectable_block { block; detail }))

let detect c ~block ok =
  c := { !c with verifications = !c.verifications + 1 };
  if not ok then
    raise (Error (Final_mismatch { block; detail = "mismatch at end of run" }))

let ladder ?(rollback = fun _ -> None) c ~max_restarts ~attempt ~run =
  let rec start k =
    c :=
      {
        !c with
        restarts = k;
        verifications = 0;
        corrections = 0;
        reconstructions = 0;
        checksum_repairs = 0;
      };
    let st = attempt () in
    let rec go from =
      match run st ~from with
      | () -> (st, None)
      | exception Error reason -> (
          c :=
            {
              !c with
              uncorrectable_events = !c.uncorrectable_events + 1;
              fail_stops = !c.fail_stops + Bool.to_int (is_fail_stop reason);
            };
          match rollback st with
          | Some iteration ->
              c := { !c with rollbacks = !c.rollbacks + 1 };
              Log.warn (fun m ->
                  m "attempt %d failed (%s); rolled back to iteration %d" k
                    (describe reason) iteration);
              go iteration
          | None ->
              Log.warn (fun m ->
                  m "attempt %d failed (%s); recovering by recomputation" k
                    (describe reason));
              (* Discard this attempt's state; retry on pristine data
                 (transient injections do not re-fire). *)
              if k < max_restarts then start (k + 1) else (st, Some reason))
    in
    go 0
  in
  start 0

let residual_threshold = 1e-6

(* The screen passes a run only when its probe estimate lies this far
   under [residual_threshold]; anything closer, or NaN, is confirmed by
   the dense check, so an estimate that under-reads cannot turn a run
   the dense check would flag into a [Success]. *)
let screen_margin = 1000.

let screened ~estimate ~exact =
  if estimate <= residual_threshold /. screen_margin then estimate
  else exact ()

(* Three seeded probe columns, uniform in [-1, 1). The salt keeps them
   apart from any other seeded stream over the same order. *)
let probe_salt = 0x5c4ec
let probes = 3

let probe_block n =
  let v = Mat.create n probes in
  for j = 0 to probes - 1 do
    let st = Random.State.make [| probe_salt; n; j |] in
    for i = 0 to n - 1 do
      Mat.set v i j (Random.State.float st 2. -. 1.)
    done
  done;
  v

let residual ~input ~apply ~product =
  let v = probe_block (Mat.cols input) in
  let av = Blas3.gemm_alloc input v in
  let estimate =
    Mat.norm_fro (Mat.sub_mat (apply v) av) /. Mat.norm_fro av
  in
  screened ~estimate ~exact:(fun () ->
      Mat.norm_fro (Mat.sub_mat (product ()) input)
      /. Float.max 1. (Mat.norm_fro input))

let orthogonality ~n ~apply ~gram =
  let v = probe_block n in
  let estimate = Mat.norm_fro (Mat.sub_mat (apply v) v) /. Mat.norm_fro v in
  screened ~estimate ~exact:(fun () ->
      Mat.norm_fro (Mat.sub_mat (gram ()) (Mat.identity n)))

let classify failure ~residual =
  match failure with
  | Some reason -> Gave_up reason
  | None -> if residual <= residual_threshold then Success else Silent_corruption

let pp_outcome fmt = function
  | Success -> Format.pp_print_string fmt "success"
  | Silent_corruption -> Format.pp_print_string fmt "silent corruption"
  | Gave_up reason -> Format.fprintf fmt "gave up: %a" pp reason

let pp_stats fmt (s : stats) =
  Format.fprintf fmt
    "verifications: %d, corrections: %d, reconstructions: %d, checksum \
     repairs: %d@,rollbacks: %d (snapshots: %d), restarts: %d, \
     uncorrectable: %d, fail-stops: %d"
    s.verifications s.corrections s.reconstructions s.checksum_repairs
    s.rollbacks s.snapshots s.restarts s.uncorrectable_events s.fail_stops
