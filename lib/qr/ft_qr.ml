open Matrix

let src = Logs.Src.create "ftchol.qr" ~doc:"FT QR driver events"

module Log = (val Logs.src_log src : Logs.LOG)

type outcome = Success | Silent_corruption | Gave_up of string

type stats = {
  verifications : int;
  corrections : int;
  uncorrectable_events : int;
  fail_stops : int;
  restarts : int;
}

type report = {
  q : Mat.t;
  r : Mat.t;
  outcome : outcome;
  residual : float;
  orthogonality : float;
  stats : stats;
  injections_fired : Injector.fired list;
}

let residual_threshold = 1e-6

exception Recovery of string

type state = {
  m : int;
  block : int;
  nb : int;  (* number of panels *)
  tol : float;
  panels : Mat.t array;  (* m x block each; A panels becoming Q panels *)
  chks : Panelchk.t array option;
  r : Mat.t;  (* n x n upper, unprotected (see .mli) *)
  injector : Injector.t;
  mutable verifications : int;
  mutable corrections : int;
}

let lookup st (i, _c) =
  if i >= 0 && i < st.nb then Some st.panels.(i) else None

let chk st i = match st.chks with Some c -> c.(i) | None -> assert false

let verify_panel st i =
  st.verifications <- st.verifications + 1;
  (* Carried-vs-fresh [compare]; the fresh sums are recomputed here
     (never taken from the kernel) because injected faults can land in
     the panel after the kernel returns. *)
  match Panelchk.compare ~tol:st.tol (chk st i) st.panels.(i) with
  | Abft.Verify.Clean -> ()
  | Abft.Verify.Corrected fixes ->
      Log.info (fun f ->
          f "corrected %d element(s) in panel %d" (List.length fixes) i);
      st.corrections <- st.corrections + List.length fixes
  | Abft.Verify.Checksum_repaired { cells; corrections } ->
      Log.info (fun f ->
          f "repaired %d checksum cell(s) for panel %d (+%d tile fix(es))"
            cells i (List.length corrections));
      st.corrections <- st.corrections + List.length corrections
  | Abft.Verify.Uncorrectable msg ->
      raise (Recovery (Printf.sprintf "panel %d: %s" i msg))

(* In-panel MGS: factor panel j in place into Q columns, filling the
   corresponding diagonal block of R. Every step is linear in the panel
   columns, so the checksum follows with exact rules. *)
let mgs_panel st j ~with_ft =
  let p = st.panels.(j) in
  let b = st.block in
  let base = j * b in
  (* both checksum replicas follow the panel through the same exact
     update sequence *)
  let cs =
    if with_ft then
      [ Panelchk.matrix (chk st j); Panelchk.shadow (chk st j) ]
    else []
  in
  for col = 0 to b - 1 do
    let v = Mat.col p col in
    let nrm = Vec.nrm2 v in
    if (not (Float.is_finite nrm)) || nrm < 1e-12 then
      raise
        (Recovery
           (Printf.sprintf "fail-stop: rank deficiency at column %d of panel %d"
              col j));
    Mat.set st.r (base + col) (base + col) nrm;
    Vec.scal (1. /. nrm) v;
    Mat.set_col p col v;
    List.iter
      (fun cm ->
        for row = 0 to Mat.rows cm - 1 do
          Mat.set cm row col (Mat.get cm row col /. nrm)
        done)
      cs;
    for col' = col + 1 to b - 1 do
      let w = Mat.col p col' in
      let proj = Vec.dot v w in
      Mat.set st.r (base + col) (base + col') proj;
      Vec.axpy (-.proj) v w;
      Mat.set_col p col' w;
      List.iter
        (fun cm ->
          for row = 0 to Mat.rows cm - 1 do
            Mat.set cm row col'
              (Mat.get cm row col' -. (proj *. Mat.get cm row col))
          done)
        cs
    done
  done

let run_attempt st ~scheme =
  let with_ft = scheme <> Abft.Scheme.No_ft in
  let enhanced = match scheme with Abft.Scheme.Enhanced _ -> true | _ -> false in
  let online = scheme = Abft.Scheme.Online in
  let kk = Abft.Scheme.verification_interval scheme in
  let b = st.block in
  for j = 0 to st.nb - 1 do
    Injector.fire_storage st.injector ~iteration:j ~lookup:(lookup st);
    Injector.fire_device st.injector ~iteration:j ~lookup:(lookup st);
    let gate = j mod kk = 0 in
    (* ---- block projections against all previous Q panels.
       Each projection both READS and WRITES panel j, and its R entry
       is consumed immediately, so pre-read verification must run
       before every projection (K-gated), not once per iteration —
       otherwise a computing error landing between projections
       contaminates R before any verification sees it. ---- *)
    for k = 0 to j - 1 do
      if enhanced && with_ft && gate then begin
        verify_panel st k;
        verify_panel st j
      end;
      let qk = st.panels.(k) and aj = st.panels.(j) in
      (* R_kj = Qk^T Aj *)
      let rkj =
        Blas3.gemm_alloc ~transa:Types.Trans qk aj
        [@abft.unverified
          "both operands were verified by the K-gated pre-read pass above; \
           the R entry is consumed immediately and the panel update that \
           follows carries its own checksum chains, which the next gated \
           pass checks"]
      in
      Mat.blit ~src:rkj ~dst:st.r ~row:(k * b) ~col:(j * b);
      (* Aj -= Qk Rkj, chk(Aj) -= chk(Qk) Rkj — on both replicas, each
         reading its own copy of chk(Qk) so the chains stay
         independent; both chains ride the tile GEMM itself (No_ft
         passes no carry and runs the plain kernel). *)
      Blas3.gemm ~alpha:(-1.) ~beta:1.
        ?fused:
          (if with_ft then Some (Panelchk.fuse ~qk_chk:(chk st k) (chk st j))
           else None)
        qk rkj aj;
      Injector.fire_compute st.injector ~iteration:j ~op:Fault.Gemm
        ~block:(j, k) aj;
      if online && with_ft then verify_panel st j
    done;
    (* ---- in-panel MGS (its input is always verified) ---- *)
    if enhanced && with_ft then verify_panel st j;
    mgs_panel st j ~with_ft;
    Injector.fire_compute st.injector ~iteration:j ~op:Fault.Potf2 ~block:(j, j)
      st.panels.(j);
    if online && with_ft then verify_panel st j
  done

let final_verification st ~scheme =
  if scheme = Abft.Scheme.Offline && st.chks <> None then
    for i = 0 to st.nb - 1 do
      st.verifications <- st.verifications + 1;
      if not (Panelchk.check ~tol:st.tol (chk st i) st.panels.(i)) then
        raise (Recovery (Printf.sprintf "final verify: panel %d" i))
    done

let factor ?(plan = []) ?(scheme = Abft.Scheme.enhanced ()) ?(block = 16)
    ?(tol = Abft.Verify.default_tol) ?(max_restarts = 3) a =
  let m = Mat.rows a and n = Mat.cols a in
  if n <= 0 || m < n then invalid_arg "Ft_qr.factor: need m >= n > 0";
  if block < 1 then
    invalid_arg
      (Printf.sprintf "Ft_qr.factor: block must be >= 1, got %d" block);
  let block = if n < block then n else block in
  if n mod block <> 0 then
    invalid_arg
      (Printf.sprintf "Ft_qr.factor: block %d must divide n=%d" block n);
  let nb = n / block in
  let injector = Injector.create plan in
  let uncorrectable_events = ref 0 and fail_stops = ref 0 in
  let rec attempt k =
    let panels =
      Array.init nb (fun j ->
          Mat.sub a ~row:0 ~col:(j * block) ~rows:m ~cols:block)
    in
    let chks =
      if scheme = Abft.Scheme.No_ft then None
      else Some (Array.map Panelchk.encode panels)
    in
    let st =
      {
        m;
        block;
        nb;
        tol;
        panels;
        chks;
        r = Mat.create n n;
        injector;
        verifications = 0;
        corrections = 0;
      }
    in
    match
      run_attempt st ~scheme;
      final_verification st ~scheme
    with
    | () -> (k, st, None)
    | exception Recovery msg ->
        Log.warn (fun f -> f "attempt %d failed (%s)" k msg);
        incr uncorrectable_events;
        if String.length msg >= 9 && String.sub msg 0 9 = "fail-stop" then
          incr fail_stops;
        if k < max_restarts then attempt (k + 1) else (k, st, Some msg)
  in
  let restarts, st, failure = attempt 0 in
  let q = Mat.create m n in
  Array.iteri (fun j p -> Mat.blit ~src:p ~dst:q ~row:0 ~col:(j * st.block)) st.panels;
  let residual =
    Mat.norm_fro
      (Mat.sub_mat
         (Blas3.gemm_alloc q st.r
         [@abft.unverified
           "residual check on the finished Q·R: runs after the scheme's own \
            verification to second-guess it, so it must read the factors \
            as-is"])
         a)
    /. Float.max 1. (Mat.norm_fro a)
  in
  let orthogonality =
    Mat.norm_fro
      (Mat.sub_mat
         (Blas3.gemm_alloc ~transa:Types.Trans q q
         [@abft.unverified
           "orthogonality check on the finished Q: same post-verification \
            read as the residual"])
         (Mat.identity n))
  in
  let outcome =
    match failure with
    | Some msg -> Gave_up msg
    | None ->
        if residual <= residual_threshold && orthogonality <= 1e-6 then Success
        else Silent_corruption
  in
  {
    q;
    r = st.r;
    outcome;
    residual;
    orthogonality;
    stats =
      {
        verifications = st.verifications;
        corrections = st.corrections;
        uncorrectable_events = !uncorrectable_events;
        fail_stops = !fail_stops;
        restarts;
      };
    injections_fired = Injector.fired injector;
  }

let pp_outcome fmt = function
  | Success -> Format.pp_print_string fmt "success"
  | Silent_corruption -> Format.pp_print_string fmt "silent corruption"
  | Gave_up msg -> Format.fprintf fmt "gave up: %s" msg

let pp_report fmt r =
  Format.fprintf fmt
    "@[<v>outcome: %a@,residual: %.3e, orthogonality: %.3e@,verifications: \
     %d, corrections: %d, restarts: %d, uncorrectable: %d, fail-stops: %d@,\
     injections fired: %d@]"
    pp_outcome r.outcome r.residual r.orthogonality r.stats.verifications
    r.stats.corrections r.stats.restarts r.stats.uncorrectable_events
    r.stats.fail_stops
    (List.length r.injections_fired)
