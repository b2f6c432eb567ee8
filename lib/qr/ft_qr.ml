open Matrix
module Recovery = Cholesky.Recovery

type outcome = Recovery.outcome =
  | Success
  | Silent_corruption
  | Gave_up of Recovery.reason

type stats = Recovery.stats = {
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

type report = {
  q : Mat.t;
  r : Mat.t;
  outcome : outcome;
  residual : float;
  orthogonality : float;
  stats : stats;
  injections_fired : Injector.fired list;
}

type state = {
  block : int;
  nb : int;  (* number of panels *)
  tol : float;
  panels : Mat.t array;  (* m x block each; A panels becoming Q panels *)
  chks : Panelchk.t array option;
  r : Mat.t;  (* n x n upper, unprotected (see .mli) *)
  injector : Injector.t;
  tally : Recovery.stats ref;
}

let lookup st (i, _c) =
  if i >= 0 && i < st.nb then Some st.panels.(i) else None

let chk st i = match st.chks with Some c -> c.(i) | None -> assert false

(* Panel [i] is reported as block [(i, i)]. Carried-vs-fresh
   [compare]; the fresh sums are recomputed here (never taken from the
   kernel) because injected faults can land in the panel after the
   kernel returns. *)
let verify_panel st i =
  Recovery.account st.tally ~block:(i, i)
    (Panelchk.compare ~tol:st.tol (chk st i) st.panels.(i))

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
      raise (Recovery.Error (Recovery.Fail_stop { iteration = j; column = col }));
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
      Recovery.detect st.tally ~block:(i, i)
        (Panelchk.check ~tol:st.tol (chk st i) st.panels.(i))
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
  let tally = ref Recovery.zero in
  let attempt () =
    let panels =
      Array.init nb (fun j ->
          Mat.sub a ~row:0 ~col:(j * block) ~rows:m ~cols:block)
    in
    let chks =
      if scheme = Abft.Scheme.No_ft then None
      else Some (Array.map Panelchk.encode panels)
    in
    { block; nb; tol; panels; chks; r = Mat.create n n; injector; tally }
  in
  let run st ~from:_ =
    run_attempt st ~scheme;
    final_verification st ~scheme
  in
  let st, failure = Recovery.ladder tally ~max_restarts ~attempt ~run in
  let q = Mat.create m n in
  Array.iteri (fun j p -> Mat.blit ~src:p ~dst:q ~row:0 ~col:(j * st.block)) st.panels;
  let residual =
    Recovery.residual ~input:a
      ~apply:(fun v ->
        let w = Mat.copy v in
        (Blas3.trmm Types.Left Types.Upper Types.No_trans Types.Non_unit_diag
           st.r w
        [@abft.unverified
          "residual probe of the finished Q·R: runs after the scheme's own \
           verification to second-guess it, so it must read R as-is"]);
        Blas3.gemm_alloc q w
        [@abft.unverified "second half of the same residual probe: reads Q"])
      ~product:(fun () ->
        Blas3.gemm_alloc q st.r
        [@abft.unverified
          "dense confirmation of a residual the probe could not clear: the \
           same post-verification read of Q and R as the probe"])
  in
  let orthogonality =
    Recovery.orthogonality ~n
      ~apply:(fun v ->
        Blas3.gemm_alloc ~transa:Types.Trans q
          (Blas3.gemm_alloc q v
          [@abft.unverified
            "orthogonality probe of the finished Q: same post-verification \
             read as the residual"])
        [@abft.unverified "second half of the same orthogonality probe"])
      ~gram:(fun () ->
        Blas3.gemm_alloc ~transa:Types.Trans q q
        [@abft.unverified
          "dense confirmation of an orthogonality the probe could not clear"])
  in
  {
    q;
    r = st.r;
    (* a Q that lost orthogonality is as wrong as a bad residual *)
    outcome =
      Recovery.classify failure ~residual:(Float.max residual orthogonality);
    residual;
    orthogonality;
    stats = !tally;
    injections_fired = Injector.fired injector;
  }

let pp_outcome = Recovery.pp_outcome

let pp_report fmt r =
  Format.fprintf fmt
    "@[<v>outcome: %a@,residual: %.3e, orthogonality: %.3e@,%a@,injections \
     fired: %d@]"
    pp_outcome r.outcome r.residual r.orthogonality Recovery.pp_stats r.stats
    (List.length r.injections_fired)
