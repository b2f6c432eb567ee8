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
  l : Mat.t;
  u : Mat.t;
  outcome : outcome;
  residual : float;
  stats : stats;
  injections_fired : Injector.fired list;
}

type state = {
  grid : int;
  block : int;
  tol : float;
  tiles : Mat.t array array;  (* full grid, all tiles live *)
  chks : Duochk.t array array option;  (* None for No_ft *)
  injector : Injector.t;
  tally : Recovery.stats ref;
}

let tile st i c = st.tiles.(i).(c)

let lookup st (i, c) =
  if i >= 0 && c >= 0 && i < st.grid && c < st.grid then Some st.tiles.(i).(c)
  else None

let chk st i c =
  match st.chks with Some m -> m.(i).(c) | None -> assert false

(* Verification diffs the kernel-carried checksums against fresh sums
   recomputed here (never taken from the kernel) because injected
   faults can land in the tile after the kernel returns. *)
let vcol st = Duochk.compare_col ~tol:st.tol
let vrow st = Duochk.compare_row ~tol:st.tol

(* Verify a still-unfactored (trailing) tile against both checksum
   sides. *)
let verify_trailing st i c =
  Recovery.account st.tally ~block:(i, c)
    (Duochk.compare_both ~tol:st.tol (chk st i c) (tile st i c))

(* Verify an L-panel tile (column checksums only). *)
let verify_l st i c =
  Recovery.account st.tally ~block:(i, c) (vcol st (chk st i c) (tile st i c))

(* Verify a U-panel tile (row checksums only). *)
let verify_u st i c =
  Recovery.account st.tally ~block:(i, c) (vrow st (chk st i c) (tile st i c))

(* Verify a factored diagonal tile: the packed L\U storage is checked
   as its two triangular reconstructions; corrections must land in the
   triangle they claim to fix. *)
let verify_diag_factored st j =
  let t = st.tally in
  t := { !t with verifications = !t.verifications + 1 };
  let packed = tile st j j in
  let dk = chk st j j in
  let uncorrectable detail =
    raise
      (Recovery.Error (Recovery.Uncorrectable_block { block = (j, j); detail }))
  in
  let side name verify part ~owns =
    let fixes =
      match verify st dk part with
      | Abft.Verify.Clean -> []
      | Abft.Verify.Corrected fixes -> fixes
      | Abft.Verify.Checksum_repaired { corrections; _ } ->
          t := { !t with checksum_repairs = !t.checksum_repairs + 1 };
          corrections
      | Abft.Verify.Uncorrectable msg -> uncorrectable (name ^ ": " ^ msg)
    in
    List.iter
      (fun (f : Abft.Verify.correction) ->
        if owns f.Abft.Verify.row f.Abft.Verify.col then begin
          Mat.set packed f.Abft.Verify.row f.Abft.Verify.col f.Abft.Verify.fixed;
          Recovery.count_fix t f
        end
        else uncorrectable ("correction outside the " ^ name ^ " triangle"))
      fixes
  in
  side "L" vcol (Mat.tril ~diag:Types.Unit_diag packed) ~owns:( > );
  side "U" vrow (Mat.triu packed) ~owns:( <= )

let run_attempt st ~scheme =
  let g = st.grid in
  let with_ft = st.chks <> None in
  (* The column checksum chains ride the tile GEMM/TRSM; the row side
     multiplies by Lᵀ where the tile multiplies by U, so it stays a
     separate (d×B) pass. No_ft passes no carry: plain kernels. *)
  let carry f = if with_ft then Some (f ()) else None in
  (* tile (i, c) -= L(i, k)·U(k, c), checksums included *)
  let update i c k =
    Blas3.gemm ~alpha:(-1.) ~beta:1.
      ?fused:
        (carry (fun () -> Duochk.fuse_col ~l_chk:(chk st i k) (chk st i c)))
      (tile st i k) (tile st k c) (tile st i c);
    if with_ft then
      Duochk.gemm_row ~c:(chk st i c) ~u_chk:(chk st k c) ~l:(tile st i k)
  in
  let enhanced = match scheme with Abft.Scheme.Enhanced _ -> true | _ -> false in
  let online = scheme = Abft.Scheme.Online in
  let kk = Abft.Scheme.verification_interval scheme in
  (* Left-looking ("inner product") blocked LU: every tile receives all
     its trailing updates lazily, in the iteration that factors it. The
     factored panels are therefore re-read every later iteration —
     exactly the property that lets pre-read verification protect them
     from storage errors, and the reason the paper builds on MAGMA's
     inner-product Cholesky. *)
  for j = 0 to g - 1 do
    Injector.fire_storage st.injector ~iteration:j ~lookup:(lookup st);
    Injector.fire_device st.injector ~iteration:j ~lookup:(lookup st);
    let gate = j mod kk = 0 in
    (* ---- 1. lazy update of the diagonal tile:
            A_jj -= sum_{c<j} L(j,c) U(c,j). Inputs always verified
            (an undetected error here reaches GETF2 — the fail-stop
            path), mirroring the SYRK rule of Optimization 3. ---- *)
    if enhanced && with_ft then begin
      verify_trailing st j j;
      for c = 0 to j - 1 do
        verify_l st j c;
        verify_u st c j
      done
    end;
    let diag = tile st j j in
    for c = 0 to j - 1 do
      update j j c
    done;
    if j > 0 then
      Injector.fire_compute st.injector ~iteration:j ~op:Fault.Syrk
        ~block:(j, j) diag;
    if online && with_ft && j > 0 then verify_trailing st j j;
    (* ---- 2. GETF2 on the diagonal tile ---- *)
    if enhanced && with_ft then verify_trailing st j j;
    (try Lapack.getf2 diag
     with Lapack.Singular_pivot k ->
       raise (Recovery.Error (Recovery.Fail_stop { iteration = j; column = k })));
    Injector.fire_compute st.injector ~iteration:j ~op:Fault.Potf2 ~block:(j, j)
      diag;
    if with_ft then Duochk.getf2 (chk st j j) ~lu_packed:diag;
    if online && with_ft then verify_diag_factored st j;
    let u_diag = Mat.triu diag in
    let l_diag = Mat.tril ~diag:Types.Unit_diag diag in
    (* ---- 3. column panel: lazy update then solve against U_jj.
            L(j,c)/U(c,j) were verified in step 1; the new inputs are
            the panel tiles and the older L rows, K-gated. ---- *)
    if j < g - 1 then begin
      if enhanced && with_ft && gate then begin
        for i = j + 1 to g - 1 do
          verify_trailing st i j;
          for c = 0 to j - 1 do
            verify_l st i c
          done
        done
      end;
      for i = j + 1 to g - 1 do
        let t = tile st i j in
        for c = 0 to j - 1 do
          update i j c
        done;
        if j > 0 then
          Injector.fire_compute st.injector ~iteration:j ~op:Fault.Gemm
            ~block:(i, j) t;
        if online && with_ft && j > 0 then verify_trailing st i j
      done;
      if enhanced && with_ft then verify_diag_factored st j;
      for i = j + 1 to g - 1 do
        let t = tile st i j in
        Blas3.trsm
          ?fused:(carry (fun () -> Duochk.solve_col (chk st i j)))
          Types.Right Types.Upper Types.No_trans Types.Non_unit_diag u_diag t;
        Injector.fire_compute st.injector ~iteration:j ~op:Fault.Trsm
          ~block:(i, j) t;
        if online && with_ft then verify_l st i j
      done;
      (* ---- 4. row panel: symmetric ---- *)
      if enhanced && with_ft && gate then begin
        for c = j + 1 to g - 1 do
          verify_trailing st j c;
          for k = 0 to j - 1 do
            verify_u st k c
          done
        done
      end;
      for c = j + 1 to g - 1 do
        let t = tile st j c in
        for k = 0 to j - 1 do
          update j c k
        done;
        if j > 0 then
          Injector.fire_compute st.injector ~iteration:j ~op:Fault.Gemm
            ~block:(j, c) t;
        if online && with_ft && j > 0 then verify_trailing st j c;
        Blas3.trsm Types.Left Types.Lower Types.No_trans Types.Unit_diag l_diag
          t;
        Injector.fire_compute st.injector ~iteration:j ~op:Fault.Trsm
          ~block:(j, c) t;
        if with_ft then Duochk.row_panel (chk st j c) ~l_diag;
        if online && with_ft then verify_u st j c
      done
    end
  done

let final_verification st ~scheme =
  if scheme = Abft.Scheme.Offline && st.chks <> None then
    for j = 0 to st.grid - 1 do
      (* detect-only, as in the Cholesky driver: propagated errors are
         not trustworthily correctable at the end *)
      let packed = tile st j j in
      let dk = chk st j j in
      let ok_l =
        Abft.Verify.check ~tol:st.tol (Duochk.col dk)
          (Mat.tril ~diag:Types.Unit_diag packed)
      in
      let ok_u =
        Abft.Verify.check ~tol:st.tol (Duochk.row dk)
          (Mat.transpose (Mat.triu packed))
      in
      Recovery.detect st.tally ~block:(j, j) (ok_l && ok_u);
      for i = j + 1 to st.grid - 1 do
        Recovery.detect st.tally ~block:(i, j)
          (Abft.Verify.check ~tol:st.tol (Duochk.col (chk st i j)) (tile st i j));
        Recovery.detect st.tally ~block:(j, i)
          (Abft.Verify.check ~tol:st.tol
             (Duochk.row (chk st j i))
             (Mat.transpose (tile st j i)))
      done
    done

let assemble st =
  let n = st.grid * st.block in
  let packed = Mat.create n n in
  for i = 0 to st.grid - 1 do
    for c = 0 to st.grid - 1 do
      Mat.blit ~src:st.tiles.(i).(c) ~dst:packed ~row:(i * st.block)
        ~col:(c * st.block)
    done
  done;
  Lapack.lu_unpack packed

let factor ?(plan = []) ?(scheme = Abft.Scheme.enhanced ()) ?(block = 16)
    ?(tol = Abft.Verify.default_tol) ?(max_restarts = 3) a =
  let n = Mat.rows a in
  if Mat.cols a <> n then invalid_arg "Ft_lu.factor: input not square";
  if block < 1 then
    invalid_arg
      (Printf.sprintf "Ft_lu.factor: block must be >= 1, got %d" block);
  let block = if n < block then n else block in
  if n <= 0 || n mod block <> 0 then
    invalid_arg
      (Printf.sprintf
         "Ft_lu.factor: order %d must be a positive multiple of block %d" n
         block);
  let g = n / block in
  let injector = Injector.create plan in
  let tally = ref Recovery.zero in
  let attempt () =
    let tiles =
      Array.init g (fun i ->
          Array.init g (fun c ->
              Mat.sub a ~row:(i * block) ~col:(c * block) ~rows:block
                ~cols:block))
    in
    let chks =
      if scheme = Abft.Scheme.No_ft then None
      else
        Some
          (Array.init g (fun i ->
               Array.init g (fun c -> Duochk.encode tiles.(i).(c))))
    in
    { grid = g; block; tol; tiles; chks; injector; tally }
  in
  let run st ~from:_ =
    run_attempt st ~scheme;
    final_verification st ~scheme
  in
  let st, failure = Recovery.ladder tally ~max_restarts ~attempt ~run in
  let l, u = assemble st in
  let residual =
    Recovery.residual ~input:a
      ~apply:(fun v ->
        let w = Mat.copy v in
        Blas3.trmm Types.Left Types.Upper Types.No_trans Types.Non_unit_diag u
          w;
        Blas3.trmm Types.Left Types.Lower Types.No_trans Types.Unit_diag l w;
        w)
      ~product:(fun () -> Blas3.gemm_alloc l u)
  in
  {
    l;
    u;
    outcome = Recovery.classify failure ~residual;
    residual;
    stats = !tally;
    injections_fired = Injector.fired injector;
  }

let pp_outcome = Recovery.pp_outcome

let pp_report fmt r =
  Format.fprintf fmt
    "@[<v>outcome: %a@,residual: %.3e@,%a@,injections fired: %d@]" pp_outcome
    r.outcome r.residual Recovery.pp_stats r.stats
    (List.length r.injections_fired)
