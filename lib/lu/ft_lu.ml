open Matrix

let src = Logs.Src.create "ftchol.lu" ~doc:"FT LU driver events"

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
  l : Mat.t;
  u : Mat.t;
  outcome : outcome;
  residual : float;
  stats : stats;
  injections_fired : Injector.fired list;
}

let residual_threshold = 1e-6

exception Recovery of string

type state = {
  grid : int;
  block : int;
  tol : float;
  tiles : Mat.t array array;  (* full grid, all tiles live *)
  chks : Duochk.t array array option;  (* None for No_ft *)
  injector : Injector.t;
  mutable verifications : int;
  mutable corrections : int;
}

let tile st i c = st.tiles.(i).(c)

let lookup st (i, c) =
  if i >= 0 && c >= 0 && i < st.grid && c < st.grid then Some st.tiles.(i).(c)
  else None

let chk st i c =
  match st.chks with Some m -> m.(i).(c) | None -> assert false

let count_outcome st ~where = function
  | Abft.Verify.Clean -> ()
  | Abft.Verify.Corrected fixes ->
      Log.info (fun m -> m "corrected %d element(s) in %s" (List.length fixes) where);
      st.corrections <- st.corrections + List.length fixes
  | Abft.Verify.Checksum_repaired { cells; corrections } ->
      Log.info (fun m ->
          m "repaired %d checksum cell(s) in %s (+%d tile fix(es))" cells where
            (List.length corrections));
      st.corrections <- st.corrections + List.length corrections
  | Abft.Verify.Uncorrectable msg ->
      Log.warn (fun m -> m "uncorrectable at %s: %s" where msg);
      raise (Recovery (Printf.sprintf "%s: %s" where msg))

(* Verification diffs the kernel-carried checksums against fresh sums
   recomputed here (never taken from the kernel) because injected
   faults can land in the tile after the kernel returns. *)
let vcol st = Duochk.compare_col ~tol:st.tol
let vrow st = Duochk.compare_row ~tol:st.tol

(* Verify a still-unfactored (trailing) tile against both checksum
   sides. *)
let verify_trailing st i c =
  st.verifications <- st.verifications + 1;
  count_outcome st
    ~where:(Printf.sprintf "trailing (%d,%d)" i c)
    (Duochk.compare_both ~tol:st.tol (chk st i c) (tile st i c))

(* Verify an L-panel tile (column checksums only). *)
let verify_l st i c =
  st.verifications <- st.verifications + 1;
  count_outcome st
    ~where:(Printf.sprintf "L (%d,%d)" i c)
    (vcol st (chk st i c) (tile st i c))

(* Verify a U-panel tile (row checksums only). *)
let verify_u st i c =
  st.verifications <- st.verifications + 1;
  count_outcome st
    ~where:(Printf.sprintf "U (%d,%d)" i c)
    (vrow st (chk st i c) (tile st i c))

(* Verify a factored diagonal tile: the packed L\U storage is checked
   as its two triangular reconstructions; corrections must land in the
   triangle they claim to fix. *)
let verify_diag_factored st j =
  st.verifications <- st.verifications + 1;
  let packed = tile st j j in
  let dk = chk st j j in
  let lpart = Mat.tril ~diag:Types.Unit_diag packed in
  (match vcol st dk lpart with
  | Abft.Verify.Clean -> ()
  | Abft.Verify.Checksum_repaired { corrections = []; _ } -> ()
  | Abft.Verify.Corrected fixes
  | Abft.Verify.Checksum_repaired { corrections = _ :: _ as fixes; _ } ->
      List.iter
        (fun (f : Abft.Verify.correction) ->
          if f.Abft.Verify.row > f.Abft.Verify.col then begin
            Mat.set packed f.Abft.Verify.row f.Abft.Verify.col f.Abft.Verify.fixed;
            st.corrections <- st.corrections + 1
          end
          else
            raise
              (Recovery
                 (Printf.sprintf
                    "diag (%d,%d): correction outside the L triangle" j j)))
        fixes
  | Abft.Verify.Uncorrectable msg ->
      raise (Recovery (Printf.sprintf "diag L (%d,%d): %s" j j msg)));
  let upart = Mat.triu packed in
  match vrow st dk upart with
  | Abft.Verify.Clean -> ()
  | Abft.Verify.Checksum_repaired { corrections = []; _ } -> ()
  | Abft.Verify.Corrected fixes
  | Abft.Verify.Checksum_repaired { corrections = _ :: _ as fixes; _ } ->
      List.iter
        (fun (f : Abft.Verify.correction) ->
          if f.Abft.Verify.row <= f.Abft.Verify.col then begin
            Mat.set packed f.Abft.Verify.row f.Abft.Verify.col f.Abft.Verify.fixed;
            st.corrections <- st.corrections + 1
          end
          else
            raise
              (Recovery
                 (Printf.sprintf
                    "diag (%d,%d): correction outside the U triangle" j j)))
        fixes
  | Abft.Verify.Uncorrectable msg ->
      raise (Recovery (Printf.sprintf "diag U (%d,%d): %s" j j msg))

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
       raise
         (Recovery
            (Printf.sprintf "fail-stop: singular pivot at iteration %d, \
                             column %d" j k)));
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
      st.verifications <- st.verifications + 1;
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
      if not (ok_l && ok_u) then
        raise (Recovery (Printf.sprintf "final verify: diag (%d,%d)" j j));
      for i = j + 1 to st.grid - 1 do
        st.verifications <- st.verifications + 1;
        if not (Abft.Verify.check ~tol:st.tol (Duochk.col (chk st i j)) (tile st i j))
        then raise (Recovery (Printf.sprintf "final verify: L (%d,%d)" i j));
        st.verifications <- st.verifications + 1;
        if
          not
            (Abft.Verify.check ~tol:st.tol
               (Duochk.row (chk st j i))
               (Mat.transpose (tile st j i)))
        then raise (Recovery (Printf.sprintf "final verify: U (%d,%d)" j i))
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
  let uncorrectable_events = ref 0 and fail_stops = ref 0 in
  let rec attempt k =
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
    let st =
      {
        grid = g;
        block;
        tol;
        tiles;
        chks;
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
        incr uncorrectable_events;
        if String.length msg >= 9 && String.sub msg 0 9 = "fail-stop" then
          incr fail_stops;
        if k < max_restarts then attempt (k + 1) else (k, st, Some msg)
  in
  let restarts, st, failure = attempt 0 in
  let l, u = assemble st in
  let residual =
    Mat.norm_fro
      (Mat.sub_mat
         (Blas3.gemm_alloc l u
         [@abft.unverified
           "final residual: the product is subtracted from A on this very \
            line — the comparison against the input IS the verification"])
         a)
    /. Float.max 1. (Mat.norm_fro a)
  in
  let outcome =
    match failure with
    | Some msg -> Gave_up msg
    | None -> if residual <= residual_threshold then Success else Silent_corruption
  in
  {
    l;
    u;
    outcome;
    residual;
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
    "@[<v>outcome: %a@,residual: %.3e@,verifications: %d, corrections: %d, \
     restarts: %d, uncorrectable: %d, fail-stops: %d@,injections fired: %d@]"
    pp_outcome r.outcome r.residual r.stats.verifications r.stats.corrections
    r.stats.restarts r.stats.uncorrectable_events r.stats.fail_stops
    (List.length r.injections_fired)
